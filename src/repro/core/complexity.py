"""Executable versions of the paper's §3 complexity results.

The paper states two results about the simplest problem class
(fully homogeneous left-deep tree, no communication costs, homogeneous
servers and processors, objective = minimise the number of processors):

1. **NP-hardness** — "It uses a reduction from 3-Partition, which is
   NP-complete in the strong sense.  [The hardness is] due to the
   combinatorial space induced by the mapping of basic objects that are
   shared by several operators."  :func:`three_partition_instance`
   builds that reduction as an actual :class:`ProblemInstance`: the
   3-Partition numbers become basic-object download rates, processors
   get a NIC that exactly fits one triple, and a feasible mapping on
   ``m`` machines exists iff the numbers partition into ``m`` triples
   of equal sum.  Tests drive yes/no instances through the exact solver
   to *witness* the equivalence on small cases.

2. **A polynomial special case** — "this problem becomes polynomial if
   one adds the additional restriction that no basic object is used by
   more than one operator.  In this case, one can simply assign
   operators to ⌈|N|·w/s⌉ arbitrary processors in a round-robin
   fashion."  :func:`round_robin_mapping` implements that algorithm and
   :func:`is_object_disjoint` checks its precondition; tests verify the
   produced mapping is feasible and uses the provably minimal machine
   count in the restricted setting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from ..apptree.nodes import Operator
from ..apptree.objects import BasicObject, ObjectCatalog
from ..apptree.tree import OperatorTree
from ..errors import ModelError, PlacementError
from ..platform.catalog import Catalog, CpuOption, NicOption
from ..platform.network import NetworkModel
from ..platform.resources import Processor, Server
from ..platform.servers import ServerFarm
from .loads import LoadTracker
from .mapping import Allocation
from .problem import ProblemInstance

__all__ = [
    "ThreePartitionReduction",
    "three_partition_instance",
    "is_object_disjoint",
    "round_robin_mapping",
    "minimal_machines_object_disjoint",
    "solve_object_disjoint",
]


# ----------------------------------------------------------------------
# 1. the 3-Partition reduction
# ----------------------------------------------------------------------

#: Uniform download rate of every reduction object (size 10 MB, 1 Hz).
_REDUCTION_RATE = 10.0


@dataclass(frozen=True)
class ThreePartitionReduction:
    """The instance produced from a 3-Partition input.

    A 3-Partition input is ``3m`` integers ``a_1..a_3m`` with
    ``Σ a_j = m·B`` and ``B/4 < a_j < B/2``; the question is whether
    they split into ``m`` triples each summing to ``B``.

    The reduction keeps everything *fully homogeneous* as the paper
    requires — the hardness comes purely from **object sharing**:

    * object ``o_j`` is used by ``a_j`` operators (uniform unit work,
      uniform download rate, zero output sizes);
    * machine CPU capacity = exactly ``B`` unit operators;
    * machine NIC capacity = exactly 3 downloads' worth.

    With ``m`` machines both budgets are globally *tight*: total work
    is ``m·B`` and the ``3m`` distinct objects need at least one
    download each against ``3m`` total download slots.  Hence no
    object's user-group may split across machines (a split costs an
    extra download slot), machines must carry whole groups — at most 3
    of them — summing to exactly ``B`` operators... which is precisely
    a 3-Partition certificate.  So the tree fits on ``m`` machines iff
    the 3-Partition answer is *yes*.
    """

    instance: ProblemInstance
    m: int
    target_sum: float
    numbers: tuple[int, ...]
    #: operator indices using object j (the "group" of number a_j).
    groups: tuple[tuple[int, ...], ...]

    @property
    def yes_means_machines(self) -> int:
        """Machine count achievable iff the 3-Partition answer is yes."""
        return self.m

    def allocation_for_triples(
        self, triples: Sequence[Sequence[int]]
    ) -> Allocation:
        """Materialise a candidate 3-Partition certificate (a list of
        triples of *number indices*) as an Allocation on ``len(triples)``
        machines — feasibility of the result, checked with the standard
        verifier, certifies the certificate."""
        spec = self.instance.catalog.cheapest
        processors = tuple(
            Processor(uid=u, spec=spec) for u in range(len(triples))
        )
        assignment: dict[int, int] = {}
        downloads: dict[tuple[int, int], int] = {}
        for u, triple in enumerate(triples):
            for j in triple:
                for i in self.groups[j]:
                    assignment[i] = u
                downloads[(u, j)] = 0
        return Allocation(
            instance=self.instance,
            processors=processors,
            assignment=assignment,
            downloads=downloads,
            provenance="3-partition-certificate",
        )

    def group_packing_feasible(self, n_machines: int) -> bool:
        """Brute-force: can the 3m atomic groups be packed onto
        ``n_machines`` machines within the CPU (B operators) and NIC
        (3 downloads) budgets?  Exponential — test-scale inputs only."""
        n_groups = len(self.groups)
        sizes = [len(g) for g in self.groups]
        cap_ops = [int(round(self.target_sum))] * n_machines
        cap_obj = [3] * n_machines

        def place(j: int) -> bool:
            if j == n_groups:
                return True
            seen: set[tuple[int, int]] = set()
            for u in range(n_machines):
                state = (cap_ops[u], cap_obj[u])
                if state in seen:
                    continue  # symmetric machine
                seen.add(state)
                if cap_ops[u] >= sizes[j] and cap_obj[u] >= 1:
                    cap_ops[u] -= sizes[j]
                    cap_obj[u] -= 1
                    if place(j + 1):
                        return True
                    cap_ops[u] += sizes[j]
                    cap_obj[u] += 1
            return False

        return place(0)


def three_partition_instance(
    numbers: Sequence[int], *, strict: bool = True
) -> ThreePartitionReduction:
    """Build the reduction instance for the given 3-Partition numbers.

    Parameters
    ----------
    numbers:
        ``3m`` positive integers; their sum must split into ``m`` equal
        parts ``B = Σ/m``.
    strict:
        Enforce the canonical ``B/4 < a_j < B/2`` range (forces triples);
        disable to build degenerate study instances.
    """
    n_groups = len(numbers)
    if n_groups == 0 or n_groups % 3 != 0:
        raise ModelError("3-Partition needs 3m numbers")
    if any(int(a) != a or a <= 0 for a in numbers):
        raise ModelError("3-Partition numbers must be positive integers")
    m = n_groups // 3
    total = int(sum(numbers))
    if total % m != 0:
        raise ModelError(
            f"numbers sum to {total}, not divisible by m={m}"
        )
    target = total // m
    if strict:
        for a in numbers:
            if not (target / 4 < a < target / 2):
                raise ModelError(
                    f"number {a} outside the canonical (B/4, B/2) range"
                    f" for B={target}"
                )

    catalog_objs = ObjectCatalog(
        [
            BasicObject(index=k, size_mb=_REDUCTION_RATE,
                        frequency_hz=1.0)
            for k in range(n_groups)
        ]
    )
    # left-deep chain of Σa_j operators (zero output = "without
    # communication costs"); group j's operators occupy a consecutive
    # block and all read object j.
    n_ops = total
    object_of: list[int] = []
    groups: list[list[int]] = []
    for j, a in enumerate(numbers):
        start = len(object_of)
        object_of.extend([j] * int(a))
        groups.append(list(range(start, start + int(a))))
    ops = []
    for i in range(n_ops):
        children = (i + 1,) if i + 1 < n_ops else ()
        # the deepest operator's second slot repeats its own object,
        # which adds no download (same object, same operator)
        leaves = (object_of[i],) if i + 1 < n_ops else (
            object_of[i], object_of[i]
        )
        ops.append(
            Operator(index=i, children=children, leaves=leaves,
                     work=1.0, output_mb=0.0)
        )
    tree = OperatorTree(ops, catalog_objs, name="3-partition")

    farm = ServerFarm(
        [Server(uid=0, objects=frozenset(range(n_groups)),
                nic_mbps=1e9)]
    )
    machine = Catalog(
        cpu_options=[CpuOption(speed_ghz=1.0, upgrade_cost=0.0)],
        nic_options=[NicOption(
            bandwidth_gbps=3 * _REDUCTION_RATE / 125.0,
            upgrade_cost=0.0,
        )],
        ops_per_ghz=float(target),  # machine = exactly B unit operators
    )
    instance = ProblemInstance(
        tree=tree,
        farm=farm,
        catalog=machine,
        network=NetworkModel(
            processor_link_mbps=1e9, server_link_mbps=1e9
        ),
        rho=1.0,
        name=f"3partition(m={m}, B={target})",
    )
    return ThreePartitionReduction(
        instance=instance,
        m=m,
        target_sum=float(target),
        numbers=tuple(int(a) for a in numbers),
        groups=tuple(tuple(g) for g in groups),
    )


# ----------------------------------------------------------------------
# 2. the polynomial special case
# ----------------------------------------------------------------------

def is_object_disjoint(tree: OperatorTree) -> bool:
    """True when no basic object is used by more than one operator —
    the restriction under which the paper's problem is polynomial."""
    return all(tree.popularity(k) <= 1 for k in tree.used_objects)


def minimal_machines_object_disjoint(instance: ProblemInstance) -> int:
    """Lower bound on the machine count for the restricted case —
    exact in the paper's fully homogeneous setting.

    With homogeneous machines, no communication (δ_i = 0) and disjoint
    objects, the counting bounds ``⌈ρΣw/s⌉`` and ``⌈Σrate/B⌉`` are
    necessary; with *uniform* per-operator loads (the paper's
    left-deep homogeneous case) round-robin achieves them, so the max
    of the two is the optimum.  For heterogeneous loads it remains a
    valid lower bound (bin-packing slack may add machines —
    :func:`solve_object_disjoint` handles that by retrying).
    """
    spec = instance.catalog.cheapest
    total_work = instance.rho * instance.tree.total_work
    total_rate = sum(
        instance.rate(k) for k in instance.tree.used_objects
    )
    need = max(
        math.ceil(total_work / spec.speed_ops - 1e-12),
        math.ceil(total_rate / spec.nic_mbps - 1e-12),
        1,
    )
    return need


def round_robin_mapping(
    instance: ProblemInstance, n_machines: int | None = None
) -> dict[int, int]:
    """The paper's polynomial algorithm for the object-disjoint case:
    assign operators "to ⌈|N|·w/s⌉ arbitrary processors in a
    round-robin fashion".

    Operators are dealt in decreasing load order onto the machine with
    the most remaining capacity (round-robin with balancing — the
    natural reading for heterogeneous per-operator loads; for the
    uniform loads of the paper's restricted setting this *is* plain
    round-robin).  Returns operator → machine index and raises
    :class:`PlacementError` if the deal does not fit (which, by the
    counting argument, cannot happen for feasible restricted
    instances unless a single operator exceeds a machine).
    """
    tree = instance.tree
    if not is_object_disjoint(tree):
        raise ModelError(
            "round-robin mapping requires object-disjoint trees (the"
            " polynomial special case); this tree shares objects"
        )
    k = n_machines or minimal_machines_object_disjoint(instance)
    tracker = LoadTracker(instance)
    spec = instance.catalog.cheapest

    loads = sorted(
        tree.operator_indices,
        key=lambda i: -(instance.rho * tree[i].work
                        + sum(instance.rate(o)
                              for o in set(tree.leaf(i)))),
    )
    for pos, i in enumerate(loads):
        placed = False
        # try machines in round-robin order starting from pos % k
        for step in range(k):
            u = (pos + step) % k
            if tracker.would_fit(i, u, spec.speed_ops, spec.nic_mbps):
                tracker.assign(i, u)
                placed = True
                break
        if not placed:
            raise PlacementError(
                f"operator n{i} does not fit any of the {k} machines",
                detail=i,
            )
    return dict(tracker.assignment)


def solve_object_disjoint(
    instance: ProblemInstance,
) -> tuple[dict[int, int], int]:
    """Complete polynomial solver for the object-disjoint case: start at
    the counting lower bound and retry with one more machine until the
    round-robin deal fits.  Returns ``(assignment, n_machines)``.

    Termination: with ``k = |N|`` machines every operator gets its own
    (feasible whenever any allocation is — checked by construction), so
    the loop is bounded by ``|N|`` iterations, keeping the whole solver
    polynomial.
    """
    n = len(instance.tree)
    k = minimal_machines_object_disjoint(instance)
    while k <= n:
        try:
            return round_robin_mapping(instance, k), k
        except PlacementError:
            k += 1
    raise PlacementError(
        "no machine count up to one-per-operator fits: some single"
        " operator exceeds the machine capacity"
    )
