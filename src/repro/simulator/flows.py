"""Bounded multi-port max-min fair bandwidth sharing.

The platform model (§2.2, after Hong & Prasanna) lets every resource
send and receive on any number of links simultaneously, with the *sum*
of its transfer rates bounded by its NIC, and each link imposing a
per-pair bound.  Given the set of concurrently active flows, the
steady-state rates realised by TCP-like fair sharing are the classic
**max-min fair** allocation under those capacity constraints, computed
by progressive filling:

1. grow all unfrozen flows' rates at the same speed;
2. the first constraint to saturate freezes all flows through it;
3. repeat until every flow is frozen (or hits its own demand cap).

Per-flow caps model basic-object refresh streams, which must sustain
``rate_k`` but should not exceed it (downloading *faster* than the
refresh frequency is useless).

Incremental kernel
------------------
Max-min fairness decomposes over the connected components of the
flow/constraint bipartite graph: a flow's rate depends only on flows it
(transitively) shares a constraint with.  :class:`FlowNetwork` exploits
this: it keeps persistent constraint→member indices and per-flow rates
across flow arrivals/departures, and on each change re-runs progressive
filling only over the affected component(s), leaving every other flow's
rate untouched.  Two exact shortcuts make the common cases cheap:

* **all-caps grant** — when every flow of a component is capped and no
  constraint is oversubscribed by the cap total (``Σ caps ≤ capacity``),
  the max-min allocation is provably *exactly* the caps, so filling is
  skipped and the caps are returned verbatim;
* **reserved fast path** — when *no* constraint anywhere is
  oversubscribed (the steady state of the simulator's ``reserved`` flow
  policy on a feasible allocation), adding or removing a capped flow is
  O(degree): the new flow gets its cap and nobody else moves.

Both shortcuts are decision rules shared with the from-scratch
recompute (:func:`max_min_rates`), so the incremental path is
*bit-identical* to a full recompute — the engine's ``warm`` kernel and
``naive`` oracle cross-check exactly on this property.

Vectorized filling
------------------
:func:`_progressive_fill` runs each waterfilling round in O(active
flows + constraints) pure Python — the per-constraint active-member
counts live in the member sets themselves, so no round re-scans
memberships.  :func:`_progressive_fill_vectorized` is the same
arithmetic over numpy arrays (CSR constraint→flow incidence, masked
per-round headroom/cap reductions): every float it produces comes from
the identical sequence of IEEE-754 operations on the identical values
(elementwise divisions, order-independent minima, uniform step adds —
there is no reassociated summation anywhere), so the two
implementations agree **bit for bit** on any input; the randomized
component tests assert exactly that.  :class:`FlowNetwork` picks the
implementation **per fill** from an estimate of the python loop's work
(rounds × touched rows — see :meth:`FlowNetwork._use_vector_kernel`).

Warm-started refills
--------------------
:class:`FlowNetwork` memoises converged fills by **component
structure** — the multiset of (constraint tuple, cap) flow shapes plus
the (constraint, capacity) set.  A steady-state simulation cycles
through a small set of flow configurations (periodic downloads,
pipelined edge transfers), so after the first lap nearly every refill
is served from previously converged rates instead of refilling from
zero.  The fill arithmetic depends only on those structural values
(never on flow identities or iteration order), so a structure hit
replays *exactly* the rates a cold fill would compute — the warm path
is bit-identical by construction.  A structure not seen before falls
back to a cold fill; hits and fallbacks are counted (``warm_hits`` /
``warm_fallbacks``) and surfaced in
:class:`~repro.simulator.engine.SimulationResult` so regressions stay
attributable.  (A literal delta-redistribution from the previous rates
cannot be bit-stable: progressive filling's float values depend on the
full step sequence from zero, so any shortcut that *re-derives* them
along a different arithmetic path diverges in the last ulp.)

The reference path (:func:`max_min_rates`, and through it the engine's
``naive`` oracle) builds its network with ``oracle=True``: no memo and
pure-Python fills only, so the oracle never shares the machinery it
checks.

This module is deliberately independent of the rest of the simulator:
constraints are abstract (capacity, member flows), so the unit tests
can exercise textbook max-min examples directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "FlowSpec",
    "CapacityConstraint",
    "FlowNetwork",
    "max_min_rates",
]

_NO_CONSTRAINT_MSG = "uncapped flow crosses no capacity constraint"
_STALL_MSG = (
    "progressive filling stalled: a positive step froze no flow and no"
    " binding constraint or cap could be identified"
)

#: Estimated python-loop work (rounds × touched rows) above which the
#: numpy formulation pays for its array set-up (see
#: :meth:`FlowNetwork._use_vector_kernel`).
_VECTOR_MIN_WORK = 2048

#: Converged-structure memo bound (entries) per network.
_WARM_CACHE_MAX = 4096


@dataclass(frozen=True, slots=True)
class FlowSpec:
    """One active flow: an id, the constraints it traverses, and an
    optional rate cap (``None`` = elastic)."""

    flow_id: Hashable
    constraints: tuple[Hashable, ...]
    cap: float | None = None


@dataclass(frozen=True, slots=True)
class CapacityConstraint:
    """A shared capacity (NIC or link), in MB/s."""

    constraint_id: Hashable
    capacity: float


def _progressive_fill(
    flows: Sequence[tuple[Hashable, tuple[Hashable, ...], float | None]],
    cap_left: dict[Hashable, float],
    epsilon: float,
) -> dict[Hashable, float]:
    """Textbook progressive filling over one flow set.

    ``flows`` are ``(flow_id, constraint_ids, cap)`` triples;
    ``cap_left`` is consumed in place.  Every float it produces depends
    only on the *values* involved, not on dict/set iteration order, so
    two calls over the same component always agree bit-for-bit.

    The member sets hold only *active* flows (frozen flows are removed
    from every constraint they cross), so each round's per-constraint
    active counts are ``len(members[cid])`` instead of a membership
    re-scan — O(flows + constraints) per round, same arithmetic.
    """
    members: dict[Hashable, set[Hashable]] = {cid: set() for cid in cap_left}
    cons_of: dict[Hashable, tuple[Hashable, ...]] = {}
    for fid, cids, _cap in flows:
        cons_of[fid] = cids
        for cid in cids:
            members[cid].add(fid)  # KeyError = wiring bug

    rates: dict[Hashable, float] = {fid: 0.0 for fid, _c, _cap in flows}
    caps: dict[Hashable, float | None] = {
        fid: cap for fid, _c, cap in flows
    }
    active: set[Hashable] = set(rates)

    def deactivate(frozen: set[Hashable]) -> None:
        active.difference_update(frozen)
        for fid in frozen:
            for cid in cons_of[fid]:
                members[cid].discard(fid)

    # flows through saturated-from-the-start constraints
    dead: set[Hashable] = set()
    for cid, left in cap_left.items():
        if left <= epsilon:
            dead |= members[cid]
    if dead:
        deactivate(dead)

    while active:
        # headroom per active flow for each constraint hosting any;
        # track the binding constraints for the numerical guard below
        increment = None
        binding_cids: list[Hashable] = []
        for cid, left in cap_left.items():
            n = len(members[cid])
            if n == 0:
                continue
            share = left / n
            if increment is None or share < increment:
                increment = share
                binding_cids = [cid]
            elif share == increment:
                binding_cids.append(cid)
        # individual caps may bind earlier
        cap_binding = None
        binding_fids: list[Hashable] = []
        for fid in active:
            c = caps[fid]
            if c is not None:
                room = c - rates[fid]
                if cap_binding is None or room < cap_binding:
                    cap_binding = room
                    binding_fids = [fid]
                elif room == cap_binding:
                    binding_fids.append(fid)
        if increment is None and cap_binding is None:
            # flows crossing no constraint and uncapped: unbounded demand
            # is meaningless here; freeze them at +inf? — treat as bug.
            raise ValueError(_NO_CONSTRAINT_MSG)
        step_raw = min(x for x in (increment, cap_binding) if x is not None)
        step = max(step_raw, 0.0)

        for fid in active:
            rates[fid] += step
        for cid, left in cap_left.items():
            cap_left[cid] = left - step * len(members[cid])

        frozen: set[Hashable] = set()
        for cid, left in cap_left.items():
            if left <= epsilon:
                frozen |= members[cid]
        for fid in active:
            c = caps[fid]
            if c is not None and rates[fid] >= c - epsilon:
                frozen.add(fid)
        if not frozen:
            # numerical guard: float drift can leave the binding
            # constraint's residual just above epsilon (left − (left/n)·n
            # rounds up for large capacities).  Freeze exactly the flows
            # the minimum step touched — freezing *everything* here
            # would silently cut off flows whose own constraints still
            # have headroom.
            if increment is not None and increment == step_raw:
                for cid in binding_cids:
                    frozen |= members[cid]
            if cap_binding is not None and cap_binding == step_raw:
                frozen.update(binding_fids)
            if not frozen:
                raise ValueError(_STALL_MSG)
        deactivate(frozen)

    return rates


def _progressive_fill_vectorized(
    flows: Sequence[tuple[Hashable, tuple[Hashable, ...], float | None]],
    cap_left: dict[Hashable, float],
    epsilon: float,
) -> dict[Hashable, float]:
    """Numpy formulation of :func:`_progressive_fill`.

    Same rounds, same IEEE-754 operations, bit-identical results: the
    per-round reductions are order-independent minima and elementwise
    array ops; the only accumulations are each flow's own ``rate +=
    step`` sequence (identical order) and the exact-integer member
    counts.  ``cap_left`` is consumed in place, like the Python loop.
    """
    nf = len(flows)
    cids = list(cap_left)
    cindex = {cid: j for j, cid in enumerate(cids)}
    nc = len(cids)

    left = np.fromiter(
        (cap_left[cid] for cid in cids), dtype=np.float64, count=nc
    )
    caps = np.fromiter(
        (np.inf if cap is None else cap for _f, _c, cap in flows),
        dtype=np.float64, count=nf,
    )
    has_cap = np.fromiter(
        (cap is not None for _f, _c, cap in flows), dtype=bool, count=nf
    )
    # Incidence: one (flow, constraint) pair per edge, flows' duplicate
    # constraint mentions deduplicated like the member sets.  Every use
    # of the edge list is order-independent (exact-integer bincounts,
    # boolean scatters), so the sorted order np.unique yields is as
    # good as insertion order — and the dedup runs in C.
    edge_keys = np.unique(np.fromiter(
        (i * nc + cindex[cid]  # KeyError = wiring bug
         for i, (_fid, fcids, _cap) in enumerate(flows) for cid in fcids),
        dtype=np.int64,
    ))
    inc_f_arr = (edge_keys // nc).astype(np.intp)
    inc_c_arr = (edge_keys % nc).astype(np.intp)

    rates = np.zeros(nf)
    active = np.ones(nf, dtype=bool)
    n = np.bincount(inc_c_arr, minlength=nc)

    def deactivate(frozen: "np.ndarray") -> None:
        """Freeze ``frozen & active`` flows, updating member counts."""
        newly = frozen & active
        if not newly.any():
            return
        active[newly] = False
        edge_mask = newly[inc_f_arr]
        np.subtract(n, np.bincount(inc_c_arr[edge_mask], minlength=nc),
                    out=n)

    # flows through saturated-from-the-start constraints
    sat = left <= epsilon
    if sat.any():
        dead = np.zeros(nf, dtype=bool)
        dead[inc_f_arr[sat[inc_c_arr]]] = True
        deactivate(dead)

    n_float = np.zeros(nc)
    while active.any():
        np.copyto(n_float, n, casting="same_kind")
        hosted = n > 0
        if hosted.any():
            shares = np.where(hosted, left / np.where(hosted, n_float, 1.0),
                              np.inf)
            increment = float(shares[hosted].min())
        else:
            shares = None
            increment = None
        rooms = caps - rates  # inf for uncapped flows
        bound = active & has_cap
        cap_binding = float(rooms[bound].min()) if bound.any() else None
        if increment is None and cap_binding is None:
            raise ValueError(_NO_CONSTRAINT_MSG)
        step_raw = min(x for x in (increment, cap_binding) if x is not None)
        step = max(step_raw, 0.0)

        rates[active] += step
        # constraints with no active member subtract step·0 = 0, the
        # same no-op the Python loop performs
        left -= step * n_float

        frozen = np.zeros(nf, dtype=bool)
        sat = left <= epsilon
        if sat.any():
            frozen[inc_f_arr[sat[inc_c_arr]]] = True
            frozen &= active
        frozen |= active & has_cap & (rates >= caps - epsilon)
        if not frozen.any():
            # numerical guard — mirror of the Python loop: freeze the
            # minimum step's own participants, raise on a genuine stall
            if increment is not None and increment == step_raw:
                binding_c = hosted & (shares == increment)
                frozen[inc_f_arr[binding_c[inc_c_arr]]] = True
                frozen &= active
            if cap_binding is not None and cap_binding == step_raw:
                frozen |= bound & (rooms == cap_binding)
            if not frozen.any():
                raise ValueError(_STALL_MSG)
        deactivate(frozen)

    for j, cid in enumerate(cids):
        cap_left[cid] = float(left[j])
    return {spec[0]: float(rates[i]) for i, spec in enumerate(flows)}


class FlowNetwork:
    """Persistent max-min state: constraints, member indices, rates.

    The engine's hot path.  :meth:`add_flow` / :meth:`remove_flow`
    update the indices and return **only the rates that changed**, so
    the caller can leave every other flow's scheduled completion event
    untouched.  :meth:`recompute_all` refills every component from
    scratch and returns the same changed-rate mapping; the two paths
    agree bit-for-bit because every component is always filled by the
    same arithmetic on the same inputs.

    Fills memoise converged rates by component structure
    (``warm_hits`` / ``warm_fallbacks`` count the outcomes) and pick
    python or numpy filling per fill (bit-identical either way, see
    module docstring).  ``oracle=True`` is the reference path of
    :func:`max_min_rates`: no memo, pure-Python fills only.
    """

    def __init__(
        self, *, epsilon: float = 1e-12, oracle: bool = False
    ) -> None:
        self.epsilon = epsilon
        self.oracle = oracle
        #: Warm-path outcome counters (never move on the oracle path):
        #: a *hit* served converged rates for a previously seen
        #: component structure; a *fallback* ran a cold fill.
        self.warm_hits = 0
        self.warm_fallbacks = 0
        self._warm_rates: dict[object, dict] = {}
        self._capacity: dict[Hashable, float] = {}
        #: cid → ordered member set (dict-as-set keeps insertion order,
        #: so cap sums are always accumulated in flow-arrival order).
        self._members: dict[Hashable, dict[Hashable, None]] = {}
        self._constraints_of: dict[Hashable, tuple[Hashable, ...]] = {}
        self._cap_of: dict[Hashable, float | None] = {}
        self._rate: dict[Hashable, float] = {}
        #: Σ of member caps per constraint.  Arrivals append to the
        #: member list's tail, so adding the new cap to the running
        #: total is arithmetically identical to a fresh in-order resum;
        #: removals re-sum the surviving members from scratch (no
        #: running-total drift — the all-caps grant decision must be
        #: reproducible against a freshly built network).
        self._cap_sum: dict[Hashable, float] = {}
        self._n_uncapped: dict[Hashable, int] = {}
        #: Constraints that block the all-caps grant: non-empty with an
        #: uncapped member or with ``Σ caps > capacity``.
        self._bad: set[Hashable] = set()

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def add_constraint(self, cid: Hashable, capacity: float) -> None:
        self._capacity[cid] = float(capacity)
        self._members.setdefault(cid, {})
        self._cap_sum.setdefault(cid, 0.0)
        self._n_uncapped.setdefault(cid, 0)

    def __contains__(self, cid: Hashable) -> bool:
        return cid in self._capacity

    @property
    def rates(self) -> Mapping[Hashable, float]:
        """Current rate of every registered flow (read-only view)."""
        return self._rate

    def rate(self, fid: Hashable) -> float:
        return self._rate[fid]

    def __len__(self) -> int:
        return len(self._constraints_of)

    # ------------------------------------------------------------------
    # membership bookkeeping
    # ------------------------------------------------------------------
    def _refresh_constraint(self, cid: Hashable) -> None:
        """Recompute a constraint's cap aggregate from its member list."""
        members = self._members[cid]
        cap_sum = 0.0
        n_uncapped = 0
        for fid in members:
            c = self._cap_of[fid]
            if c is None:
                n_uncapped += 1
            else:
                cap_sum += c
        self._cap_sum[cid] = cap_sum
        self._n_uncapped[cid] = n_uncapped
        if members and (n_uncapped or cap_sum > self._capacity[cid]):
            self._bad.add(cid)
        else:
            self._bad.discard(cid)

    def _note_member_added(self, cid: Hashable, cap: float | None) -> None:
        """O(1) aggregate update for a member appended to ``cid``'s
        tail — ``cap_sum + cap`` equals the fresh in-order resum the
        removal path performs, so the ``bad`` decision stays
        reproducible."""
        if cap is None:
            self._n_uncapped[cid] += 1
        else:
            self._cap_sum[cid] += cap
        if self._n_uncapped[cid] or self._cap_sum[cid] > self._capacity[cid]:
            self._bad.add(cid)
        else:
            self._bad.discard(cid)

    def _register(
        self,
        fid: Hashable,
        constraints: tuple[Hashable, ...],
        cap: float | None,
    ) -> None:
        if fid in self._constraints_of:
            raise ValueError(f"flow {fid!r} is already registered")
        if cap is None and not constraints:
            raise ValueError(_NO_CONSTRAINT_MSG)
        for cid in constraints:
            self._members[cid][fid] = None  # KeyError = wiring bug
        self._constraints_of[fid] = tuple(constraints)
        self._cap_of[fid] = cap
        self._rate[fid] = 0.0
        for cid in set(constraints):
            self._note_member_added(cid, cap)

    def _unregister(self, fid: Hashable) -> tuple[Hashable, ...]:
        constraints = self._constraints_of.pop(fid)
        cap = self._cap_of.pop(fid)
        del self._rate[fid]
        if cap is None:
            # uncapped departure: the cap sum is untouched, so no
            # resum is needed — only the uncapped count and the
            # ``bad`` decision move (both exact integers/comparisons)
            for cid in set(constraints):
                members = self._members[cid]
                del members[fid]
                self._n_uncapped[cid] -= 1
                if members and (
                    self._n_uncapped[cid]
                    or self._cap_sum[cid] > self._capacity[cid]
                ):
                    self._bad.add(cid)
                else:
                    self._bad.discard(cid)
            return constraints
        for cid in set(constraints):
            del self._members[cid][fid]
            # a capped departure re-sums the survivors from scratch:
            # subtracting the cap from the running total would drift
            # off the in-order sum a freshly built network computes
            self._refresh_constraint(cid)
        return constraints

    # ------------------------------------------------------------------
    # component-scoped refill
    # ------------------------------------------------------------------
    def _component(
        self, seed: Hashable, visited: set[Hashable]
    ) -> tuple[list[Hashable], list[Hashable]]:
        """Flows and constraints transitively connected to flow ``seed``."""
        comp_f: list[Hashable] = []
        comp_c: list[Hashable] = []
        seen_c: set[Hashable] = set()
        stack = [seed]
        visited.add(seed)
        while stack:
            fid = stack.pop()
            comp_f.append(fid)
            for cid in self._constraints_of[fid]:
                if cid in seen_c:
                    continue
                seen_c.add(cid)
                comp_c.append(cid)
                for other in self._members[cid]:
                    if other not in visited:
                        visited.add(other)
                        stack.append(other)
        return comp_f, comp_c

    def _component_structure(
        self, comp_f: Sequence[Hashable], comp_c: Sequence[Hashable]
    ) -> tuple[object, dict]:
        """Canonical structural key of one component, plus the flow
        grouping used to apply memoised rates.

        Flows with the same (constraint tuple, cap) shape are
        interchangeable — progressive filling gives them identical
        rates in every round — so the structure is the *multiset* of
        shapes plus the component's (constraint, capacity) pairs.
        Frozensets make the key order-independent without sorting
        heterogeneous ids.
        """
        groups: dict[tuple, list[Hashable]] = {}
        for fid in comp_f:
            shape = (self._constraints_of[fid], self._cap_of[fid])
            groups.setdefault(shape, []).append(fid)
        key = (
            frozenset(
                (shape, len(fids)) for shape, fids in groups.items()
            ),
            frozenset(
                (cid, self._capacity[cid]) for cid in comp_c
            ),
        )
        return key, groups

    def _cold_fill(
        self, comp_f: Sequence[Hashable], comp_c: Sequence[Hashable]
    ) -> dict[Hashable, float]:
        """Run progressive filling from zero over one component."""
        triples = [
            (fid, self._constraints_of[fid], self._cap_of[fid])
            for fid in comp_f
        ]
        cap_left = {cid: self._capacity[cid] for cid in comp_c}
        if not self.oracle and self._use_vector_kernel(
            triples, len(comp_c)
        ):
            return _progressive_fill_vectorized(
                triples, cap_left, self.epsilon
            )
        return _progressive_fill(triples, cap_left, self.epsilon)

    def _use_vector_kernel(
        self,
        triples: "Sequence[tuple[Hashable, tuple, float | None]]",
        n_constraints: int,
    ) -> bool:
        """Pick python or numpy filling for *this* fill.

        The gate is the *estimated python-loop work*: progressive
        filling runs one round per freeze
        event, and every round either freezes one distinct cap value
        or saturates one constraint, so the round count is bounded by
        ``distinct caps + constraints`` (and trivially by the number
        of participants).  A 1000-flow component with one shared cap
        converges in ~2 rounds — cheap in python, not worth the array
        set-up — while a 60-flow staircase of distinct caps runs ~60
        rounds and vectorizes well.  A flat component-size gate cannot
        see the difference; the work estimate can.  Both fills are
        bit-identical, so this is purely a performance decision.
        """
        n_flows = len(triples)
        caps = {cap for _, _, cap in triples if cap is not None}
        est_rounds = min(len(caps) + n_constraints,
                         n_flows + n_constraints)
        return est_rounds * (n_flows + n_constraints) >= _VECTOR_MIN_WORK

    def _fill(
        self, comp_f: Sequence[Hashable], comp_c: Sequence[Hashable]
    ) -> dict[Hashable, float]:
        """Refill one component; returns the flows whose rate changed."""
        cap_of = self._cap_of
        if all(cid not in self._bad for cid in comp_c) and all(
            cap_of[fid] is not None for fid in comp_f
        ):
            # all-caps grant: Σ caps fits every constraint, so max-min
            # rates are exactly the caps (see module docstring).
            new = {fid: cap_of[fid] for fid in comp_f}
        elif self.oracle:
            new = self._cold_fill(comp_f, comp_c)
        else:
            key, groups = self._component_structure(comp_f, comp_c)
            memo = self._warm_rates.get(key)
            if memo is not None:
                self.warm_hits += 1
                new = {
                    fid: memo[shape]
                    for shape, fids in groups.items()
                    for fid in fids
                }
            else:
                self.warm_fallbacks += 1
                new = self._cold_fill(comp_f, comp_c)
                if len(self._warm_rates) >= _WARM_CACHE_MAX:
                    self._warm_rates.pop(next(iter(self._warm_rates)))
                self._warm_rates[key] = {
                    shape: new[fids[0]] for shape, fids in groups.items()
                }
        changed: dict[Hashable, float] = {}
        rate = self._rate
        for fid, r in new.items():
            if rate[fid] != r:
                rate[fid] = r
                changed[fid] = r
        return changed

    def _refill_components(
        self, seeds: Iterable[Hashable]
    ) -> dict[Hashable, float]:
        changed: dict[Hashable, float] = {}
        visited: set[Hashable] = set()
        for seed in seeds:
            if seed in visited:
                continue
            comp_f, comp_c = self._component(seed, visited)
            changed.update(self._fill(comp_f, comp_c))
        return changed

    # ------------------------------------------------------------------
    # the incremental API
    # ------------------------------------------------------------------
    def add_flow(
        self,
        fid: Hashable,
        constraints: tuple[Hashable, ...],
        cap: float | None = None,
    ) -> dict[Hashable, float]:
        """Register a flow; returns every flow whose rate changed."""
        self._register(fid, constraints, cap)
        if not self._bad and cap is not None:
            # reserved fast path: every component (including this one)
            # is all-caps-feasible, so rates are the caps and adding a
            # cap-fitting flow moves nobody else.
            self._rate[fid] = cap
            return {fid: cap} if cap != 0.0 else {}
        return self._refill_components([fid])

    def add_flows(
        self,
        batch: Sequence[tuple[Hashable, tuple[Hashable, ...], float | None]],
    ) -> dict[Hashable, float]:
        """Register a batch of ``(fid, constraints, cap)`` flows, then
        refill the affected components **once**.

        This is the transition simulator's injection path: a
        reallocation step starts one drain + one state-transfer flow
        per migrated operator, and under the elastic policy every one
        of them lands in the same big component — registering them all
        before a single component refill replaces ``len(batch)``
        refills with one, exactly as the ROADMAP prescribed for the
        elastic component-refill path.  The resulting rates are
        identical to adding the flows one at a time (each refill is
        deterministic in the final membership), just cheaper.
        """
        if not batch:
            return {}
        for fid, constraints, cap in batch:
            self._register(fid, constraints, cap)
        if not self._bad and all(cap is not None for _f, _c, cap in batch):
            # reserved fast path, batch form: every component stays
            # all-caps-feasible, so each new flow gets exactly its cap.
            changed: dict[Hashable, float] = {}
            for fid, _constraints, cap in batch:
                self._rate[fid] = cap
                if cap != 0.0:
                    changed[fid] = cap
            return changed
        return self._refill_components([fid for fid, _c, _cap in batch])

    def remove_flow(self, fid: Hashable) -> dict[Hashable, float]:
        """Drop a flow; returns every *surviving* flow whose rate changed."""
        was_clean = not self._bad
        constraints = self._unregister(fid)
        if was_clean:
            # everyone already sits at their cap; freed capacity is
            # unusable headroom, so no rate moves.
            return {}
        seeds = [
            other
            for cid in constraints
            for other in self._members.get(cid, ())
        ]
        return self._refill_components(seeds)

    def recompute_all(self) -> dict[Hashable, float]:
        """Refill every component (the from-scratch recompute)."""
        return self._refill_components(self._constraints_of)


def max_min_rates(
    flows: Sequence[FlowSpec],
    constraints: Iterable[CapacityConstraint],
    *,
    epsilon: float = 1e-12,
) -> dict[Hashable, float]:
    """Progressive-filling max-min fair allocation, from scratch.

    Returns flow_id → rate (MB/s).  Flows through an unknown constraint
    id raise ``KeyError`` — that is a wiring bug, not a runtime
    condition.  A flow crossing a zero-capacity constraint gets rate 0.

    Each connected component of the flow/constraint graph is filled
    independently, by cold pure-Python progressive filling (after the
    all-caps grant) — the arithmetic the incremental
    :class:`FlowNetwork` reproduces bit-for-bit.
    """
    net = FlowNetwork(epsilon=epsilon, oracle=True)
    for c in constraints:
        net.add_constraint(c.constraint_id, c.capacity)
    for f in flows:
        net._register(f.flow_id, f.constraints, f.cap)
    net.recompute_all()
    return dict(net.rates)
