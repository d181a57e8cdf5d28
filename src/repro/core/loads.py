"""Incremental steady-state load accounting (the terms of Eq. 1–5).

Placement heuristics test thousands of tentative assignments, each of
which changes at most ``deg(i) + |Leaf(i)|`` load terms, so recomputing
whole-platform loads per probe would be quadratic.  :class:`LoadTracker`
maintains every constraint-relevant aggregate under
``assign``/``unassign`` updates in O(degree) time:

* per-processor compute rate ``ρ·Σ w_i``                        (Eq. 1),
* per-processor NIC usage = distinct-object download rates
  + cut-edge traffic in both directions                          (Eq. 2),
* per-processor-pair cut traffic                                 (Eq. 5).

Throughput-scaled aggregates are stored *ρ-free* (``Σ w_i``, ``Σ δ``)
and multiplied by ρ at query time — matching the verifier's
``ρ·Σ`` formula term for term and, more importantly, making a target
throughput change an O(1) :meth:`LoadTracker.rebind` instead of a full
rebuild.  The dynamic replay loop leans on this: between epochs whose
mutation leaves the tree and object rates untouched (ρ drift, farm
churn), the repair planner re-binds and reuses the previous epoch's
tracker instead of replaying every assignment.

Server-side loads (Eq. 3–4) depend on the *server selection* phase and
are tracked separately by :class:`DownloadPlan` in
:mod:`repro.core.server_selection`.

Partial mappings: while operators remain unassigned, each tree edge
with exactly one mapped endpoint is counted as *remote* on the mapped
side.  This is the conservative reading of the heuristics' "can this
processor handle the operator at the required throughput" test — a
later colocation can only reduce the load, never invalidate an accepted
purchase.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from ..errors import ModelError
from .problem import ProblemInstance

__all__ = ["LoadTracker", "MoveProbe", "standalone_requirement"]

#: Relative slack on every capacity and link-budget check.
_TOL = 1 + 1e-9
#: A pair's cut traffic at or below this after an ``unassign`` is dropped.
_PAIR_EPS = 1e-12


def _pair(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def _within(compute: float, nic: float, speed_ops: float,
            nic_mbps: float) -> bool:
    return not (compute > speed_ops * _TOL or nic > nic_mbps * _TOL)


class MoveProbe(NamedTuple):
    """What :meth:`LoadTracker.move_group` would leave behind, priced by
    :meth:`LoadTracker.probe_move` without mutating anything.

    Loads are ρ-scaled exactly as :meth:`LoadTracker.compute_load` and
    :meth:`LoadTracker.nic_load` report them after the move.  ``pairs``
    holds the post-move cut traffic (ρ-free, MB per result) of every
    processor pair the move changes; ``None`` marks a pair the move
    drops.
    """

    source: int | None
    target: int
    source_compute: float
    source_nic: float
    source_empty: bool
    target_compute: float
    target_nic: float
    pairs: dict[tuple[int, int], float | None]


class LoadTracker:
    """Mutable load bookkeeping for a (possibly partial) mapping."""

    def __init__(self, instance: ProblemInstance) -> None:
        self.instance = instance
        self.tree = instance.tree
        self.rho = instance.rho
        self.assignment: dict[int, int] = {}
        # per-processor aggregates (ρ-free where ρ scales the term)
        self._work: dict[int, float] = defaultdict(float)
        self._comm_mb: dict[int, float] = defaultdict(float)
        self._dl_rate: dict[int, float] = defaultdict(float)
        # (uid -> object -> #operators on uid needing it)
        self._dl_counts: dict[int, dict[int, int]] = defaultdict(
            lambda: defaultdict(int)
        )
        # cut traffic volume (MB per result) per unordered processor pair
        self._pair_mb: dict[tuple[int, int], float] = defaultdict(float)
        # reverse index: uid -> operators currently mapped there
        self._ops_on: dict[int, set[int]] = defaultdict(set)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def assign(self, i: int, u: int) -> None:
        """Map operator ``i`` onto processor uid ``u``."""
        if i in self.assignment:
            raise ModelError(
                f"operator n{i} is already mapped; unassign it first"
            )
        tree = self.tree
        self.assignment[i] = u
        self._ops_on[u].add(i)
        self._work[u] += tree[i].work

        counts = self._dl_counts[u]
        for k in tree.unique_leaf(i):
            if counts[k] == 0:
                self._dl_rate[u] += tree.catalog.rate_of(k)
            counts[k] += 1

        for j, vol in tree.links(i):
            v = self.assignment.get(j)
            if v is None:
                self._comm_mb[u] += vol  # pessimistic: neighbour unmapped
            elif v == u:
                # edge was pessimistically charged to v==u; now internal
                self._comm_mb[u] -= vol
            else:
                self._comm_mb[u] += vol  # v's side was already charged
                self._pair_mb[_pair(u, v)] += vol

    def unassign(self, i: int) -> int:
        """Remove operator ``i`` from the mapping; returns its old uid."""
        try:
            u = self.assignment.pop(i)
        except KeyError:
            raise ModelError(f"operator n{i} is not mapped")
        tree = self.tree
        self._ops_on[u].discard(i)
        self._work[u] -= tree[i].work

        counts = self._dl_counts[u]
        for k in tree.unique_leaf(i):
            counts[k] -= 1
            if counts[k] == 0:
                self._dl_rate[u] -= tree.catalog.rate_of(k)
                del counts[k]

        for j, vol in tree.links(i):
            v = self.assignment.get(j)
            if v is None:
                self._comm_mb[u] -= vol
            elif v == u:
                self._comm_mb[u] += vol  # edge back to pessimistic on v's side
            else:
                self._comm_mb[u] -= vol
                pair = _pair(u, v)
                self._pair_mb[pair] -= vol
                if self._pair_mb[pair] <= _PAIR_EPS:
                    del self._pair_mb[pair]
        return u

    def move(self, i: int, u: int) -> None:
        """Reassign operator ``i`` to processor ``u``."""
        self.unassign(i)
        self.assign(i, u)

    def move_group(self, ops: Sequence[int], u: int) -> None:
        """Unassign every mapped operator of ``ops``, then assign them
        all to ``u`` in order — the move :meth:`probe_move` prices."""
        for i in ops:
            if i in self.assignment:
                self.unassign(i)
        for i in ops:
            self.assign(i, u)

    def rebind(self, instance: ProblemInstance) -> bool:
        """Adopt a mutated instance without replaying the assignment.

        Valid exactly when every stored aggregate is unchanged by the
        mutation: the operator tree must be structurally identical
        (same operator records) and the object catalog must carry the
        same sizes and refresh rates.  ρ and the server farm may differ
        freely — ρ is applied at query time and the farm never enters
        processor-side accounting.  Returns ``False`` (tracker
        untouched) when the delta is anything else; callers then
        rebuild.
        """
        old = self.instance
        if instance.tree is not old.tree:
            new_tree, old_tree = instance.tree, old.tree
            if (
                len(new_tree) != len(old_tree)
                or any(
                    new_tree[i] != old_tree[i]
                    for i in range(len(old_tree))
                )
            ):
                return False
            new_cat, old_cat = new_tree.catalog, old_tree.catalog
            if new_cat is not old_cat:
                if len(new_cat) != len(old_cat) or any(
                    new_cat[k] != old_cat[k] for k in range(len(old_cat))
                ):
                    return False
        self.instance = instance
        self.tree = instance.tree
        self.rho = instance.rho
        return True

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def processor_of(self, i: int) -> int | None:
        return self.assignment.get(i)

    def operators_on(self, u: int) -> tuple[int, ...]:
        """``ā(u)`` — operators currently mapped on ``u`` (ascending)."""
        ops = self._ops_on.get(u)
        return tuple(sorted(ops)) if ops else ()

    def compute_load(self, u: int) -> float:
        """``ρ·Σ_{i∈ā(u)} w_i`` in operations/second (Eq. 1 LHS × s_u)."""
        return self.rho * self._work.get(u, 0.0)

    def download_rate(self, u: int) -> float:
        """Σ of ``rate_k`` over *distinct* objects needed on ``u``."""
        return self._dl_rate.get(u, 0.0)

    def comm_rate(self, u: int) -> float:
        """Cut-edge traffic (in+out) charged to ``u``'s NIC, MB/s."""
        return self.rho * self._comm_mb.get(u, 0.0)

    def nic_load(self, u: int) -> float:
        """Eq. 2 LHS: downloads + inter-processor traffic, MB/s."""
        return self.download_rate(u) + self.comm_rate(u)

    def needed_objects(self, u: int) -> tuple[int, ...]:
        """Distinct objects processor ``u`` must download (ascending)."""
        return tuple(sorted(self._dl_counts.get(u, {})))

    def pair_load(self, u: int, v: int) -> float:
        """Eq. 5 LHS for the unordered pair ``{u, v}``, MB/s."""
        return self.rho * self._pair_mb.get(_pair(u, v), 0.0)

    def iter_pair_loads(self) -> Iterator[tuple[tuple[int, int], float]]:
        """Lazily yield ``(pair, Eq. 5 load)`` — the allocation-free way
        to scan pair loads in heuristic inner loops."""
        rho = self.rho
        for p, mb in self._pair_mb.items():
            yield p, rho * mb

    @property
    def pair_loads(self) -> Mapping[tuple[int, int], float]:
        return {p: self.rho * mb for p, mb in self._pair_mb.items()}

    @property
    def used_uids(self) -> tuple[int, ...]:
        return tuple(sorted(u for u, ops in self._ops_on.items() if ops))

    def is_complete(self) -> bool:
        return len(self.assignment) == len(self.tree)

    # ------------------------------------------------------------------
    # feasibility probes used by the heuristics
    # ------------------------------------------------------------------
    def fits(self, u: int, speed_ops: float, nic_mbps: float) -> bool:
        """Do ``u``'s current aggregates fit the given capacities and do
        all links touching ``u`` respect the uniform ``bp``?  Scans every
        loaded processor pair."""
        return _within(
            self.compute_load(u), self.nic_load(u), speed_ops, nic_mbps
        ) and self._links_ok((u,), {})

    def would_fit(
        self, i: int, u: int, speed_ops: float, nic_mbps: float
    ) -> bool:
        """Would :meth:`fits` hold for ``u`` after assigning the unmapped
        operator ``i`` there?  Priced by :meth:`probe_move`, so nothing
        is mutated; O(degree) for the loads plus a scan of every loaded
        processor pair for the link budgets."""
        if i in self.assignment:
            raise ModelError(
                f"operator n{i} is already mapped; unassign it first"
            )
        probe = self.probe_move((i,), u)
        return _within(
            probe.target_compute, probe.target_nic, speed_ops, nic_mbps
        ) and self.links_ok_after(probe)

    def links_ok_after(self, probe: MoveProbe) -> bool:
        """Would every link touching the probe's source or target respect
        ``bp`` after the move?"""
        return self._links_ok((probe.source, probe.target), probe.pairs)

    def _links_ok(
        self,
        uids: tuple[int | None, ...],
        changed: Mapping[tuple[int, int], float | None],
    ) -> bool:
        limit = self.instance.network.processor_link_mbps * _TOL
        rho = self.rho
        for p, mb in self._pair_mb.items():
            if (
                rho * mb > limit
                and (p[0] in uids or p[1] in uids)
                and p not in changed
            ):
                return False
        return not any(
            mb is not None and rho * mb > limit for mb in changed.values()
        )

    def probe_move(self, ops: Sequence[int], u: int) -> MoveProbe:
        """Price :meth:`move_group` ``(ops, u)`` without mutating.

        Every operator of ``ops`` must be unmapped or mapped on one
        common source processor.  The post-move aggregates are summed in
        the order ``unassign``/``assign`` apply them — per operator, then
        per ``tree.links`` entry — so they are the very floats the
        mutation would leave, and a decision taken on the probe is the
        decision taken after mutating.  (Applying a move and reverting it
        is *not* a no-op on the floats.)
        """
        tree = self.tree
        rate = tree.catalog.rate_of
        assignment = self.assignment
        pair_mb = self._pair_mb
        pairs: dict[tuple[int, int], float | None] = {}
        group = set(ops)

        moving = [i for i in ops if i in assignment]
        source = assignment[moving[0]] if moving else None
        s_work = self._work.get(source, 0.0)
        s_dl = self._dl_rate.get(source, 0.0)
        s_comm = self._comm_mb.get(source, 0.0)
        s_counts = self._dl_counts.get(source, {})
        s_left: dict[int, int] = {}
        if any(assignment[i] != source for i in moving):
            raise ModelError(
                f"probe_move: operators {list(ops)} span several processors"
            )
        unmapped = group.difference(moving)  # group members unmapped so far
        for i in moving:  # unassign(i) on the source
            unmapped.add(i)
            s_work -= tree[i].work
            for k in tree.unique_leaf(i):
                left = (s_left[k] if k in s_left else s_counts[k]) - 1
                s_left[k] = left
                if left == 0:
                    s_dl -= rate(k)
            for j, vol in tree.links(i):
                v = None if j in unmapped else assignment.get(j)
                if v is None:
                    s_comm -= vol
                elif v == source:
                    s_comm += vol
                else:
                    s_comm -= vol
                    p = _pair(source, v)
                    mb = (pairs[p] if p in pairs else pair_mb.get(p)) or 0.0
                    mb -= vol
                    pairs[p] = None if mb <= _PAIR_EPS else mb

        if u == source:
            t_work, t_dl, t_comm = s_work, s_dl, s_comm
            t_counts, t_seen = s_counts, s_left
        else:
            t_work = self._work.get(u, 0.0)
            t_dl = self._dl_rate.get(u, 0.0)
            t_comm = self._comm_mb.get(u, 0.0)
            t_counts, t_seen = self._dl_counts.get(u, {}), {}
        for i in ops:  # assign(i, u)
            unmapped.discard(i)
            t_work += tree[i].work
            for k in tree.unique_leaf(i):
                seen = t_seen[k] if k in t_seen else t_counts.get(k, 0)
                if seen == 0:
                    t_dl += rate(k)
                t_seen[k] = seen + 1
            for j, vol in tree.links(i):
                if j in unmapped:
                    t_comm += vol
                    continue
                v = u if j in group else assignment.get(j)
                if v is None:
                    t_comm += vol
                elif v == u:
                    t_comm -= vol
                else:
                    t_comm += vol
                    p = _pair(u, v)
                    mb = (pairs[p] if p in pairs else pair_mb.get(p)) or 0.0
                    pairs[p] = mb + vol

        if u == source:
            s_work, s_dl, s_comm = t_work, t_dl, t_comm
        rho = self.rho
        n_left = len(self._ops_on.get(source, ())) - len(moving)
        return MoveProbe(
            source=source,
            target=u,
            source_compute=rho * s_work,
            source_nic=s_dl + rho * s_comm,
            source_empty=n_left == 0 and u != source,
            target_compute=rho * t_work,
            target_nic=t_dl + rho * t_comm,
            pairs=pairs,
        )


def standalone_requirement(
    instance: ProblemInstance, ops: Iterable[int]
) -> tuple[float, float]:
    """Load of the operator group ``ops`` if placed alone on one empty
    processor, every neighbour outside the group assumed remote.

    Returns ``(work_ops_per_s, nic_mbps)`` — the quantities compared
    against a candidate :class:`~repro.platform.catalog.ProcessorSpec`
    when a heuristic asks "can any machine host this group at throughput
    ρ?".  Distinct objects are counted once (one download per object per
    processor).
    """
    tree = instance.tree
    group = set(ops)
    if not group:
        return 0.0, 0.0
    work = sum(tree[i].work for i in group) * instance.rho
    objects = tree.leaf_set(group)
    bw = sum(instance.rate(k) for k in objects)
    for i in group:
        for j in tree.neighbors(i):
            if j not in group:
                bw += instance.rho * tree.comm_volume(i, j)
    return work, bw
