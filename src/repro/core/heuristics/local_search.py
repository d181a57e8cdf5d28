"""Local-search refinement of placements (reproduction extension).

The paper stops at constructive heuristics; the natural next step —
and a useful yardstick for how much of the optimality gap is "easy" —
is hill-climbing over the placement with the two moves its cost
structure suggests:

* **relocate**: move one operator to another purchased machine (or a
  fresh one), when that lowers the post-downgrade platform cost — e.g.
  re-uniting a cut edge lets both machines shed NIC upgrades;
* **merge**: move one machine's entire operator set onto another and
  sell the donor — the dominant saving, since every machine carries the
  $7,548 chassis.

Cost is always evaluated *post-downgrade*: a machine's price is the
cheapest catalog configuration covering its load, which is exactly what
phase 3 will pay.  Feasibility (including the pairwise link budgets)
is maintained at every step via the incremental
:class:`~repro.core.loads.LoadTracker`, so the refined placement drops
into the standard pipeline unchanged.  Each candidate move is priced by
:meth:`~repro.core.loads.LoadTracker.probe_move`, which leaves the
tracker untouched; only accepted moves are applied.

The search is deterministic (first-improvement over a fixed scan
order), terminates in O(#improvements) passes each O(n·m) probes, and
never worsens the incumbent — properties the tests pin down.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...errors import PlacementError
from ...platform.catalog import ProcessorSpec
from ..problem import ProblemInstance
from .base import PlacementContext, PlacementOutcome

__all__ = ["RefinementReport", "refine_placement"]


@dataclass(frozen=True)
class RefinementReport:
    """What the local search achieved."""

    cost_before: float
    cost_after: float
    relocations: int
    merges: int
    passes: int

    @property
    def improvement(self) -> float:
        if self.cost_before <= 0:
            return 0.0
        return 1.0 - self.cost_after / self.cost_before


class _Refiner:
    def __init__(self, instance: ProblemInstance,
                 outcome: PlacementOutcome) -> None:
        self.instance = instance
        self.catalog = instance.catalog
        self.builder = outcome.builder
        self.tracker = outcome.tracker
        # uid -> machine_cost; a move changes only its two machines' loads
        self._costs: dict[int, float] = {}

    # -- cost model ------------------------------------------------------
    def machine_spec(self, uid: int) -> ProcessorSpec | None:
        """Cheapest configuration covering ``uid``'s current load."""
        if not self.tracker.operators_on(uid):
            return None
        return self.catalog.cheapest_satisfying(
            self.tracker.compute_load(uid), self.tracker.nic_load(uid)
        )

    def machine_cost(self, uid: int) -> float:
        cost = self._costs.get(uid)
        if cost is None:
            spec = self.machine_spec(uid)
            cost = self._costs[uid] = (
                float("inf") if spec is None else spec.cost
            )
        return cost

    def load_cost(self, compute: float, nic: float) -> float:
        """Price of the cheapest configuration covering a load."""
        spec = self.catalog.cheapest_satisfying(compute, nic)
        return float("inf") if spec is None else spec.cost

    def total_cost(self) -> float:
        return sum(
            self.machine_cost(uid) for uid in self.builder.uids
            if self.tracker.operators_on(uid)
        )

    # -- moves --------------------------------------------------------------
    # Each move is priced by a tracker probe; only an accepted move
    # touches the tracker.
    def try_relocate(self, i: int, v: int) -> bool:
        """Move operator ``i`` to machine ``v`` if it lowers cost."""
        u = self.tracker.processor_of(i)
        assert u is not None
        if u == v:
            return False
        before = self.machine_cost(u) + self.machine_cost(v)
        probe = self.tracker.probe_move((i,), v)
        after_u = (
            0.0 if probe.source_empty
            else self.load_cost(probe.source_compute, probe.source_nic)
        )
        after = after_u + self.load_cost(probe.target_compute,
                                         probe.target_nic)
        if not (after < before - 1e-9 and self.tracker.links_ok_after(probe)):
            return False
        self.tracker.move(i, v)
        del self._costs[u], self._costs[v]
        if probe.source_empty:
            self.builder.sell(u)
        self._sync_spec(v)
        if u in self.builder:
            self._sync_spec(u)
        return True

    def _sync_spec(self, uid: int) -> None:
        """Re-spec a machine so its purchased configuration covers its
        (possibly increased) load — the pipeline's downgrade phase only
        ever shrinks specs, so the refiner must keep them sufficient."""
        spec = self.machine_spec(uid)
        assert spec is not None, "accepted moves keep machines coverable"
        if spec.cost != self.builder.get(uid).spec.cost:
            self.builder.replace(uid, spec)

    def try_merge(self, donor: int, target: int) -> bool:
        """Move all of ``donor``'s operators onto ``target`` if cheaper."""
        if donor == target:
            return False
        ops = self.tracker.operators_on(donor)
        if not ops:
            return False
        before = self.machine_cost(donor) + self.machine_cost(target)
        probe = self.tracker.probe_move(ops, target)
        after = self.load_cost(probe.target_compute, probe.target_nic)
        if not (after < before - 1e-9 and self.tracker.links_ok_after(probe)):
            return False
        self.tracker.move_group(ops, target)
        del self._costs[donor], self._costs[target]
        self.builder.sell(donor)
        self._sync_spec(target)
        return True

    # -- driver -----------------------------------------------------------------
    def run(self, max_passes: int) -> RefinementReport:
        cost_before = self.total_cost()
        relocations = merges = passes = 0
        improved = True
        while improved and passes < max_passes:
            improved = False
            passes += 1
            # merges first: they carry the chassis saving
            for donor in list(self.builder.uids):
                if donor not in self.builder:
                    continue
                for target in list(self.builder.uids):
                    if target == donor or target not in self.builder:
                        continue
                    if self.try_merge(donor, target):
                        merges += 1
                        improved = True
                        break
            # single-operator relocations
            for i in sorted(self.tracker.assignment):
                for v in list(self.builder.uids):
                    if self.try_relocate(i, v):
                        relocations += 1
                        improved = True
                        break
        return RefinementReport(
            cost_before=cost_before,
            cost_after=self.total_cost(),
            relocations=relocations,
            merges=merges,
            passes=passes,
        )


def refine_placement(
    instance: ProblemInstance,
    outcome: PlacementOutcome,
    *,
    max_passes: int = 20,
) -> RefinementReport:
    """Hill-climb ``outcome`` in place; returns the improvement report.

    The outcome's tracker/builder are mutated; machines left empty are
    sold.  The refined placement remains Eq. 1/2/5-feasible at the
    *post-downgrade* specs (the pipeline's downgrade phase will realise
    the reported cost).
    """
    if not outcome.tracker.is_complete():
        raise PlacementError("refinement requires a complete placement")
    return _Refiner(instance, outcome).run(max_passes)
