"""The complete allocation pipeline (§4): placement → server selection
→ downgrade → verification.

"Each heuristic works in two steps: (i) an operator placement heuristic
determines the number of processors that should be acquired, and
decides which operators are assigned to which processors; (ii) a server
selection heuristic decides from which server each processor downloads
all needed basic objects" — followed by the downgrade step and, here,
a mandatory run of the five-constraint verifier so that a returned
:class:`~repro.core.mapping.Allocation` is *proven* feasible.

The paper pairs the Random placement with the random server selection
and every other placement with the three-loop selection; `allocate`
applies that pairing by default and lets callers override it (the
phase-ablation benchmark does).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..errors import AllocationError
from ..rng import make_rng
from .constraints import verify
from .downgrade import downgrade_processors
from .heuristics.base import PlacementHeuristic
from .heuristics.registry import make_heuristic
from .mapping import Allocation
from .problem import ProblemInstance
from .server_selection import ServerSelection
from .throughput import ThroughputAnalysis, max_throughput

__all__ = [
    "AllocationResult",
    "allocate",
    "default_server_selection",
]


@dataclass(frozen=True)
class AllocationResult:
    """A feasible allocation plus provenance and diagnostics."""

    allocation: Allocation
    heuristic: str
    server_strategy: str
    downgraded: bool
    elapsed_s: float
    throughput: ThroughputAnalysis
    #: Local-search report when ``refine=True`` was requested.
    refinement: object | None = None

    @property
    def cost(self) -> float:
        return self.allocation.cost

    @property
    def n_processors(self) -> int:
        return self.allocation.n_processors


def default_server_selection(heuristic_name: str) -> ServerSelection:
    """The paper's pairing: Random placement → random selection,
    everything else → the three-loop strategy (§4.2).

    Delegates to the unified registry
    (:func:`repro.api.registry.default_server_for`), so placements
    registered downstream with an explicit ``server=`` pairing are
    honoured here too.
    """
    from ..api import registry as unified

    return unified.make("server", unified.default_server_for(heuristic_name))


def allocate(
    instance: ProblemInstance,
    heuristic: PlacementHeuristic | str,
    *,
    server_strategy: ServerSelection | None = None,
    downgrade: bool = True,
    refine: bool | str = False,
    rng: np.random.Generator | int | None = None,
) -> AllocationResult:
    """Run the full pipeline and return a verified allocation.

    ``refine=True`` inserts the local-search phase (an extension over
    the paper's pipeline; see
    :mod:`repro.core.heuristics.local_search`) between placement and
    server selection; a string selects a refinement strategy from the
    unified registry's ``refine`` namespace instead of the default
    ``local-search``.

    Raises
    ------
    PlacementError, ServerSelectionError
        When the corresponding phase fails (the paper counts these as
        "no feasible mapping found" data points).
    AllocationError
        When the final verifier rejects the produced allocation — this
        would indicate a bug and is asserted against in tests.
    """
    if isinstance(heuristic, str):
        heuristic = make_heuristic(heuristic)
    if server_strategy is None:
        server_strategy = default_server_selection(heuristic.name)
    gen = make_rng(rng)

    start = time.perf_counter()
    outcome = heuristic.place(instance, rng=gen)
    refinement = None
    if refine:
        from ..api import registry as unified

        refiner = unified.make(
            "refine", refine if isinstance(refine, str) else "local-search"
        )
        refinement = refiner(instance, outcome)
    downloads = server_strategy.select(
        instance, outcome.tracker.assignment, rng=gen
    )
    did_downgrade = False
    if downgrade and len(instance.catalog) > 1:
        downgrade_processors(instance, outcome.builder, outcome.tracker,
                             downloads)
        did_downgrade = True
    elapsed = time.perf_counter() - start

    allocation = Allocation(
        instance=instance,
        processors=outcome.builder.processors,
        assignment=dict(outcome.tracker.assignment),
        downloads=downloads,
        provenance=heuristic.name,
    )
    report = verify(allocation)
    if not report.feasible:
        raise AllocationError(
            f"pipeline produced an infeasible allocation ({heuristic.name}"
            f" + {server_strategy.name}): {report.summary()}",
            detail=report,
        )
    return AllocationResult(
        allocation=allocation,
        heuristic=heuristic.name,
        server_strategy=server_strategy.name,
        downgraded=did_downgrade,
        elapsed_s=elapsed,
        throughput=max_throughput(allocation),
        refinement=refinement,
    )
