"""Campaign execution: run heuristics over instance populations.

The paper's figures plot, for each heuristic, the mean platform cost
over a population of random instances at each sweep point, with points
omitted where no feasible mapping is found.  A figure is a
:class:`~repro.api.SweepRequest`; :func:`run_sweep` runs it (and is
:func:`repro.api.sweep`).  Each (instance, heuristic) cell is a plain
:class:`~repro.api.SolveRequest` (:func:`cell_request`) solved by
:func:`repro.api.solve`, so a failure is recorded per phase
(placement / server-selection) by the API's own failure mapping,
mirroring the paper's discussion of *where* heuristics fail (e.g.
Subtree-Bottom-Up failing in server selection on large objects).

``executor=`` (a worker count or :class:`repro.api.Executor`) fans the
cells out: the (instance, heuristic) grid is embarrassingly parallel,
every cell's seed is derived from its coordinates with
:func:`repro.rng.derive_seed`, and results are grouped back in input
order — so a parallel campaign is bit-identical to the serial one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from typing import Mapping

from ..api.executors import get_executor
from ..api.requests import SolveRequest, SweepRequest
from ..api.service import solve
from ..core.heuristics.registry import HEURISTIC_ORDER
from ..core.problem import ProblemInstance
from ..methodology import ExperimentConfig, make_instance
from ..rng import derive_seed
from ..telemetry import span

__all__ = [
    "InstanceOutcome",
    "CellResult",
    "SweepResult",
    "cell_request",
    "run_sweep",
]


@dataclass(frozen=True)
class InstanceOutcome:
    """One (instance, heuristic) run."""

    instance_index: int
    cost: float | None
    n_processors: int | None
    failure_stage: str | None  # None | "placement" | "server-selection" | ...
    elapsed_s: float

    @property
    def succeeded(self) -> bool:
        return self.cost is not None


@dataclass(frozen=True)
class CellResult:
    """All instances of one sweep point for one heuristic."""

    heuristic: str
    outcomes: tuple[InstanceOutcome, ...]

    @property
    def n_success(self) -> int:
        return sum(1 for o in self.outcomes if o.succeeded)

    @property
    def success_rate(self) -> float:
        return self.n_success / len(self.outcomes) if self.outcomes else 0.0

    @property
    def mean_cost(self) -> float:
        """Mean over successful runs — NaN when none succeeded (the
        paper leaves such points off the plot)."""
        costs = [o.cost for o in self.outcomes if o.cost is not None]
        return sum(costs) / len(costs) if costs else math.nan

    @property
    def mean_processors(self) -> float:
        ns = [o.n_processors for o in self.outcomes
              if o.n_processors is not None]
        return sum(ns) / len(ns) if ns else math.nan

    @property
    def failure_stages(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for o in self.outcomes:
            if o.failure_stage:
                out[o.failure_stage] = out.get(o.failure_stage, 0) + 1
        return out


@dataclass(frozen=True)
class SweepResult:
    """A full figure: one CellResult per (x value, heuristic)."""

    name: str
    parameter: str
    x_values: tuple[float, ...]
    heuristics: tuple[str, ...]
    cells: Mapping[tuple[float, str], CellResult]
    configs: Mapping[float, ExperimentConfig]

    def series(self, heuristic: str) -> list[tuple[float, float]]:
        """(x, mean cost) points with at least one success."""
        out = []
        for x in self.x_values:
            cell = self.cells[(x, heuristic)]
            if cell.n_success:
                out.append((x, cell.mean_cost))
        return out

    def feasibility_frontier(self, heuristic: str) -> float | None:
        """Largest x at which the heuristic still succeeds at least once
        (the paper's 'no feasible mapping beyond ...' statements)."""
        xs = [x for x, _ in self.series(heuristic)]
        return max(xs) if xs else None


@lru_cache(maxsize=256)
def _cached_instance(config: ExperimentConfig, index: int) -> ProblemInstance:
    """Instance generation is deterministic in (config, index) and costs
    about as much as one cell's solve, so each process (parent or pool
    worker) builds an instance once and reuses it across its heuristic
    cells."""
    return make_instance(config, index)


def cell_request(
    config: ExperimentConfig, index: int, heuristic: str
) -> SolveRequest:
    """The §5 cell (population member ``index``, ``heuristic``) as a
    plain solve request."""
    return SolveRequest(
        instance=_cached_instance(config, index),
        strategy=heuristic,
        seed=derive_seed(config.master_seed, "run", heuristic, index),
    )


def _run_cell(task: tuple[ExperimentConfig, int, str]) -> InstanceOutcome:
    """Solve one cell and fold it into an outcome.  Module-level so the
    process-pool backend can pickle it; the task ships the small config,
    and only the small outcome travels back."""
    config, index, heuristic = task
    solved = solve(cell_request(config, index, heuristic))
    ok = solved.ok
    return InstanceOutcome(
        instance_index=index,
        cost=solved.result.cost if ok else None,
        n_processors=solved.n_processors,
        failure_stage=None if ok else solved.failures[0].stage,
        elapsed_s=solved.result.elapsed_s if ok else 0.0,
    )


def run_sweep(request: SweepRequest, *, executor=None) -> SweepResult:
    """Run a figure campaign: every sweep point × heuristic × instance.

    The whole grid is flattened into one task list (x-major, then
    heuristic, then instance) so a parallel executor keeps every
    worker busy across sweep points, not just within one.
    """
    heuristics = request.heuristics or HEURISTIC_ORDER
    tasks = [
        (request.configs[x], i, h)
        for x in request.x_values
        for h in heuristics
        for i in range(request.configs[x].n_instances)
    ]
    executor = get_executor(executor)
    # one trace for the campaign: inline cells' solve spans join it
    # instead of each starting a trace that evicts older ones
    with span("api.sweep", sweep=request.name, backend=executor.name):
        outcomes = iter(executor.map(_run_cell, tasks))
    cells = {
        (x, h): CellResult(
            heuristic=h,
            outcomes=tuple(
                islice(outcomes, request.configs[x].n_instances)
            ),
        )
        for x in request.x_values
        for h in heuristics
    }
    return SweepResult(
        name=request.name,
        parameter=request.parameter,
        x_values=request.x_values,
        heuristics=tuple(heuristics),
        cells=cells,
        configs=request.configs,
    )
