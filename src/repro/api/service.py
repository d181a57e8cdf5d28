"""The service layer: solve / solve_many / replay / replay_many.

These functions are the library's front door.  Each takes typed
requests (:mod:`repro.api.requests`), runs the underlying engines
(:mod:`repro.core.pipeline`, :mod:`repro.dynamic.replay`) through a
pluggable execution backend (:mod:`repro.api.executors`), and returns
results with provenance.  :func:`solve` is also the one place where
engine exceptions become failure records with a stage: the §5 figure
campaigns (:func:`repro.api.sweep`, which is
:func:`repro.experiments.runner.run_sweep`) solve each of their cells
through it.

Determinism: per-task seeds are derived with
:func:`repro.rng.derive_seed` while *building* the task list, so a
batch produces bit-identical results under :class:`SerialExecutor`
and :class:`ParallelExecutor` (asserted by
``tests/api/test_executors.py``).  All task functions here are
module-level so they pickle into worker processes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace as _dc_replace
from typing import Iterable, Sequence

from ..core.pipeline import AllocationResult, allocate as _allocate_engine
from ..core.problem import ProblemInstance
from ..dynamic.replay import ReplayResult, _replay_engine
from ..errors import AllocationError, InfeasibleError
from ..rng import derive_seed, make_rng
from ..telemetry import span as _span
from . import registry
from .executors import Executor, get_executor
from .requests import (
    FailureRecord,
    ReplayRequest,
    SolveRequest,
    SolveResult,
)

__all__ = [
    "replay",
    "replay_many",
    "solve",
    "solve_many",
]


# ----------------------------------------------------------------------
# solve
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class _MemberTask:
    """One portfolio member, self-contained and picklable."""

    instance: ProblemInstance
    strategy: str
    server: str | None
    downgrade: bool
    refine: bool | str
    seed: int
    deadline: float | None  # absolute time.time() budget boundary


def _run_strategy(task: _MemberTask) -> "AllocationResult | FailureRecord":
    """Run one (instance, placement strategy) pipeline, capturing the
    engine's failure exceptions as data.  Module-level for pickling."""
    if task.deadline is not None and time.time() >= task.deadline:
        return FailureRecord(
            strategy=task.strategy, stage="time-budget",
            error_type="AllocationError",
            message="time budget exhausted before this member started",
        )
    _, placement = registry.parse(task.strategy, "placement")
    server_strategy = None
    if task.server is not None:
        _, server_name = registry.parse(task.server, "server")
        server_strategy = registry.make("server", server_name)
    try:
        return _allocate_engine(
            task.instance,
            placement,
            server_strategy=server_strategy,
            downgrade=task.downgrade,
            refine=task.refine,
            rng=task.seed,
        )
    except (AllocationError, InfeasibleError) as err:
        return FailureRecord(
            strategy=task.strategy,
            stage=getattr(err, "stage", type(err).__name__),
            error_type=type(err).__name__,
            message=str(err),
            detail=_portable_detail(getattr(err, "detail", None)),
        )


def _portable_detail(detail: object) -> object:
    """Keep an exception's detail payload only when it can travel back
    from a worker process (unpicklable payloads are dropped rather
    than crashing the pool)."""
    if detail is None:
        return None
    try:
        import pickle

        pickle.dumps(detail)
        return detail
    except Exception:
        return None


def _effective_seed(request: SolveRequest) -> int:
    """The request seed, or a fresh entropy draw when none was given —
    always recorded in ``SolveResult.seed`` so the run is replayable."""
    if request.seed is not None:
        return request.seed
    return int(make_rng(None).integers(0, 2**31 - 1))


def _member_tasks(request: SolveRequest, seed: int) -> list[_MemberTask]:
    """Expand a request into per-strategy tasks with derived seeds.

    Single-strategy requests use ``seed`` directly; portfolio members
    get independent streams derived from it
    (``derive_seed(seed, "portfolio", member)``).
    """
    instance = request.resolve_instance()
    deadline = (
        time.time() + request.time_budget_s
        if request.time_budget_s is not None
        else None
    )
    if request.portfolio is None:
        seeds = [seed]
    else:
        seeds = [
            derive_seed(seed, "portfolio",
                        registry.parse(name, "placement")[1])
            for name in request.strategies
        ]
    return [
        _MemberTask(
            instance=instance,
            strategy=name,
            server=request.server,
            downgrade=request.downgrade,
            refine=request.refine,
            seed=seed,
            deadline=deadline,
        )
        for name, seed in zip(request.strategies, seeds)
    ]


def _reduce_members(
    request: SolveRequest,
    outcomes: Sequence["AllocationResult | FailureRecord"],
    *,
    elapsed_s: float,
    backend: str,
    seed: int,
) -> SolveResult:
    """Pick the cheapest feasible member (ties → earliest member)."""
    best: AllocationResult | None = None
    failures: list[FailureRecord] = []
    for outcome in outcomes:
        if isinstance(outcome, FailureRecord):
            failures.append(outcome)
        elif best is None or outcome.cost < best.cost - 1e-9:
            best = outcome
    return SolveResult(
        request=request,
        result=best,
        failures=tuple(failures),
        elapsed_s=elapsed_s,
        backend=backend,
        seed=seed,
    )


def solve(
    request: SolveRequest,
    *,
    executor: "int | Executor | None" = None,
) -> SolveResult:
    """Solve one request; portfolio members fan out over ``executor``.

    Also the unit :func:`solve_many` fans out (one request per task,
    each solved inline in its worker)."""
    executor = get_executor(executor)
    with _span(
        "api.solve", trace_id=request.trace_id,
        strategies="|".join(request.strategies), backend=executor.name,
    ) as sp:
        start = time.perf_counter()
        seed = _effective_seed(request)
        outcomes = executor.map(_run_strategy, _member_tasks(request, seed))
        result = _reduce_members(
            request, outcomes,
            elapsed_s=time.perf_counter() - start, backend=executor.name,
            seed=seed,
        )
        sp.set("ok", result.ok).set("seed", seed)
        return result


def solve_many(
    requests: Iterable[SolveRequest],
    *,
    executor: "int | Executor | None" = None,
) -> list[SolveResult]:
    """Solve a batch of requests, one task per request, in input order.

    Failures are returned inside each :class:`SolveResult` — a batch
    never raises because one instance is infeasible.
    """
    executor = get_executor(executor)
    results = executor.map(solve, list(requests))
    if executor.name == "serial":
        return results
    return [
        # a distributed backend resolves a poisoned task's slot to a
        # bare FailureRecord — only real results carry provenance
        _dc_replace(r, backend=executor.name)
        if isinstance(r, SolveResult) else r
        for r in results
    ]


# ----------------------------------------------------------------------
# replay
# ----------------------------------------------------------------------

def replay(request: ReplayRequest) -> ReplayResult:
    """Replay one (trace, policy) pair — the typed front door to
    :mod:`repro.dynamic`, and the unit :func:`replay_many` fans out."""
    with _span(
        "api.replay", trace_id=request.trace_id,
        policy=request.policy, kernel=request.sim_kernel,
    ):
        return _replay_engine(
            request.resolve_trace(),
            request.policy,
            validate=request.validate,
            n_results=request.n_results,
            migration_cost=request.migration_cost,
            salvage_fraction=request.salvage_fraction,
            sim_kernel=request.sim_kernel,
            sim_warmup=request.sim_warmup,
            migration_model=request.migration_model,
            migration_cost_per_mb=request.migration_cost_per_mb,
            sim_transitions=request.sim_transitions,
            pricing=request.pricing,
            tenant_budgets=request.tenant_budgets,
        )


def replay_many(
    requests: Iterable[ReplayRequest],
    *,
    executor: "int | Executor | None" = None,
) -> list[ReplayResult]:
    """Replay a batch of (trace, policy) pairs, in input order.

    Replays are independent (each derives its epoch seeds from its own
    trace seed), so this closes the ROADMAP's "scale the replay loop"
    item: the policy-comparison campaign fans its |policies| ×
    |traces| replays over the executor.
    """
    executor = get_executor(executor)
    return executor.map(replay, list(requests))
