"""Service-grade solver API: the single front door to the library.

Three layers:

* **Typed requests/results** (:mod:`repro.api.requests`) —
  :class:`SolveRequest` → :class:`SolveResult`,
  :class:`ReplayRequest`, :class:`SweepRequest`: every computation as
  plain picklable data with provenance on the way out.
* **One strategy registry** (:mod:`repro.api.registry`) — namespaced
  lookup (``placement:`` / ``server:`` / ``policy:`` / ``refine:``)
  with a :func:`register` decorator, covering the placement
  heuristics, the dynamic policies, and the placement→server
  pairing.
* **Pluggable execution** (:mod:`repro.api.executors`) —
  :class:`SerialExecutor` / :class:`ParallelExecutor` behind the
  :class:`Executor` protocol, with per-task seed derivation so results
  are bit-identical regardless of backend.

Quickstart::

    from repro.api import InstanceSpec, SolveRequest, solve, solve_many

    result = solve(SolveRequest(spec=InstanceSpec(n_operators=30,
                                                  alpha=1.5, seed=7)))
    print(result.cost, result.heuristic)

    batch = [SolveRequest(spec=InstanceSpec(seed=s), seed=s)
             for s in range(32)]
    results = solve_many(batch, executor=4)   # 4 worker processes

:func:`sweep` runs a :class:`SweepRequest` (a §5 figure campaign); it
is :func:`repro.experiments.runner.run_sweep`, bound on first use
because :mod:`repro.experiments` imports this package.
"""

from .executors import (
    Executor,
    ParallelExecutor,
    SerialExecutor,
    get_executor,
)
from .registry import (
    NAMESPACES,
    UnknownStrategyError,
    default_server_for,
    make,
    names,
    parse,
    register,
    resolve,
    set_server_pairing,
)
from .requests import (
    FailureRecord,
    InstanceSpec,
    ReplayRequest,
    SolveRequest,
    SolveResult,
    SweepRequest,
)
from .service import replay, replay_many, solve, solve_many
from .wire import (
    WireFormatError,
    request_from_wire,
    request_to_wire,
)

__all__ = [
    "Executor",
    "FailureRecord",
    "InstanceSpec",
    "NAMESPACES",
    "ParallelExecutor",
    "ReplayRequest",
    "SerialExecutor",
    "SolveRequest",
    "SolveResult",
    "SweepRequest",
    "UnknownStrategyError",
    "WireFormatError",
    "default_server_for",
    "get_executor",
    "make",
    "names",
    "parse",
    "register",
    "replay",
    "replay_many",
    "request_from_wire",
    "request_to_wire",
    "resolve",
    "set_server_pairing",
    "solve",
    "solve_many",
    "sweep",
]


def __getattr__(name: str):
    if name == "sweep":
        from ..experiments.runner import run_sweep

        return run_sweep
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
