"""Typed request/result objects — the service boundary of the library.

A request captures *everything* that determines a computation (inputs,
strategy names, seed, flags) as plain, picklable data, so the same
request object can be solved inline, shipped to a worker process, or
logged and replayed later.  A result wraps the underlying engine
output with provenance (backend, seed, timing) and structured failure
records instead of raised exceptions — a batch of 10k solves where 3 %
of instances are infeasible is a *result*, not a crash.

Four shapes:

* :class:`SolveRequest` → :class:`SolveResult` — one-shot allocation
  (single strategy or a portfolio);
* :class:`ReplayRequest` — one (trace, policy) dynamic replay, the
  unit the parallel policy-comparison campaign fans out over;
* :class:`SweepRequest` — a whole figure campaign (instances ×
  heuristics grid), materialised as data.

Strategy fields accept bare names (``"subtree-bottom-up"``) or
namespace-qualified references (``"placement:subtree-bottom-up"``) —
see :mod:`repro.api.registry`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from ..checks import _at_least, _boolean, _finite, _integer, _positive, _real
from ..core.pipeline import AllocationResult
from ..core.problem import ProblemInstance
from ..dynamic.replay import (
    DEFAULT_MIGRATION_COST,
    DEFAULT_MIGRATION_COST_PER_MB,
    DEFAULT_SALVAGE_FRACTION,
)
from ..dynamic.traces import TRACE_FACTORIES, WorkloadTrace, make_trace
from ..errors import did_you_mean
from ..methodology import ExperimentConfig, make_instance
from . import registry

__all__ = [
    "FailureRecord",
    "InstanceSpec",
    "ReplayRequest",
    "SolveRequest",
    "SolveResult",
    "SweepRequest",
]


def _check_ref(ref: str, expected_namespace: str) -> None:
    """Validate a strategy reference for one request field: it must
    resolve, and a qualified ref must live in the expected namespace
    (``strategy="policy:static"`` is a field mix-up, not a lookup)."""
    namespace, name = registry.parse(ref, expected_namespace)
    if namespace != expected_namespace:
        raise ValueError(
            f"strategy reference {ref!r} names a {namespace} strategy,"
            f" but this field takes {expected_namespace} strategies"
        )
    registry.resolve(namespace, name)


@dataclass(frozen=True)
class InstanceSpec:
    """A paper-methodology random instance, by recipe instead of value.

    Building the instance in the worker instead of pickling it over
    keeps batch requests tiny; :meth:`build` is deterministic in the
    spec, so a spec *is* its instance for reproducibility purposes.
    It draws through the campaign factory
    (:func:`repro.methodology.make_instance`) with no
    population index, ``seed`` as the master seed.
    """

    n_operators: int = 20
    alpha: float = 0.9
    seed: int = 0
    n_object_types: int = 15
    rho: float = 1.0

    def __post_init__(self) -> None:
        # ExperimentConfig's rules, checked here so a malformed spec is
        # a 400 at the service door instead of a 500 from the executor
        for name in ("n_operators", "n_object_types"):
            _at_least(self, name, 1, _integer)
        _integer(self, "seed")
        _at_least(self, "alpha", 0, _finite)
        _positive(self, "rho", _finite)

    def build(self) -> ProblemInstance:
        config = ExperimentConfig(
            n_operators=self.n_operators,
            alpha=self.alpha,
            n_object_types=self.n_object_types,
            rho=self.rho,
            master_seed=self.seed,
        )
        return make_instance(
            config,
            name=f"quick(n={self.n_operators}, alpha={self.alpha},"
                 f" seed={self.seed})",
        )


@dataclass(frozen=True)
class FailureRecord:
    """One strategy's failure inside a solve, as data."""

    strategy: str
    stage: str  # "placement" | "server-selection" | ... | "time-budget"
    error_type: str  # exception class name from repro.errors
    message: str
    #: The engine exception's ``detail`` payload, when it survives
    #: pickling (the verifier report an AllocationError carries).
    detail: object | None = None

    def to_exception(self) -> Exception:
        """Rebuild the engine's raisable exception (used by
        :meth:`SolveResult.raise_for_failure`)."""
        from .. import errors

        cls = getattr(errors, self.error_type, None)
        if not (isinstance(cls, type) and issubclass(cls, Exception)):
            cls = errors.AllocationError
        if issubclass(cls, errors.AllocationError):
            return cls(self.message, detail=self.detail)
        return cls(self.message)


@dataclass(frozen=True)
class SolveRequest:
    """Everything needed to produce one allocation.

    Exactly one of ``instance`` / ``spec`` must be given.  When
    ``portfolio`` is set it overrides ``strategy``: all members run
    (fanned out in parallel when the executor allows) and the cheapest
    feasible result wins, ties broken by member order.
    """

    instance: ProblemInstance | None = None
    spec: InstanceSpec | None = None
    strategy: str = "subtree-bottom-up"
    portfolio: tuple[str, ...] | None = None
    server: str | None = None  # None → registry.default_server_for
    downgrade: bool = True
    #: ``True`` inserts the default "local-search" refinement phase; a
    #: string picks a strategy from the registry's ``refine`` namespace.
    refine: bool | str = False
    #: ``None`` draws fresh OS entropy; the drawn value is recorded in
    #: ``SolveResult.seed`` so the run stays replayable either way.
    seed: int | None = None
    #: Soft wall-clock budget for the whole request: portfolio members
    #: not *started* before it expires are recorded as "time-budget"
    #: failures.  Best-effort — enforcement granularity is one member —
    #: and inherently timing-dependent, so budgeted requests are
    #: excluded from the bit-identical serial/parallel guarantee.
    time_budget_s: float | None = None
    label: str = ""
    #: Price offered for a queue slot when submitted to an overloaded
    #: allocation service: a higher-SLA-tier tenant's bid can preempt
    #: queued lower-tier work (the victim is credited the bid).  Inert
    #: outside the service — the solver itself never reads it.
    bid: float | None = None
    #: Telemetry correlation id (see :mod:`repro.telemetry`): spans
    #: produced while this request travels broker → executor → worker
    #: all carry it, so one submit stitches into one trace.  Excluded
    #: from equality — two requests that compute the same thing *are*
    #: the same request (cache keys, round-trip tests) regardless of
    #: who is watching.
    trace_id: str | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if (self.instance is None) == (self.spec is None):
            raise ValueError(
                "exactly one of instance= or spec= must be given"
            )
        if self.instance is not None and not isinstance(
            self.instance, ProblemInstance
        ):
            raise TypeError(
                f"instance must be a ProblemInstance, got"
                f" {type(self.instance).__name__} (pass an InstanceSpec"
                f" as spec=)"
            )
        if self.portfolio is not None:
            members = tuple(self.portfolio)
            if not members:
                raise ValueError("portfolio must name at least one strategy")
            object.__setattr__(self, "portfolio", members)
        # fail fast on typos (with per-namespace suggestions) instead of
        # deep inside a worker process
        for ref in self.strategies:
            _check_ref(ref, "placement")
        if self.server is not None:
            _check_ref(self.server, "server")
        if isinstance(self.refine, str):
            _check_ref(self.refine, "refine")
        if self.seed is not None:  # numpy seeds the solve with it
            _at_least(self, "seed", 0, _integer)
        if self.bid is not None:
            _at_least(self, "bid", 0, _finite)
        if self.time_budget_s is not None:
            _at_least(self, "time_budget_s", 0)

    @property
    def strategies(self) -> tuple[str, ...]:
        """The placement strategies this request will try, in order."""
        return self.portfolio if self.portfolio else (self.strategy,)

    def resolve_instance(self) -> ProblemInstance:
        return self.instance if self.instance is not None else self.spec.build()

    def describe(self) -> str:
        target = (
            self.instance.name or "<instance>"
            if self.instance is not None
            else f"spec(n={self.spec.n_operators}, alpha={self.spec.alpha},"
                 f" seed={self.spec.seed})"
        )
        return f"solve[{'|'.join(self.strategies)}] on {target}"


@dataclass(frozen=True)
class SolveResult:
    """A solve outcome with provenance: the winning
    :class:`~repro.core.pipeline.AllocationResult` (or ``None``),
    per-strategy failure records, timing, backend, and effective
    seed."""

    request: SolveRequest
    result: AllocationResult | None
    failures: tuple[FailureRecord, ...] = ()
    elapsed_s: float = 0.0
    backend: str = "serial"
    seed: int | None = None

    @property
    def ok(self) -> bool:
        return self.result is not None

    @property
    def allocation(self):
        return self.result.allocation if self.result else None

    @property
    def cost(self) -> float:
        if self.result is None:
            raise ValueError(f"request failed: {self.failure_summary()}")
        return self.result.cost

    @property
    def n_processors(self) -> int | None:
        return self.result.n_processors if self.result else None

    @property
    def heuristic(self) -> str | None:
        """Name of the winning placement strategy."""
        return self.result.heuristic if self.result else None

    def failure_summary(self) -> str:
        return "; ".join(
            f"{f.strategy}: {f.message}" for f in self.failures
        ) or "no failures recorded"

    def raise_for_failure(self) -> None:
        """Raise the (reconstructed) engine exception on failure.

        With a single failure the original exception type/message is
        rebuilt; a fully failed portfolio raises
        :class:`~repro.errors.PlacementError` with the per-member
        breakdown.
        """
        if self.ok:
            return
        if len(self.failures) == 1 and self.request.portfolio is None:
            raise self.failures[0].to_exception()
        from ..errors import PlacementError

        detail = {f.strategy: f.message for f in self.failures}
        raise PlacementError(
            "every portfolio member failed: "
            + "; ".join(f"{k}: {v}" for k, v in detail.items()),
            detail=detail,
        )

    def to_dict(self) -> dict:
        """JSON-able summary (no allocation dump).  ``trace_id``
        appears only on traced requests, keeping untraced output
        byte-identical to the pre-telemetry format."""
        out = {
            "ok": self.ok,
            "cost": self.result.cost if self.ok else None,
            "n_processors": self.n_processors,
            "heuristic": self.heuristic,
            "server_strategy": (
                self.result.server_strategy if self.ok else None
            ),
            "elapsed_s": self.elapsed_s,
            "backend": self.backend,
            "seed": self.seed,
            "label": self.request.label,
            "failures": [
                {
                    "strategy": f.strategy,
                    "stage": f.stage,
                    "error_type": f.error_type,
                    "message": f.message,
                }
                for f in self.failures
            ],
        }
        if self.request.trace_id is not None:
            out["trace_id"] = self.request.trace_id
        return out


@dataclass(frozen=True)
class ReplayRequest:
    """One (trace, policy) dynamic replay — the parallel unit of the
    policy-comparison campaign."""

    trace: str | WorkloadTrace = "ramp"
    policy: str = "harvest"
    #: Trace seed, used only when ``trace`` is a family name.
    seed: int = 2009
    validate: bool = False
    n_results: int = 30
    migration_cost: float = DEFAULT_MIGRATION_COST
    salvage_fraction: float = DEFAULT_SALVAGE_FRACTION
    #: Max-min kernel for ``validate=True`` simulator runs: ``"warm"``
    #: (default; the production kernel) or the ``"naive"`` reference
    #: oracle (bit-identical; the benchmarks race them).
    sim_kernel: str = "warm"
    #: Warm-up-aware validation: extend each validated epoch's run by
    #: the pipeline-fill transient and measure the achieved rate only
    #: past it (see :func:`repro.dynamic.replay.pipeline_warmup_results`).
    #: Default off — the legacy fixed window.
    sim_warmup: bool = False
    #: Migration-cost model (``migration`` registry namespace):
    #: ``"flat"`` charges ``migration_cost`` per moved operator
    #: (bit-identical to the legacy pricing); ``"state-size"`` charges
    #: ``migration_cost_per_mb`` per MB of displaced operator state
    #: (subtree leaf mass) — moving the root costs the application,
    #: moving a leaf costs almost nothing.
    migration_model: str = "flat"
    migration_cost_per_mb: float = DEFAULT_MIGRATION_COST_PER_MB
    #: Simulate each reallocation *transition* (drain + state-transfer
    #: flows injected into the elastic flow network) and attach the
    #: measured throughput dip / drain time / SLA-violation seconds to
    #: the epoch as a TransitionRecord.  Default off.
    sim_transitions: bool = False
    #: Pricing scheme for contended machines (``pricing`` registry
    #: namespace, e.g. ``"proportional"``), consulted by market-aware
    #: policies.  ``None`` keeps the pre-market replay bit-identical.
    pricing: str | None = None
    #: Per-application budgets for the market settlement, as
    #: ``(app, budget)`` pairs (a mapping is accepted and normalised).
    #: ``None`` → every app settles on an unlimited account.
    tenant_budgets: "tuple[tuple[str, float], ...] | None" = None
    #: Telemetry correlation id (same contract as
    #: :attr:`SolveRequest.trace_id`: propagated, never computed with,
    #: excluded from equality).
    trace_id: str | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if isinstance(self.trace, str):
            if self.trace not in TRACE_FACTORIES:
                raise ValueError(
                    f"unknown trace {self.trace!r}"
                    f"{did_you_mean(self.trace, TRACE_FACTORIES)}"
                    f" (known: {', '.join(sorted(TRACE_FACTORIES))})"
                )
        elif not isinstance(self.trace, WorkloadTrace):
            raise TypeError(
                f"trace must be a trace family name or a WorkloadTrace,"
                f" got {type(self.trace).__name__}"
            )
        _integer(self, "seed")
        _at_least(self, "n_results", 1, _integer)
        for name in ("migration_cost", "migration_cost_per_mb"):
            _at_least(self, name, 0, _finite)
        if not 0 <= _real(self, "salvage_fraction") <= 1:  # NaN fails
            raise ValueError(
                f"salvage_fraction must be in [0, 1], got"
                f" {self.salvage_fraction}"
            )
        for name in ("validate", "sim_warmup", "sim_transitions"):
            _boolean(self, name)
        _check_ref(self.policy, "policy")
        _check_ref(self.migration_model, "migration")
        if self.pricing is not None:
            _check_ref(self.pricing, "pricing")
        if self.tenant_budgets is not None:
            pairs = (
                self.tenant_budgets.items()
                if isinstance(self.tenant_budgets, Mapping)
                else self.tenant_budgets
            )
            normalised = tuple(
                sorted((str(app), float(budget)) for app, budget in pairs)
            )
            for app, budget in normalised:
                if budget < 0:
                    raise ValueError(
                        f"budget of {app!r} must be >= 0, got {budget}"
                    )
            object.__setattr__(self, "tenant_budgets", normalised)
        # mirrors repro.simulator.engine.FLOW_KERNELS (cross-checked in
        # tests) — importing the simulator here would drag the whole
        # engine into every request construction, validated or not
        if self.sim_kernel not in ("warm", "naive"):
            raise ValueError(
                f"unknown sim_kernel {self.sim_kernel!r}; expected one"
                f" of ('warm', 'naive')"
            )

    def resolve_trace(self) -> WorkloadTrace:
        if isinstance(self.trace, WorkloadTrace):
            return self.trace
        return make_trace(self.trace, seed=self.seed)

    def describe(self) -> str:
        name = (
            self.trace if isinstance(self.trace, str) else self.trace.name
        )
        return f"replay[{self.policy}] on {name}"


@dataclass(frozen=True)
class SweepRequest:
    """A figure campaign as data: sweep points × heuristics over
    seeded instance populations.

    ``configs`` maps every sweep point to the
    :class:`~repro.methodology.ExperimentConfig` of its
    population, and ``heuristics`` (empty: all six, in the paper's
    order) are placement strategies.  Points are normalised to floats,
    and the request is checked here, at the door: every point needs
    exactly one config and every heuristic must resolve.  Each
    (point, instance, heuristic) cell is then a plain
    :class:`SolveRequest`
    (:func:`repro.experiments.runner.cell_request`).
    """

    name: str
    parameter: str
    x_values: tuple[float, ...]
    configs: Mapping[float, ExperimentConfig]
    heuristics: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        xs = tuple(float(x) for x in self.x_values)
        configs = {float(x): c for x, c in self.configs.items()}
        if set(configs) != set(xs):
            raise ValueError(
                f"sweep configs must cover exactly the x values:"
                f" missing {sorted(set(xs) - set(configs))},"
                f" unlisted {sorted(set(configs) - set(xs))}"
            )
        for ref in self.heuristics:
            _check_ref(ref, "placement")
        object.__setattr__(self, "x_values", xs)
        object.__setattr__(self, "configs", {x: configs[x] for x in xs})
        object.__setattr__(self, "heuristics", tuple(self.heuristics))
