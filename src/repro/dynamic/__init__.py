"""Dynamic re-allocation: workload traces, online policies, replay.

The paper solves a *one-shot* operator-placement problem; its §6 future
work points at workloads that change over time — throughput targets
ramp, object refresh frequencies shift, servers churn, applications
arrive and depart.  This subsystem turns the one-shot solver into an
online system:

* :mod:`repro.dynamic.traces` — deterministic workload-trace
  generators: typed sequences of timestamped events mutating a
  :class:`~repro.core.problem.ProblemInstance`;
* :mod:`repro.dynamic.policies` — pluggable re-allocation policies
  (``static`` / ``resolve`` / ``harvest`` / ``trade``) behind a
  registry mirroring the heuristic registry;
* :mod:`repro.dynamic.repair` — the incremental repair planner that
  patches a running allocation instead of re-solving from scratch;
* :mod:`repro.dynamic.replay` — the replay driver walking a trace,
  invoking a policy per event, pricing reconfiguration, and optionally
  validating every epoch in the steady-state simulator;
* :mod:`repro.dynamic.transition` — migration-cost models (flat vs
  state-size) and the reconfiguration transition simulator that
  injects drain + state-transfer flows to measure mid-transition SLA
  dips.
"""

from .policies import (
    POLICY_FACTORIES,
    POLICY_ORDER,
    HarvestPolicy,
    ReallocationPolicy,
    ResolvePolicy,
    StaticPolicy,
    TradePolicy,
    all_policies,
    make_policy,
)
from .repair import (
    RepairCarry,
    RepairOutcome,
    match_operators,
    repair_allocation,
)
from .replay import (
    DEFAULT_MIGRATION_COST,
    DEFAULT_SALVAGE_FRACTION,
    EpochRecord,
    ReconcilePlan,
    ReconfigDelta,
    ReplayResult,
    reconcile,
    reconcile_plan,
)
from .transition import (
    DEFAULT_MIGRATION_COST_PER_MB,
    HEAVY_STATE_FRACTION,
    MIGRATION_MODELS,
    MigrationCostModel,
    MigrationMove,
    MigrationPricing,
    TransitionRecord,
    make_migration_model,
    simulate_transition,
)
from .traces import (
    TRACE_FACTORIES,
    TRACE_ORDER,
    TraceEvent,
    WorkloadTrace,
    churn_trace,
    diurnal_trace,
    frequency_shift_trace,
    make_trace,
    multi_app_trace,
    ramp_trace,
)

__all__ = [
    "DEFAULT_MIGRATION_COST",
    "DEFAULT_MIGRATION_COST_PER_MB",
    "DEFAULT_SALVAGE_FRACTION",
    "EpochRecord",
    "HEAVY_STATE_FRACTION",
    "HarvestPolicy",
    "MIGRATION_MODELS",
    "MigrationCostModel",
    "MigrationMove",
    "MigrationPricing",
    "POLICY_FACTORIES",
    "POLICY_ORDER",
    "ReallocationPolicy",
    "ReconcilePlan",
    "ReconfigDelta",
    "RepairCarry",
    "RepairOutcome",
    "ReplayResult",
    "ResolvePolicy",
    "StaticPolicy",
    "TRACE_FACTORIES",
    "TRACE_ORDER",
    "TraceEvent",
    "TradePolicy",
    "TransitionRecord",
    "WorkloadTrace",
    "all_policies",
    "churn_trace",
    "diurnal_trace",
    "frequency_shift_trace",
    "make_migration_model",
    "make_policy",
    "make_trace",
    "match_operators",
    "multi_app_trace",
    "ramp_trace",
    "reconcile",
    "reconcile_plan",
    "repair_allocation",
    "simulate_transition",
]
