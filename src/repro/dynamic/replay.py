"""Replay driver: walk a trace, invoke a policy, price reconfiguration.

The replay engine (reached through :func:`repro.api.replay`) runs one
:class:`~repro.dynamic.traces.WorkloadTrace` under one
:class:`~repro.dynamic.policies.ReallocationPolicy` and returns a
:class:`ReplayResult` time series.  Each epoch is priced by
*reconciling* the previous platform with the new one:

* processors are matched by uid first, then leftover uids pair up by
  identical spec (so a from-scratch re-solver that happens to rebuild
  the same machines is not charged for renumbering them);
* unmatched new machines are purchased at full catalog cost; unmatched
  old machines are decommissioned for a salvage refund
  (``salvage_fraction`` × cost — constructive hardware resells below
  list price, rented capacity refunds unused commitment);
* a machine re-specced in place is a trade-in: upgrades pay the cost
  difference, downgrades refund the salvage fraction of it (an
  in-place re-spec moves no operator state, so it never counts as a
  migration);
* every operator whose (matched) processor changed is one migration,
  priced by the configured
  :class:`~repro.dynamic.transition.MigrationCostModel`: ``flat``
  charges ``migration_cost`` per operator (the legacy pricing, default)
  while ``state-size`` charges ``migration_cost_per_mb × state_mb(i)``
  with the state derived from subtree leaf mass — moving the root
  displaces the whole application's state, moving a leaf almost none.

Leftover machines of equal spec are paired to *maximise preserved
operator assignments* (an exact max-weight matching per spec pool), so
two interchangeable machines whose operators swapped homes in the
re-solve are recognised as renamed rather than billed as migrations.

Cumulative platform cost is therefore  *initial purchase + Σ epoch
reconfiguration*, the quantity the policy-comparison experiments plot.

With ``sim_transitions=True`` each reallocation step is additionally
*executed*: the step's drain + state-transfer flows are injected into
the steady-state simulator (elastic policy, batched per step) and the
measured throughput dip, drain time, and SLA-violation seconds land in
the epoch's :class:`~repro.dynamic.transition.TransitionRecord` — the
mid-transition behaviour steady-state validation cannot see.

Each epoch's allocation is re-verified against Eq. 1–5 (violations are
*data* here, not errors — the ``static`` baseline is expected to
violate once the workload drifts), and optionally validated end-to-end
in the steady-state simulator under the reserved flow policy, counting
throughput violations and download-deadline misses.  Validation runs
are memoised for the length of one replay call, keyed on everything
the simulator reads (:func:`_simulation_key`): a trace that returns to
a platform it already validated (servers toggling back, ρ walking
back) reuses the run instead of simulating it again.  The simulator is
deterministic, so the memo changes no output.

Determinism: given the same trace (same seed) and policy, the whole
:class:`ReplayResult` — including its JSON rendering — is bit-identical
across runs; the test suite asserts this.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

from ..core.constraints import verify
from ..core.mapping import Allocation
from ..errors import AllocationError
from ..rng import derive_seed
from .policies import ReallocationPolicy, make_policy
from .repair import match_operators
from .traces import WorkloadTrace
from .transition import (
    DEFAULT_MIGRATION_COST,
    DEFAULT_MIGRATION_COST_PER_MB,
    DEFAULT_SALVAGE_FRACTION,
    MigrationCostModel,
    MigrationMove,
    MigrationPricing,
    TransitionRecord,
    simulate_transition,
)

__all__ = [
    "DEFAULT_MIGRATION_COST",
    "DEFAULT_MIGRATION_COST_PER_MB",
    "DEFAULT_SALVAGE_FRACTION",
    "EpochRecord",
    "ReconcilePlan",
    "ReconfigDelta",
    "ReplayResult",
    "pipeline_warmup_results",
    "reconcile",
    "reconcile_plan",
]

#: Pipeline depths the fill transient is allowed to persist for before
#: the warm-up-aware window starts measuring (empirically the ramp
#: trace's peak epochs show fill-queue drain jitter for 3–4 depths).
_WARMUP_DEPTHS: int = 4


def pipeline_warmup_results(alloc: Allocation) -> int:
    """Completions to treat as pipeline fill for ``alloc``'s tree:
    :data:`_WARMUP_DEPTHS` × the number of pipeline stages (tree height
    + 1).  Used by warm-up-aware validation (``sim_warmup=True``)."""
    return _WARMUP_DEPTHS * (alloc.instance.tree.height + 1)


def _simulation_key(alloc: Allocation, warmup: int) -> tuple:
    """Everything a validation run of ``alloc`` reads, as a memo key
    (the run's count and kernel are fixed for one replay).  The tree is
    keyed by identity, so the memo entry must keep the tree alive.
    Processors and downloads keep their order: the simulator launches
    the first refreshes in download order, all at ``t = 0``."""
    inst = alloc.instance
    net = inst.network
    return (
        id(inst.tree),
        inst.rho,
        tuple((p.uid, p.speed_ops, p.nic_mbps) for p in alloc.processors),
        tuple(sorted(alloc.assignment.items())),
        tuple(alloc.downloads.items()),
        tuple((l, inst.farm[l].nic_mbps) for l in inst.farm.uids),
        net.processor_link_mbps,
        net.server_link_mbps,
        tuple(sorted(net.server_link_overrides.items())),
        warmup,
    )


@dataclass(frozen=True)
class ReconfigDelta:
    """Priced difference between two consecutive platforms."""

    purchase_cost: float
    salvage_credit: float
    migration_cost: float
    n_migrations: int
    n_purchases: int
    n_decommissions: int
    n_respecs: int

    @property
    def total(self) -> float:
        return self.purchase_cost - self.salvage_credit + self.migration_cost


#: Exact-pairing size limit per spec pool: beyond this many *relevant*
#: machines on the smaller side, the matching falls back to a greedy
#: heaviest-edge pass (pools this large never occur in practice).
_PAIRING_EXACT_LIMIT = 16


def _max_weight_pairs(
    a_side: list[int], b_side: list[int], weight: dict[tuple[int, int], int]
) -> dict[int, int]:
    """Deterministic maximum-weight bipartite matching of two small
    machine pools, weights = preserved operator assignments.  Exact
    (bitmask DP over the smaller side) up to
    :data:`_PAIRING_EXACT_LIMIT`, greedy heaviest-edge beyond."""
    transposed = len(b_side) > len(a_side)
    if transposed:
        a_side, b_side = b_side, a_side
        weight = {(b, a): w for (a, b), w in weight.items()}
    if len(b_side) > _PAIRING_EXACT_LIMIT:
        edges = sorted(
            ((a, b) for a in a_side for b in b_side
             if weight.get((a, b), 0) > 0),
            key=lambda ab: (-weight[ab], ab),
        )
        pairs: dict[int, int] = {}
        used_b: set[int] = set()
        for a, b in edges:
            if a not in pairs and b not in used_b:
                pairs[a] = b
                used_b.add(b)
        return ({v: u for u, v in pairs.items()} if transposed else pairs)

    from functools import lru_cache

    @lru_cache(maxsize=None)
    def best(i: int, mask: int) -> int:
        if i == len(a_side):
            return 0
        score = best(i + 1, mask)  # a_side[i] pairs with a 0-weight slot
        for j, b in enumerate(b_side):
            if mask & (1 << j):
                continue
            w = weight.get((a_side[i], b), 0)
            if w > 0:
                score = max(score, w + best(i + 1, mask | (1 << j)))
        return score

    pairs = {}
    mask = 0
    for i, a in enumerate(a_side):
        target = best(i, mask)
        chosen = None
        for j, b in enumerate(b_side):
            if mask & (1 << j):
                continue
            w = weight.get((a, b), 0)
            if w > 0 and w + best(i + 1, mask | (1 << j)) == target:
                chosen = (j, b)
                break
        if chosen is not None:
            pairs[a] = chosen[1]
            mask |= 1 << chosen[0]
    return ({v: u for u, v in pairs.items()} if transposed else pairs)


def _pair_spec_pool(
    old_pool: list[int],
    new_pool: list[int],
    weight: dict[tuple[int, int], int],
) -> dict[int, int]:
    """Pair as many equal-spec leftover machines as possible, choosing
    the pairing that preserves the most operator assignments.

    The legacy pairing popped both pools in ascending-uid order, which
    could pair a decommissioned machine with a purchased one that none
    of its operators moved to — billing migrations a different same-spec
    pairing avoids entirely.  Machines carrying no preserved operators
    are interchangeable, so they zip in ascending order exactly like
    before (same pair count, same money — pairing same-spec machines is
    always free either way).
    """
    n_pairs = min(len(old_pool), len(new_pool))
    rel_old = [
        u for u in old_pool
        if any(weight.get((u, v), 0) for v in new_pool)
    ]
    rel_new = [
        v for v in new_pool
        if any(weight.get((u, v), 0) for u in old_pool)
    ]
    pairs: dict[int, int] = {}
    if rel_old and rel_new:
        pairs = _max_weight_pairs(rel_old, rel_new, weight)
    rest_old = [u for u in old_pool if u not in pairs]
    used_new = set(pairs.values())
    rest_new = [v for v in new_pool if v not in used_new]
    for u, v in zip(rest_old, rest_new):
        if len(pairs) >= n_pairs:
            break
        pairs[u] = v
    return pairs


@dataclass(frozen=True)
class ReconcilePlan:
    """The structural diff between two consecutive platforms, before
    any migration-cost model is applied: machine identity, money for
    hardware, and the full list of operator moves with their displaced
    state — everything :meth:`price` and the transition simulator
    need."""

    uid_map: dict  # old uid -> new uid (matched machines)
    moves: tuple[MigrationMove, ...]
    purchase_cost: float
    salvage_credit: float
    n_purchases: int
    n_decommissions: int
    n_respecs: int
    #: Whole-application state (old-tree root leaf mass, MB) — the
    #: denominator for the *heavy operator* classification.
    total_state_mb: float

    @property
    def state_moved_mb(self) -> float:
        return sum(m.state_mb for m in self.moves)

    @property
    def n_heavy_moves(self) -> int:
        return sum(1 for m in self.moves if m.heavy(self.total_state_mb))

    def price(self, model: MigrationCostModel) -> ReconfigDelta:
        """Apply a migration-cost model to the plan's moves."""
        if getattr(model, "name", None) == "flat":
            # multiply, don't sum: repeated float addition of a price
            # like 0.1 drifts off `price × n`, and the flat model is
            # contractually bit-identical to the legacy pricing
            migration = model.cost_per_migration * len(self.moves)
        else:
            migration = sum(
                (model.price_state(m.state_mb) for m in self.moves), 0.0
            )
        return ReconfigDelta(
            purchase_cost=self.purchase_cost,
            salvage_credit=self.salvage_credit,
            migration_cost=migration,
            n_migrations=len(self.moves),
            n_purchases=self.n_purchases,
            n_decommissions=self.n_decommissions,
            n_respecs=self.n_respecs,
        )


def reconcile_plan(
    old: Allocation,
    new: Allocation,
    *,
    salvage_fraction: float = DEFAULT_SALVAGE_FRACTION,
) -> ReconcilePlan:
    """Reconcile machine identity between ``old`` and ``new`` and list
    every operator migration (with displaced state), unpriced."""
    old_procs = old.processor_map
    new_procs = new.processor_map
    omatch = match_operators(old.instance.tree, new.instance.tree)

    # -- processor identity: uid match first -----------------------------
    uid_map: dict[int, int] = {}  # old uid -> new uid
    purchase = salvage = 0.0
    n_respecs = 0
    for u in sorted(set(old_procs) & set(new_procs)):
        uid_map[u] = u
        delta = new_procs[u].cost - old_procs[u].cost
        if delta > 0:
            purchase += delta
            n_respecs += 1
        elif delta < 0:
            salvage += salvage_fraction * (-delta)
            n_respecs += 1
    old_only = [u for u in sorted(old_procs) if u not in new_procs]
    new_only = [v for v in sorted(new_procs) if v not in old_procs]

    # -- leftover machines: pair equal specs, preserving assignments ----
    old_only_set = set(old_only)
    new_only_set = set(new_only)
    weight: dict[tuple[int, int], int] = {}
    for i_old, i_new in omatch.items():
        u = old.assignment.get(i_old)
        v = new.assignment.get(i_new)
        if (
            u in old_only_set
            and v in new_only_set
            and old_procs[u].spec == new_procs[v].spec
        ):
            weight[u, v] = weight.get((u, v), 0) + 1
    by_spec_old: dict[object, list[int]] = {}
    for u in old_only:
        by_spec_old.setdefault(old_procs[u].spec, []).append(u)
    by_spec_new: dict[object, list[int]] = {}
    for v in new_only:
        by_spec_new.setdefault(new_procs[v].spec, []).append(v)
    for spec, old_pool in by_spec_old.items():
        new_pool = by_spec_new.get(spec)
        if new_pool:
            uid_map.update(_pair_spec_pool(old_pool, new_pool, weight))
    paired_new = set(uid_map.values())
    unmatched_new = [v for v in new_only if v not in paired_new]
    unmatched_old = [u for u in old_only if u not in uid_map]
    purchase += sum(new_procs[v].cost for v in unmatched_new)
    salvage += salvage_fraction * sum(
        old_procs[u].cost for u in unmatched_old
    )

    # -- migrations: matched operators whose machine changed -------------
    old_tree = old.instance.tree
    moves: list[MigrationMove] = []
    for i_old, i_new in sorted(omatch.items()):
        u_old = old.assignment.get(i_old)
        u_new = new.assignment.get(i_new)
        if u_old is None or u_new is None:
            continue
        if uid_map.get(u_old) != u_new:
            moves.append(
                MigrationMove(
                    old_index=i_old,
                    new_index=i_new,
                    from_uid=u_old,
                    to_uid=u_new,
                    state_mb=old_tree.leaf_mass(i_old),
                    drain_mb=old_tree[i_old].output_mb,
                )
            )

    return ReconcilePlan(
        uid_map=uid_map,
        moves=tuple(moves),
        purchase_cost=purchase,
        salvage_credit=salvage,
        n_purchases=len(unmatched_new),
        n_decommissions=len(unmatched_old),
        n_respecs=n_respecs,
        total_state_mb=old_tree.leaf_mass(old_tree.root),
    )


def reconcile(
    old: Allocation,
    new: Allocation,
    *,
    migration_cost: float = DEFAULT_MIGRATION_COST,
    salvage_fraction: float = DEFAULT_SALVAGE_FRACTION,
    model: MigrationCostModel | None = None,
) -> ReconfigDelta:
    """Price the reconfiguration turning platform ``old`` into ``new``.

    ``model`` selects the migration-cost model; ``None`` keeps the
    legacy flat pricing at ``migration_cost`` $/operator.
    """
    if model is None:
        model = MigrationCostModel(
            name="flat", cost_per_migration=migration_cost
        )
    return reconcile_plan(
        old, new, salvage_fraction=salvage_fraction
    ).price(model)


@dataclass(frozen=True)
class EpochRecord:
    """One epoch of a replay's time series (plain JSON-able values)."""

    epoch: int
    time: float
    label: str
    action: str  # policy action, or "failed" when no allocation exists
    feasible: bool  # policy produced an allocation for this epoch
    n_violations: int  # Eq. 1-5 violations of the epoch's allocation
    platform_cost: float
    purchase_cost: float
    salvage_credit: float
    migration_cost: float
    n_migrations: int
    n_purchases: int
    n_decommissions: int
    n_respecs: int
    n_processors: int
    #: Simulator validation (``None`` unless ``validate=True``):
    sim_ok: bool | None = None
    sim_misses: int | None = None
    sim_achieved: float | None = None
    #: State-size pricing extras (``None`` under the ``flat`` model —
    #: the keys are then omitted from the JSON rendering, keeping flat
    #: replays bit-identical to the pre-model output):
    state_moved_mb: float | None = None
    n_heavy_migrations: int | None = None
    #: Transition simulation (``None`` unless ``sim_transitions=True``
    #: and this epoch actually moved operators):
    transition: TransitionRecord | None = None
    #: Market settlement (``None`` unless the policy runs an economy —
    #: the key is omitted from JSON so non-market replays stay
    #: bit-identical):
    market: dict | None = None

    @property
    def reconfig_cost(self) -> float:
        return self.purchase_cost - self.salvage_credit + self.migration_cost


@dataclass(frozen=True)
class ReplayResult:
    """Cost/violation time series of one (trace, policy) replay."""

    trace: str
    seed: int
    policy: str
    records: tuple[EpochRecord, ...] = field(default_factory=tuple)
    migration_model: str = "flat"
    #: End-of-replay economy summary (``None`` unless the policy runs
    #: a market — see :class:`~repro.dynamic.policies.MarketPolicy`):
    market: dict | None = None

    @property
    def n_epochs(self) -> int:
        return len(self.records)

    @property
    def cumulative_cost(self) -> float:
        """Initial purchase + all subsequent reconfiguration."""
        return sum(r.reconfig_cost for r in self.records)

    @property
    def violation_epochs(self) -> int:
        """Epochs whose allocation violates Eq. 1–5 (or has none)."""
        return sum(
            1 for r in self.records if not r.feasible or r.n_violations
        )

    @property
    def sim_violation_epochs(self) -> int:
        """Simulator-verified throughput violations on feasible epochs."""
        return sum(1 for r in self.records if r.sim_ok is False)

    @property
    def total_migrations(self) -> int:
        return sum(r.n_migrations for r in self.records)

    @property
    def total_state_moved_mb(self) -> float:
        """State displaced across the whole replay (state-size model)."""
        return sum(
            r.state_moved_mb for r in self.records
            if r.state_moved_mb is not None
        )

    @property
    def total_heavy_migrations(self) -> int:
        """Heavy-operator moves across the replay (state-size model)."""
        return sum(
            r.n_heavy_migrations for r in self.records
            if r.n_heavy_migrations is not None
        )

    @property
    def transition_violation_epochs(self) -> int:
        """Transitions whose simulated drain dipped below the SLA."""
        return sum(
            1 for r in self.records
            if r.transition is not None and not r.transition.ok
        )

    def to_dict(self) -> dict:
        # optional-feature keys are omitted at their defaults so a
        # flat-model, transition-off replay renders bit-identically to
        # the pre-transition-engine output
        records = []
        for r in self.records:
            d = asdict(r)
            for key in ("state_moved_mb", "n_heavy_migrations",
                        "transition", "market"):
                if d[key] is None:
                    del d[key]
            records.append(d)
        out = {
            "trace": self.trace,
            "seed": self.seed,
            "policy": self.policy,
            "cumulative_cost": self.cumulative_cost,
            "violation_epochs": self.violation_epochs,
            "sim_violation_epochs": self.sim_violation_epochs,
            "total_migrations": self.total_migrations,
            "records": records,
        }
        if self.migration_model != "flat":
            out["migration_model"] = self.migration_model
            out["total_state_moved_mb"] = self.total_state_moved_mb
            out["total_heavy_migrations"] = self.total_heavy_migrations
        if self.market is not None:
            out["market"] = self.market
        return out

    def to_json(self) -> str:
        """Stable JSON rendering (byte-identical for identical replays)."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def summary(self) -> str:
        return (
            f"{self.policy:>8s} on {self.trace}: "
            f"${self.cumulative_cost:,.0f} cumulative, "
            f"{self.violation_epochs}/{self.n_epochs} violating epochs, "
            f"{self.total_migrations} migrations"
        )

    def table(self) -> str:
        """Per-epoch text table for the CLI."""
        with_sim = any(r.sim_ok is not None for r in self.records)
        with_transition = any(
            r.transition is not None for r in self.records
        )
        lines = [
            f"{'ep':>3} {'t':>5} {'event':<22} {'action':<9}"
            f" {'platform':>10} {'reconfig':>9} {'mig':>4} {'spec':>5}"
            f" {'viol':>4}"
            + ("  sim" if with_sim else "")
            + (f" {'dip':>6} {'drain':>7}" if with_transition else "")
        ]
        for r in self.records:
            sim = ""
            if r.sim_ok is not None:
                sim = "   ok" if r.sim_ok else " FAIL"
            transition = ""
            if with_transition:
                if r.transition is not None:
                    transition = (
                        f" {r.transition.throughput_dip:>6.1%}"
                        f" {r.transition.drain_s:>6.2f}s"
                    )
                else:
                    transition = f" {'-':>6} {'-':>7}"
            lines.append(
                f"{r.epoch:>3} {r.time:>5.1f} {r.label[:22]:<22}"
                f" {r.action:<9} {r.platform_cost:>10,.0f}"
                f" {r.reconfig_cost:>9,.0f} {r.n_migrations:>4}"
                f" {r.n_respecs:>5}"
                f" {r.n_violations if r.feasible else '-':>4}{sim}"
                f"{transition}"
            )
        return "\n".join(lines)


def _replay_engine(
    trace: WorkloadTrace,
    policy: ReallocationPolicy | str,
    *,
    validate: bool = False,
    n_results: int = 30,
    migration_cost: float = DEFAULT_MIGRATION_COST,
    salvage_fraction: float = DEFAULT_SALVAGE_FRACTION,
    sim_kernel: str = "warm",
    sim_warmup: bool = False,
    migration_model: str = "flat",
    migration_cost_per_mb: float = DEFAULT_MIGRATION_COST_PER_MB,
    sim_transitions: bool = False,
    pricing: "str | None" = None,
    tenant_budgets=None,
) -> ReplayResult:
    """Walk ``trace`` under ``policy`` and return the priced series.

    A policy failure (e.g. ``static`` facing an application arrival, or
    the initial solve of an infeasible epoch) records a ``failed``
    epoch and keeps the previous allocation running — the system does
    not stop because the controller has no answer.

    ``sim_warmup=True`` makes the per-epoch simulator validation
    warm-up-aware: each validated epoch runs for
    ``n_results + warmup`` results and measures the achieved rate only
    over the last ``n_results`` of them, where ``warmup`` is
    :func:`pipeline_warmup_results` of the epoch's allocation.  The
    pipeline-fill transient (queues built while the pipeline fills
    drain at cap-limited rates for a few pipeline depths) then falls
    outside the measured window, separating measurement transients
    from genuine SLA misses; an overloaded platform still fails
    because its *steady* rate is below target.  Default off — the
    legacy fixed-window measurement is bit-identical to PR 3.

    ``migration_model`` selects how moves are priced (``"flat"``:
    ``migration_cost`` $/operator, bit-identical to the legacy
    pricing; ``"state-size"``: ``migration_cost_per_mb`` $/MB of
    subtree leaf mass).  Under ``state-size`` the repair-based
    policies are handed the prices too, so harvest/trade refuse moves
    whose migration bill exceeds the money the move would recover.

    ``sim_transitions=True`` additionally executes every reallocation
    step in the simulator — drain + state-transfer flows injected into
    the elastic flow network — and attaches the measured
    :class:`~repro.dynamic.transition.TransitionRecord` to the epoch.

    ``pricing``/``tenant_budgets`` parameterise market-aware policies
    (currently :class:`~repro.dynamic.policies.MarketPolicy`): the
    pricing mechanism reference (``pricing:`` namespace) and per-app
    budgets forwarded through
    :meth:`~repro.dynamic.policies.ReallocationPolicy.configure_market`.
    Policies without an economy ignore both, and all outputs stay
    bit-identical when they are left unset.
    """
    if isinstance(policy, str):
        policy = make_policy(policy)
    # resolve the model through the registry, so qualified refs
    # ("migration:state-size") and custom-registered models work the
    # same way they do for policies and placements
    from ..api import registry as _registry

    _, model_name = _registry.parse(migration_model, "migration")
    if model_name == "flat":
        model = MigrationCostModel(
            name="flat", cost_per_migration=migration_cost
        )
    elif model_name == "state-size":
        model = MigrationCostModel(
            name="state-size", cost_per_mb=migration_cost_per_mb
        )
    else:
        model = _registry.make("migration", model_name)
    state_keyed = model.name != "flat"
    if state_keyed:
        policy.configure_pricing(
            MigrationPricing(model=model, salvage_fraction=salvage_fraction)
        )
    policy.configure_market(
        dict(tenant_budgets) if tenant_budgets else None,
        pricing, seed=trace.seed,
    )
    records: list[EpochRecord] = []
    current: Allocation | None = None
    #: Validation runs by :func:`_simulation_key`; each value keeps its
    #: tree alive, so the tree ``id`` in a key is never reused.
    sim_memo: dict[tuple, tuple] = {}
    for epoch, (time, label, instance) in enumerate(trace.epochs()):
        rng = derive_seed(trace.seed, "replay", policy.name, epoch)
        try:
            if current is None:
                decision = policy.initial(instance, rng=rng)
            else:
                decision = policy.react(instance, current, rng=rng)
        except AllocationError:
            prev_cost = current.cost if current is not None else 0.0
            n_procs = current.n_processors if current is not None else 0
            records.append(
                EpochRecord(
                    epoch=epoch, time=time, label=label, action="failed",
                    feasible=False, n_violations=0,
                    platform_cost=prev_cost, purchase_cost=0.0,
                    salvage_credit=0.0, migration_cost=0.0,
                    n_migrations=0, n_purchases=0, n_decommissions=0,
                    n_respecs=0, n_processors=n_procs,
                    state_moved_mb=0.0 if state_keyed else None,
                    n_heavy_migrations=0 if state_keyed else None,
                )
            )
            continue

        alloc = decision.allocation
        plan = None
        if current is None:
            delta = ReconfigDelta(
                purchase_cost=alloc.cost, salvage_credit=0.0,
                migration_cost=0.0, n_migrations=0,
                n_purchases=alloc.n_processors, n_decommissions=0,
                n_respecs=0,
            )
        else:
            plan = reconcile_plan(
                current, alloc, salvage_fraction=salvage_fraction
            )
            delta = plan.price(model)
        report = verify(alloc)

        sim_ok = sim_misses = sim_achieved = None
        if validate and report.feasible:
            from .. import simulator

            warmup = pipeline_warmup_results(alloc) if sim_warmup else 0
            key = _simulation_key(alloc, warmup)
            if key not in sim_memo:
                run = simulator.simulate_allocation(
                    alloc, n_results=n_results + warmup, kernel=sim_kernel,
                    warmup_results=warmup,
                )
                sim_memo[key] = (alloc.instance.tree, run)
            sim = sim_memo[key][1]
            sim_misses = sim.download_misses
            sim_achieved = sim.achieved_rate
            sim_ok = simulator.sustains_target(sim, instance.rho)

        transition = None
        if sim_transitions and plan is not None and plan.moves:
            transition = simulate_transition(
                current, alloc, plan.moves, plan.uid_map,
                n_results=n_results, kernel=sim_kernel,
            )

        market = policy.settle(
            epoch=epoch, prev=current, allocation=alloc, plan=plan,
            model=model, salvage_fraction=salvage_fraction,
        )

        records.append(
            EpochRecord(
                epoch=epoch, time=time, label=label,
                action=decision.action, feasible=True,
                n_violations=len(report.violations),
                platform_cost=alloc.cost,
                purchase_cost=delta.purchase_cost,
                salvage_credit=delta.salvage_credit,
                migration_cost=delta.migration_cost,
                n_migrations=delta.n_migrations,
                n_purchases=delta.n_purchases,
                n_decommissions=delta.n_decommissions,
                n_respecs=delta.n_respecs,
                n_processors=alloc.n_processors,
                sim_ok=sim_ok, sim_misses=sim_misses,
                sim_achieved=sim_achieved,
                state_moved_mb=(
                    (plan.state_moved_mb if plan else 0.0)
                    if state_keyed else None
                ),
                n_heavy_migrations=(
                    (plan.n_heavy_moves if plan else 0)
                    if state_keyed else None
                ),
                transition=transition,
                market=market,
            )
        )
        current = alloc
    return ReplayResult(
        trace=trace.name,
        seed=trace.seed,
        policy=policy.name,
        records=tuple(records),
        migration_model=model.name,
        market=policy.market_summary(),
    )
