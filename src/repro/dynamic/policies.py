"""Pluggable online re-allocation policies.

A policy is invoked once per trace epoch with the mutated instance and
the allocation currently running (``None`` at the initial epoch) and
returns the allocation for the new epoch.  Four members, mirroring the
static/harvest/trade split of production multi-tenant allocators:

``static``
    Allocate once, never re-plan.  Processor set and operator mapping
    are frozen; only the download plan is re-routed when the farm moves
    an object (re-pointing a subscription is not a migration).  The
    baseline every adaptive policy must beat — and the policy that
    *cannot* serve structural changes (application arrivals fail).
``resolve``
    Re-run a configured placement heuristic from scratch on every
    change.  Always as feasible as the one-shot solver, but pays full
    reconfiguration: the re-solved platform shares no processor
    identity with the running one, so machines are re-bought/sold and
    operators migrate wholesale.
``harvest``
    Incremental repair (:mod:`repro.dynamic.repair`): keep the running
    platform, patch only violated constraints, then harvest slack —
    consolidate, sell idle machines, downgrade over-provisioned ones.
``trade``
    Harvest plus a pairwise capacity exchange between concurrent
    applications driven by per-app load estimates — surplus apps donate
    processors to deficit apps before any new money is spent.

``harvest`` and ``trade`` fall back to a from-scratch re-solve when
local repair cannot restore feasibility (the replay driver prices that
epoch like a ``resolve`` epoch and flags it), so the adaptive policies
are never *less* feasible than ``resolve``.

Policies are looked up by name through the unified strategy registry
(:mod:`repro.api.registry`, ``policy`` namespace), which registers
:data:`POLICY_FACTORIES` below; the CLI, experiment campaigns,
and benchmarks all resolve names the same way.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..core.mapping import Allocation
from ..core.pipeline import allocate
from ..core.problem import ProblemInstance
from ..core.server_selection import ThreeLoopServerSelection
from ..errors import AllocationError
from .repair import match_operators, repair_allocation

__all__ = [
    "PolicyDecision",
    "ReallocationPolicy",
    "StaticPolicy",
    "ResolvePolicy",
    "HarvestPolicy",
    "TradePolicy",
    "MarketPolicy",
    "POLICY_FACTORIES",
    "POLICY_ORDER",
    "make_policy",
    "all_policies",
]

#: Heuristic used for initial epochs and from-scratch re-solves.
DEFAULT_HEURISTIC = "subtree-bottom-up"


@dataclass(frozen=True)
class PolicyDecision:
    """One epoch's outcome: the allocation plus how it was obtained."""

    allocation: Allocation
    #: "initial" | "keep" | "repair" | "resolve" | "fallback"
    action: str


class ReallocationPolicy(ABC):
    """Strategy interface: react to one workload mutation."""

    name: str = "abstract"

    def __init__(self, heuristic: str = DEFAULT_HEURISTIC) -> None:
        self.heuristic = heuristic

    def initial(
        self,
        instance: ProblemInstance,
        *,
        rng: np.random.Generator | int | None = None,
    ) -> PolicyDecision:
        """Epoch 0: every policy bootstraps with the one-shot pipeline."""
        result = allocate(instance, self.heuristic, rng=rng)
        return PolicyDecision(allocation=result.allocation, action="initial")

    def configure_pricing(self, pricing) -> None:
        """Hand the policy a
        :class:`~repro.dynamic.transition.MigrationPricing` so it can
        weigh moves against money.  The default is to ignore it —
        ``static`` never moves and ``resolve`` re-plans wholesale; the
        repair-based policies override this."""

    def configure_market(
        self,
        budgets: "dict[str, float] | None",
        pricing: "str | None",
        *,
        seed: int = 0,
    ) -> None:
        """Hand the policy per-application budgets and a ``pricing``
        registry reference for contended-machine price search.  The
        default ignores it — only market-aware policies settle."""

    def settle(
        self,
        *,
        epoch: int,
        prev,
        allocation: Allocation,
        plan,
        model,
        salvage_fraction: float,
    ) -> "dict | None":
        """Per-epoch economic settlement: charge this epoch's
        purchases, salvage, and migrations to the owning applications'
        accounts and price contended machines.  Returns the epoch's
        market record, or ``None`` (the default — non-market policies
        keep replay output bit-identical)."""
        return None

    def market_summary(self) -> "dict | None":
        """End-of-replay account totals, or ``None`` when the policy
        ran no economy."""
        return None

    @abstractmethod
    def react(
        self,
        instance: ProblemInstance,
        current: Allocation,
        *,
        rng: np.random.Generator | int | None = None,
    ) -> PolicyDecision:
        """Produce the next epoch's allocation, or raise
        :class:`~repro.errors.AllocationError` when the policy cannot
        serve the mutated instance."""


class StaticPolicy(ReallocationPolicy):
    """Never re-plan: frozen platform and mapping, re-routed downloads."""

    name = "static"

    def react(
        self,
        instance: ProblemInstance,
        current: Allocation,
        *,
        rng: np.random.Generator | int | None = None,
    ) -> PolicyDecision:
        omatch = match_operators(current.instance.tree, instance.tree)
        assignment = {
            omatch[i]: u
            for i, u in current.assignment.items()
            if i in omatch
        }
        uncovered = set(instance.tree.operator_indices) - set(assignment)
        # virtual glue (w = δ = 0, e.g. after an application departure
        # re-glues the forest) loads nothing: parking it on the first
        # frozen machine is bookkeeping, not a re-plan.
        anchor = min(p.uid for p in current.processors)
        for i in sorted(uncovered):
            op = instance.tree[i]
            if op.work == 0.0 and op.output_mb == 0.0 and not op.leaves:
                assignment[i] = anchor
                uncovered.discard(i)
        if uncovered:
            raise AllocationError(
                "static policy cannot map operators the frozen plan"
                " does not cover"
            )
        downloads = ThreeLoopServerSelection().select(
            instance, assignment, rng=rng
        )
        allocation = Allocation(
            instance=instance,
            processors=current.processors,
            assignment=assignment,
            downloads=downloads,
            provenance="static",
        )
        return PolicyDecision(allocation=allocation, action="keep")


class ResolvePolicy(ReallocationPolicy):
    """Re-run the configured heuristic from scratch on every change."""

    name = "resolve"

    def react(
        self,
        instance: ProblemInstance,
        current: Allocation,
        *,
        rng: np.random.Generator | int | None = None,
    ) -> PolicyDecision:
        result = allocate(instance, self.heuristic, rng=rng)
        return PolicyDecision(allocation=result.allocation, action="resolve")


class _RepairBase(ReallocationPolicy):
    """Shared react() for the two incremental strategies.

    The policy object lives for the whole replay, so it carries the
    repair planner's :class:`~repro.dynamic.repair.RepairCarry` from
    epoch to epoch: consecutive repairs of the same running platform
    reuse the load-tracker state instead of rebuilding it from the full
    assignment (the carry is dropped whenever a fallback re-solve
    replaces the platform wholesale).
    """

    strategy: str = "harvest"

    def __init__(self, heuristic: str = DEFAULT_HEURISTIC) -> None:
        super().__init__(heuristic)
        self._carry = None
        self._pricing = None

    def configure_pricing(self, pricing) -> None:
        self._pricing = pricing

    def react(
        self,
        instance: ProblemInstance,
        current: Allocation,
        *,
        rng: np.random.Generator | int | None = None,
    ) -> PolicyDecision:
        try:
            outcome = repair_allocation(
                instance, current, strategy=self.strategy, rng=rng,
                carry=self._carry, pricing=self._pricing,
            )
        except AllocationError:
            self._carry = None  # repair mutated the carried tracker
            result = allocate(instance, self.heuristic, rng=rng)
            return PolicyDecision(
                allocation=result.allocation, action="fallback"
            )
        self._carry = outcome.carry
        return PolicyDecision(allocation=outcome.allocation, action="repair")


class HarvestPolicy(_RepairBase):
    """Patch violations in place, then harvest exposed slack."""

    name = "harvest"
    strategy = "harvest"


class TradePolicy(_RepairBase):
    """Harvest plus pairwise inter-application capacity exchange."""

    name = "trade"
    strategy = "trade"


class MarketPolicy(_RepairBase):
    """Trade-style repair plus a per-application economy.

    Allocation decisions are exactly the ``trade`` policy's (same
    repair planner, same fallback), so the cost/violation series stays
    comparable; what this policy adds is *settlement*: every epoch's
    purchases, salvage refunds, and migration bills are charged to the
    owning application's :class:`~repro.market.accounts.Account` (apps
    are identified by the ``"<app>."`` prefix multi-app traces put on
    operator names), and machines hosting several applications are
    priced by a deterministic price-search auction from the
    ``pricing:`` registry namespace (CEEI / proportional fairness by
    default).  The auction's congestion rents are account-side only —
    they never alter the platform-cost series, so the replay's cost
    columns remain directly comparable with the other policies.

    Budgets are scorecards here, not gates: an application that
    overruns its budget goes negative (the overdraft is counted) —
    refusing to pay for a machine the repair planner already bought
    would corrupt the running platform.
    """

    name = "market"
    strategy = "trade"

    def __init__(
        self,
        heuristic: str = DEFAULT_HEURISTIC,
        *,
        budgets: "dict[str, float] | None" = None,
        pricing: "str | None" = None,
        seed: int = 0,
    ) -> None:
        super().__init__(heuristic)
        self._budgets: dict[str, float] = dict(budgets or {})
        self._pricing_ref = pricing
        self._market_seed = seed
        self._auction = None
        self._accounts: dict = {}

    def configure_market(
        self,
        budgets: "dict[str, float] | None",
        pricing: "str | None",
        *,
        seed: int = 0,
    ) -> None:
        if budgets is not None:
            self._budgets = dict(budgets)
        if pricing is not None:
            self._pricing_ref = pricing
        self._market_seed = seed
        self._auction = None
        self._accounts = {}

    # -- settlement helpers ---------------------------------------------

    def _mechanism(self):
        # NB: ``self._pricing`` is taken — _RepairBase uses it for the
        # migration-cost schedule — so the auction lives on _auction
        if self._auction is None:
            from ..market.auction import make_pricing

            self._auction = make_pricing(
                self._pricing_ref or "proportional"
            )
        return self._auction

    def _account(self, app: str):
        account = self._accounts.get(app)
        if account is None:
            from ..market.accounts import Account

            account = self._accounts[app] = Account(
                self._budgets.get(app)
            )
        return account

    @staticmethod
    def _owner(tree, index: int) -> str:
        """Application owning one operator: the name prefix multi-app
        traces assign (``"app1.n7"`` → ``"app1"``); single-app trees
        settle on one account named after the tree."""
        name = tree[index].name or ""
        if "." in name:
            return name.split(".", 1)[0]
        return tree.name or "app"

    def _machine_loads(self, alloc: Allocation) -> "dict[int, dict[str, float]]":
        """uid → app → hosted work (operator count as tie-breaker mass
        for zero-work glue operators)."""
        tree = alloc.instance.tree
        loads: dict[int, dict[str, float]] = {}
        for i, uid in sorted(alloc.assignment.items()):
            app = self._owner(tree, i)
            per_app = loads.setdefault(uid, {})
            per_app[app] = per_app.get(app, 0.0) + max(
                tree[i].work, 1e-9
            )
        return loads

    def _split_machine(
        self, charges: "dict[str, dict[str, float]]", kind: str,
        hosted: "dict[str, float] | None", amount: float,
    ) -> None:
        """Split one machine's bill/refund across its hosting apps,
        proportional to hosted work."""
        if not hosted or amount == 0.0:
            return
        total = sum(hosted.values())
        for app in sorted(hosted):
            share = amount * hosted[app] / total
            row = charges.setdefault(app, {})
            row[kind] = row.get(kind, 0.0) + share

    def settle(
        self,
        *,
        epoch: int,
        prev,
        allocation: Allocation,
        plan,
        model,
        salvage_fraction: float,
    ) -> "dict | None":
        from ..rng import derive_seed

        new_loads = self._machine_loads(allocation)
        new_procs = allocation.processor_map
        charges: dict[str, dict[str, float]] = {}

        if plan is None:
            # initial epoch: the whole platform is purchased
            for uid in sorted(new_procs):
                self._split_machine(
                    charges, "purchase", new_loads.get(uid),
                    new_procs[uid].cost,
                )
        else:
            old_loads = self._machine_loads(prev)
            old_procs = prev.processor_map
            matched_new = set(plan.uid_map.values())
            # purchased machines bill the apps they now host
            for uid in sorted(new_procs):
                if uid not in matched_new and uid not in old_procs:
                    self._split_machine(
                        charges, "purchase", new_loads.get(uid),
                        new_procs[uid].cost,
                    )
            # decommissioned machines refund their former hosts
            for uid in sorted(old_procs):
                if uid not in plan.uid_map and uid not in new_procs:
                    self._split_machine(
                        charges, "salvage", old_loads.get(uid),
                        salvage_fraction * old_procs[uid].cost,
                    )
            # in-place re-specs: upgrades bill, downgrades refund
            for uid in sorted(set(old_procs) & set(new_procs)):
                diff = new_procs[uid].cost - old_procs[uid].cost
                if diff > 0:
                    self._split_machine(
                        charges, "purchase", new_loads.get(uid), diff
                    )
                elif diff < 0:
                    self._split_machine(
                        charges, "salvage", old_loads.get(uid),
                        salvage_fraction * (-diff),
                    )
            # migrations bill the owner of the moved operator
            old_tree = prev.instance.tree
            for move in plan.moves:
                app = self._owner(old_tree, move.old_index)
                if getattr(model, "name", None) == "flat":
                    price = model.cost_per_migration
                else:
                    price = model.price_state(move.state_mb)
                row = charges.setdefault(app, {})
                row["migration"] = row.get("migration", 0.0) + price

        # -- contended machines: seeded price-search auction -----------
        contended = {
            uid: per_app
            for uid, per_app in sorted(new_loads.items())
            if len(per_app) > 1
        }
        auction_block = None
        prices: dict[str, float] = {}
        if contended:
            demands: dict[str, dict[str, float]] = {}
            for uid, per_app in contended.items():
                for app, work in per_app.items():
                    demands.setdefault(app, {})[str(uid)] = work
            funds = {}
            for app in sorted(demands):
                account = self._account(app)
                # bid mass is the app's contended work — so rents stay
                # on the scale of the contention, not the treasury —
                # capped by what a budgeted account still has
                notional = sum(demands[app].values())
                if account.unlimited or account.balance <= 0:
                    funds[app] = notional
                else:
                    funds[app] = min(account.balance, notional)
            result = self._mechanism().run(
                {str(uid): 1.0 for uid in contended},
                demands,
                funds,
                seed=derive_seed(self._market_seed, "market", epoch),
            )
            prices = {m: round(p, 9) for m, p in result.prices}
            auction_block = {
                "n_rounds": result.n_rounds,
                "converged": result.converged,
            }
            for app, paid in result.payments:
                if paid > 0:
                    row = charges.setdefault(app, {})
                    row["rent"] = row.get("rent", 0.0) + paid

        # -- apply to accounts ------------------------------------------
        record_charges: dict[str, dict[str, float]] = {}
        balances: dict[str, float] = {}
        for app in sorted(charges):
            account = self._account(app)
            row = charges[app]
            out_row = {}
            for kind in ("purchase", "migration", "rent"):
                amount = round(row.get(kind, 0.0), 6)
                if amount:
                    account.charge(amount, kind, force=True)
                    out_row[kind] = amount
            refund = round(row.get("salvage", 0.0), 6)
            if refund:
                account.credit(refund, "salvage")
                out_row["salvage"] = refund
            if out_row:
                record_charges[app] = out_row
            if not account.unlimited:
                balances[app] = round(account.balance, 6)
        out: dict = {"charges": record_charges}
        if balances:
            out["balances"] = balances
        if prices:
            out["prices"] = prices
        if auction_block is not None:
            out["auction"] = auction_block
        return out

    def market_summary(self) -> "dict | None":
        if not self._accounts:
            return None
        return {
            "pricing": (self._pricing_ref or "proportional"),
            "tenants": {
                app: account.snapshot()
                for app, account in sorted(self._accounts.items())
            },
        }


POLICY_FACTORIES: dict[str, Callable[[], ReallocationPolicy]] = {
    StaticPolicy.name: StaticPolicy,
    ResolvePolicy.name: ResolvePolicy,
    HarvestPolicy.name: HarvestPolicy,
    TradePolicy.name: TradePolicy,
    MarketPolicy.name: MarketPolicy,
}

#: Canonical report/plot order: baselines first, adaptive policies last.
POLICY_ORDER: tuple[str, ...] = ("static", "resolve", "harvest", "trade")


def make_policy(name: str, **kwargs) -> ReallocationPolicy:
    """Instantiate a policy by name (or any policy registered through
    :func:`repro.api.register` under the ``policy`` namespace)."""
    from ..api import registry as unified

    return unified.make("policy", name, **kwargs)


def all_policies() -> list[ReallocationPolicy]:
    """Fresh instances of all four policies, in report order."""
    return [make_policy(name) for name in POLICY_ORDER]
