"""Tenant registry: per-tenant quotas, rate limits, fair-share weights.

Each tenant of the allocation service is described by a frozen
:class:`TenantConfig` (weight, concurrency quota, queue-depth quota,
token-bucket rate limit) and tracked at runtime by a
:class:`TenantState` (live queue levels, the bucket, the account).
Per-tenant counters and latencies live in the owning service's metrics
registry, keyed by tenant name.
The :class:`TenantRegistry` resolves tenant names at admission time;
unknown tenants are auto-registered with the registry's default
config (the open-door mode every test and quickstart wants) unless
``auto_register=False`` makes unknown tenants an admission error (the
locked-down production mode).

The registry is plain synchronous state: it is only ever touched from
the service's event-loop thread, so it needs no locking — the same
single-writer discipline the broker's queues rely on.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable, Iterator

from ..checks import _at_least
from ..market.accounts import Account

__all__ = [
    "TIER_RANK",
    "TenantConfig",
    "TenantRegistry",
    "TenantState",
    "TokenBucket",
    "parse_tenant_spec",
    "tier_rank",
]

#: SLA tiers, by preemption seniority.  "standard" and "silver" are the
#: same rank — "silver" exists so specs read naturally next to gold and
#: bronze.  A bidder can only preempt queued work of a *strictly lower*
#: rank.
TIER_RANK = {"bronze": 0, "standard": 1, "silver": 1, "gold": 2}


def tier_rank(tier: str) -> int:
    return TIER_RANK[tier]


@dataclass(frozen=True)
class TenantConfig:
    """Quota/fairness contract of one tenant, as data."""

    name: str
    #: Fair-share weight for weighted-round-robin dequeueing: a tenant
    #: with weight 2 gets two dequeues per turn where weight-1 tenants
    #: get one.  Weights only shape the ratio under contention — an
    #: idle tenant's share is redistributed, never wasted.
    weight: int = 1
    #: Max requests of this tenant being solved concurrently.  Requests
    #: beyond it stay queued (not rejected) until a slot frees.
    max_in_flight: int = 4
    #: Max requests of this tenant waiting in queue.  Submissions
    #: beyond it are rejected fast ("queue-full").
    max_queued: int = 64
    #: Token-bucket refill rate, requests/second.  ``None`` disables
    #: rate limiting for this tenant.
    rate_per_s: float | None = None
    #: Token-bucket capacity (burst size) when rate limiting is on.
    burst: int = 8
    #: SLA tier (``bronze`` < ``standard``/``silver`` < ``gold``): a
    #: bidding tenant can preempt queued work of strictly lower tiers
    #: during overload.  Purely ordinal — no other behaviour changes.
    tier: str = "standard"
    #: Starting balance of the tenant's account.  ``None`` (default)
    #: means unlimited: spend is tracked but never refused, and no
    #: ``account`` block appears in snapshots unless money moves.
    budget: float | None = None
    #: Currency credited back per second, up to ``budget``.
    refill_per_s: float | None = None
    #: Price charged per admitted request (cache hits included — the
    #: door fee, not the compute fee).  ``0.0`` disables billing.
    admission_price: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        for name in ("weight", "max_in_flight", "max_queued", "burst"):
            _at_least(self, name, 1)
        for name in ("rate_per_s", "budget", "refill_per_s"):
            if getattr(self, name) is not None:
                _at_least(self, name, 0)
        if self.refill_per_s is not None and self.budget is None:
            raise ValueError("refill_per_s requires a finite budget")
        _at_least(self, "admission_price", 0)
        if self.tier not in TIER_RANK:
            raise ValueError(
                f"unknown tier {self.tier!r}"
                f" (valid tiers: {', '.join(sorted(TIER_RANK))})"
            )


class TokenBucket:
    """Classic token bucket against an injectable monotonic clock.

    Starts full (``burst`` tokens); refills continuously at
    ``rate_per_s``.  ``rate_per_s=0`` never refills — the burst is a
    hard total, which makes quota tests deterministic without sleeping.
    """

    def __init__(
        self,
        rate_per_s: float,
        burst: int,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.rate_per_s = float(rate_per_s)
        self.burst = float(burst)
        self._clock = clock
        self._tokens = self.burst
        self._stamp = clock()

    def _refill(self) -> None:
        now = self._clock()
        if self.rate_per_s > 0:
            self._tokens = min(
                self.burst,
                self._tokens + (now - self._stamp) * self.rate_per_s,
            )
        self._stamp = now

    def try_take(self) -> bool:
        """Consume one token if available."""
        self._refill()
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False

    @property
    def tokens(self) -> float:
        self._refill()
        return self._tokens


@dataclass
class TenantState:
    """Runtime state of one registered tenant."""

    config: TenantConfig
    bucket: TokenBucket | None
    #: Requests currently queued (broker-maintained).
    n_queued: int = 0
    #: Requests currently being executed (broker-maintained).
    n_in_flight: int = 0
    #: Budget account; ``None`` until the tenant is configured with a
    #: budget/price, or until money first moves (preemption credits
    #: create unlimited accounts on demand via :meth:`ensure_account`).
    account: Account | None = None

    @property
    def name(self) -> str:
        return self.config.name

    def ensure_account(self) -> Account:
        """The tenant's account, creating an unlimited one on first
        use — so compensation can land even for unbudgeted tenants."""
        if self.account is None:
            self.account = Account()
        return self.account


class TenantRegistry:
    """Name → :class:`TenantState` lookup with admission defaults."""

    #: Hard cap on registry size reachable via auto-registration.
    #: Tenant names arrive verbatim from clients; without a bound a
    #: stream of unique names would grow per-tenant state forever.
    MAX_AUTO_TENANTS = 10_000

    def __init__(
        self,
        configs: "tuple[TenantConfig, ...] | list[TenantConfig]" = (),
        *,
        default: TenantConfig | None = None,
        auto_register: bool = True,
        max_auto_tenants: int | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        #: Template applied to auto-registered tenants (name swapped in).
        self.default = default or TenantConfig(name="default")
        self.auto_register = auto_register
        self.max_auto_tenants = (
            max_auto_tenants if max_auto_tenants is not None
            else self.MAX_AUTO_TENANTS
        )
        self._clock = clock
        self._tenants: dict[str, TenantState] = {}
        for config in configs:
            self.register(config)

    def _build_account(self, config: TenantConfig) -> Account | None:
        if config.budget is None:
            return None
        return Account(
            config.budget,
            refill_per_s=config.refill_per_s,
            clock=self._clock,
        )

    def register(self, config: TenantConfig) -> TenantState:
        """Add or reconfigure a tenant.  Reconfiguring keeps live
        levels (and the service's counters, which are keyed by name)
        but rebuilds the token bucket (new quota, fresh burst); the
        account survives unless its budget terms changed (a new budget
        is a new contract — fresh balance)."""
        existing = self._tenants.get(config.name)
        bucket = (
            TokenBucket(config.rate_per_s, config.burst, clock=self._clock)
            if config.rate_per_s is not None
            else None
        )
        if existing is not None:
            old = existing.config
            if (old.budget, old.refill_per_s) != (
                config.budget, config.refill_per_s
            ):
                existing.account = self._build_account(config)
            existing.config = config
            existing.bucket = bucket
            return existing
        state = TenantState(
            config=config, bucket=bucket,
            account=self._build_account(config),
        )
        self._tenants[config.name] = state
        return state

    def get(self, name: str) -> TenantState | None:
        """Resolve a tenant for admission: registered state, a fresh
        auto-registered one, or ``None`` (unknown tenant and either a
        closed registry or the auto-registration cap reached)."""
        state = self._tenants.get(name)
        if (
            state is None
            and self.auto_register
            and len(self._tenants) < self.max_auto_tenants
        ):
            state = self.register(replace(self.default, name=name))
        return state

    def __contains__(self, name: str) -> bool:
        return name in self._tenants

    def __iter__(self) -> Iterator[TenantState]:
        return iter(self._tenants.values())

    def __len__(self) -> int:
        return len(self._tenants)


def parse_tenant_spec(spec: str) -> TenantConfig:
    """Parse the CLI's ``--tenant`` syntax into a config.

    ``"name"`` or ``"name,key=value,..."`` with keys ``weight``,
    ``max_in_flight``, ``max_queued``, ``rate`` (alias of
    ``rate_per_s``), ``burst``, ``tier``, ``budget``, ``refill``
    (alias of ``refill_per_s``), and ``price`` (alias of
    ``admission_price``)::

        parse_tenant_spec("acme,weight=2,rate=10,burst=4")
        parse_tenant_spec("gold,tier=gold,budget=100,price=1")
    """
    name, _, rest = spec.partition(",")
    kwargs: dict[str, object] = {}
    aliases = {
        "rate": "rate_per_s",
        "refill": "refill_per_s",
        "price": "admission_price",
    }
    int_keys = {"weight", "max_in_flight", "max_queued", "burst"}
    float_keys = {
        "rate_per_s", "budget", "refill_per_s", "admission_price"
    }
    str_keys = {"tier"}
    valid = sorted(
        int_keys | float_keys | str_keys | set(aliases)
    )
    if rest:
        for item in rest.split(","):
            key, eq, value = item.partition("=")
            key = key.strip()
            if not eq or not key:
                raise ValueError(
                    f"bad tenant option {item!r} in {spec!r}"
                    f" (expected key=value)"
                )
            key = aliases.get(key, key)
            if key not in int_keys | float_keys | str_keys:
                from ..errors import did_you_mean

                raise ValueError(
                    f"unknown tenant option {key!r}{did_you_mean(key, valid)}"
                    f" (valid options: {', '.join(valid)})"
                )
            try:
                kwargs[key] = (
                    int(value) if key in int_keys
                    else value.strip() if key in str_keys
                    else float(value)
                )
            except ValueError:
                raise ValueError(
                    f"bad value {value!r} for tenant option {key!r}"
                ) from None
    return TenantConfig(name=name.strip(), **kwargs)  # type: ignore[arg-type]
