"""The allocation service: admission control + async request broker.

:class:`AllocationService` is the standing, multi-tenant front end
over the solver API.  It accepts the typed requests
(:class:`~repro.api.requests.SolveRequest` /
:class:`~repro.api.requests.ReplayRequest` /
:class:`~repro.api.requests.SweepRequest`) from many tenants
concurrently and schedules them onto the existing executor backends:

* **admission control** is synchronous and reject-fast: unknown tenant
  (closed registry), token-bucket rate limit, per-tenant queue quota,
  global queue bound — each rejection raises :class:`AdmissionRejected`
  carrying a structured :class:`~repro.api.requests.FailureRecord`
  (stage ``"rate-limit"``, ``"queue-full"``, ...) instead of an opaque
  error string;
* **scheduling** is the :class:`~repro.service.queueing.FairQueue`:
  strict priority classes, weighted round-robin across tenants within
  a class (no starvation), FIFO per tenant, lazy cancellation;
* **soft deadlines**: a request whose ``deadline_s`` budget expired
  while it queued is dropped at dispatch time with a ``"deadline"``
  failure — the solver never burns cycles on an answer nobody is
  waiting for;
* **execution** runs outside the event loop — in a worker thread for
  the serial backend, in a persistent ``ProcessPoolExecutor`` sized
  like the :class:`~repro.api.executors.ParallelExecutor` backend for
  ``jobs > 1``, or through a custom executor's ``map()`` (e.g. a
  :class:`~repro.distributed.DistributedExecutor` fleet) — bounded by
  ``max_in_flight`` concurrent requests;
* **result caching**: completed results for *deterministic* requests
  (explicit seed, no time budget, wire-serialisable — see
  :func:`request_cache_key`) land in a bounded LRU; a repeat submit is
  answered at the door without touching the solver.  Hit/miss counts
  surface under ``service.cache`` in ``/stats``.

Observability: each service owns a
:class:`~repro.telemetry.metrics.MetricsRegistry` (:attr:`metrics`).
Every count, latency and level is recorded there exactly once, at the
site where it happens — money too: each charge and credit the ledger
actually moved bumps the tenant's ``repro_service_spend_total`` or
``repro_service_earnings_total``.  ``/stats``
(:meth:`AllocationService.snapshot`), ``/metrics`` and the
shard-control ``/v1/shard/metrics`` answer a router folds into its
fleet registry are read-only views over it, and :func:`stats_totals`
reads the ``/stats`` totals out of a service's registry and a fleet's
alike.

Determinism: the service adds no entropy.  A seeded request produces
the *same* :class:`~repro.api.requests.SolveResult` (allocation,
failure records, effective seed — everything except wall-clock
timing) as calling :func:`repro.api.solve` directly, whichever
backend executes it; ``tests/service/test_client.py`` asserts this
bit-for-bit.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace as _dc_replace
from typing import Callable, Sequence

from ..api.executors import (
    Executor,
    ParallelExecutor,
    SerialExecutor,
    get_executor,
)
from ..api.requests import (
    FailureRecord,
    ReplayRequest,
    SolveRequest,
    SweepRequest,
)
from ..telemetry import get_logger, record_span
from ..telemetry.metrics import MetricsRegistry, summarize
from .queueing import FairQueue, QueuedTicket
from .tenants import TenantConfig, TenantRegistry, TenantState, tier_rank

__all__ = [
    "AdmissionRejected",
    "AllocationService",
    "Ticket",
    "execute_request",
    "request_cache_key",
    "stats_totals",
]

_log = get_logger("service")

#: Per-tenant request outcomes, in ``/stats`` row order.
_OUTCOMES = ("admitted", "completed", "failed", "cancelled", "expired")


class AdmissionRejected(Exception):
    """A request was refused at the door; ``record`` says why."""

    def __init__(self, record: FailureRecord):
        super().__init__(record.message)
        self.record = record


def _rejection(tenant: str, stage: str, message: str,
               detail: dict | None = None) -> AdmissionRejected:
    return AdmissionRejected(
        FailureRecord(
            strategy=f"tenant:{tenant}",
            stage=stage,
            error_type="AdmissionError",
            message=message,
            detail=detail,
        )
    )


def stats_totals(
    registry: MetricsRegistry, tenants: "Sequence[tuple[str, ...]]"
) -> "tuple[dict, dict, dict, dict | None]":
    """``/stats``'s ``totals``, unattributed rejections by stage, cache
    ``hits``/``misses`` and queue-wait summary, read from one service's
    registry or from a router's fleet registry (the same families under
    a leading ``shard`` label, plus ``repro_router_rejections_total``).
    A sample's last label is its outcome, stage or result, and the one
    before it its tenant.  ``tenants`` are the tenants' label values in
    registration order (shard by shard in a fleet): ``spent`` and the
    queue-wait window are summed over them in that order."""
    def counts(name: str) -> dict:
        family = registry.get(name)
        return family.totals() if family is not None else {}

    totals = dict.fromkeys(_OUTCOMES + ("rejected", "preempted"), 0)
    for key, n in counts("repro_service_requests_total").items():
        totals[key[-1]] += n
    unattributed: dict[str, int] = {}
    for key, n in (*counts("repro_service_rejections_total").items(),
                   *counts("repro_router_rejections_total").items()):
        # preemption victims were admitted, not turned away at the door
        if key[-1] != "preempted":
            totals["rejected"] += n
            if len(key) < 2 or not key[-2]:
                unattributed[key[-1]] = unattributed.get(key[-1], 0) + n
    # economy totals only appear once money moved — pre-market /stats
    # payloads stay byte-identical
    if not totals["preempted"]:
        del totals["preempted"]
    spend = counts("repro_service_spend_total")
    spent = sum(spend.get(key, 0) for key in tenants)
    if spent:
        totals["spent"] = round(spent, 6)
    cache = {"hit": 0, "miss": 0}
    for key, n in counts("repro_service_cache_requests_total").items():
        cache[key[-1]] += n
    waits = registry.get("repro_service_queue_wait_seconds")
    waits = waits.children() if waits is not None else {}
    window: list[float] = []
    waited = 0
    for key in tenants:
        if key in waits:
            window.extend(waits[key].values)
            waited += waits[key].count
    return (
        totals, dict(sorted(unattributed.items())),
        {"hits": cache["hit"], "misses": cache["miss"]},
        summarize(window, waited),
    )


def execute_request(request):
    """Run one typed request to completion (module-level so it pickles
    into pool workers).  Inner execution is always the serial backend:
    request-level parallelism is the service's job, and keeping the
    leaf serial is what makes results bit-identical to a direct
    :func:`repro.api.solve` call."""
    from ..api import replay, solve, sweep

    if isinstance(request, SolveRequest):
        return solve(request)
    if isinstance(request, ReplayRequest):
        return replay(request)
    if isinstance(request, SweepRequest):
        return sweep(request)
    raise TypeError(
        f"cannot execute {type(request).__name__}: expected SolveRequest,"
        f" ReplayRequest, or SweepRequest"
    )


def request_cache_key(request) -> "str | None":
    """Canonical cache key for a request, or ``None`` when the result
    must not be cached.

    Cacheable means *deterministically reproducible from the request
    alone*: an explicitly seeded request with no wall-clock coupling.
    ``None`` is returned for

    * a :class:`SolveRequest` without a seed (the service would draw
      fresh entropy per call — two submits are *meant* to differ);
    * any ``time_budget_s`` (which member hits the budget depends on
      machine speed, not the request);
    * requests that don't round-trip through the wire codec (e.g. an
      in-memory :class:`~repro.dynamic.WorkloadTrace`) — without a
      canonical serialisation there is no sound key.
    """
    from ..api.wire import WireFormatError, request_to_wire

    if isinstance(request, SolveRequest):
        if request.seed is None or request.time_budget_s is not None:
            return None
    try:
        wire = request_to_wire(request)
    except (WireFormatError, TypeError):
        return None
    # telemetry identity is not computational identity: the same
    # seeded request resubmitted under a fresh trace_id must still hit
    wire.pop("trace_id", None)
    try:
        return json.dumps(wire, sort_keys=True)
    except (TypeError, ValueError):
        return None


@dataclass(eq=False)
class Ticket:
    """Broker-side handle of one admitted request."""

    id: int
    tenant: str
    priority: int
    request: object
    enqueued_at: float
    deadline: float | None
    future: asyncio.Future
    queued: QueuedTicket
    #: set when the result should populate the cache on completion
    cache_key: "str | None" = field(default=None)
    #: wall-clock twin of ``enqueued_at`` (which is monotonic) — the
    #: queue-wait span needs an epoch start time
    enqueued_wall: float = field(default=0.0)

    @property
    def done(self) -> bool:
        return self.future.done()


class AllocationService:
    """Standing multi-tenant allocation service (asyncio, stdlib-only).

    Lifecycle: ``await start()`` → ``await submit(...)`` /
    ``await result(ticket)`` → ``await aclose()``.  All methods must
    run on the service's event loop; the synchronous facades live in
    :mod:`repro.service.client`.
    """

    def __init__(
        self,
        *,
        tenants: "tuple[TenantConfig, ...] | list[TenantConfig]" = (),
        default_tenant: TenantConfig | None = None,
        auto_register: bool = True,
        jobs: "int | str | Executor | None" = None,
        max_in_flight: int | None = None,
        max_queue_depth: int = 256,
        cache_size: int = 128,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.executor = get_executor(jobs)
        self.registry = TenantRegistry(
            tenants,
            default=default_tenant,
            auto_register=auto_register,
            clock=clock,
        )
        self.max_in_flight = (
            max_in_flight if max_in_flight is not None else self.executor.jobs
        )
        if self.max_in_flight < 1:
            raise ValueError(
                f"max_in_flight must be >= 1, got {self.max_in_flight}"
            )
        if max_queue_depth < 1:
            raise ValueError(
                f"max_queue_depth must be >= 1, got {max_queue_depth}"
            )
        self.max_queue_depth = max_queue_depth
        if cache_size < 0:
            raise ValueError(
                f"cache_size must be >= 0, got {cache_size}"
            )
        #: bounded LRU of completed results for seeded (deterministic)
        #: requests; 0 disables.  Sound because a cacheable request's
        #: result is a pure function of the request (see
        #: :func:`request_cache_key`).
        self.cache_size = cache_size
        self._cache: "OrderedDict[str, object]" = OrderedDict()
        self._clock = clock
        self.queue = FairQueue(weight_of=self._weight_of)
        self._tickets: dict[int, Ticket] = {}
        self._ids = itertools.count(1)
        self._in_flight = 0
        self._pool: ProcessPoolExecutor | None = None
        self._wakeup: asyncio.Event | None = None
        self._dispatcher: asyncio.Task | None = None
        self._running_tasks: set[asyncio.Task] = set()
        self._closing = False
        self._started_at: float | None = None
        #: The one source of every count, latency and level below.
        #: Rejections with no tenant state to charge them to (unknown
        #: tenant on a closed registry, submits while not running) get
        #: an empty ``tenant`` label, never the name the client sent —
        #: that keeps label cardinality bounded by the tenant registry.
        self.metrics = MetricsRegistry()
        self._requests = self.metrics.counter(
            "repro_service_requests_total",
            "Service requests by tenant and outcome.",
            ("tenant", "outcome"),
        )
        self._rejections = self.metrics.counter(
            "repro_service_rejections_total",
            "Admission rejections by tenant and stage (tenant is empty"
            " when no registered tenant can be charged).",
            ("tenant", "stage"),
        )
        self._cache_lookups = self.metrics.counter(
            "repro_service_cache_requests_total",
            "Broker result-cache lookups by outcome.",
            ("result",),
        )
        self._preemptions = self.metrics.counter(
            "repro_service_preemptions_total",
            "Bid-priced preemptions executed, by bidding tenant.",
            ("tenant",),
        )
        self._spend = self.metrics.counter(
            "repro_service_spend_total",
            "Money charged to each tenant's account.", ("tenant",),
        )
        self._earnings = self.metrics.counter(
            "repro_service_earnings_total",
            "Money credited to each tenant's account.", ("tenant",),
        )
        self._queue_wait = self.metrics.histogram(
            "repro_service_queue_wait_seconds",
            "Queue wait per dispatched request.",
            ("tenant",),
        )
        self._service_time = self.metrics.histogram(
            "repro_service_time_seconds",
            "Execution time per completed request.",
            ("tenant",),
        )
        queued = self.metrics.gauge(
            "repro_service_queued", "Requests waiting in the fair queue."
        )
        in_flight = self.metrics.gauge(
            "repro_service_in_flight", "Requests currently executing."
        )
        cache_entries = self.metrics.gauge(
            "repro_service_cache_entries",
            "Entries in the broker result cache.",
        )

        def collect_levels() -> None:  # refreshed at scrape time
            queued.set(len(self.queue))
            in_flight.set(self._in_flight)
            cache_entries.set(len(self._cache))

        self.metrics.register_collector(collect_levels)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @property
    def started(self) -> bool:
        return self._dispatcher is not None

    async def start(self) -> None:
        if self.started:
            return
        self._closing = False
        self._wakeup = asyncio.Event()
        if isinstance(self.executor, ParallelExecutor):
            # the standard parallel backend gets a *persistent* pool
            # (its own map() would cold-start one per request); custom
            # executors run through their map() in _run instead
            self._pool = ProcessPoolExecutor(max_workers=self.executor.jobs)
        self._dispatcher = asyncio.get_running_loop().create_task(
            self._dispatch_loop()
        )
        self._started_at = self._clock()

    async def aclose(self) -> None:
        """Stop accepting work, cancel everything queued, wait for
        in-flight requests, and shut the pool down."""
        if not self.started:
            return
        self._closing = True
        for ticket in list(self._tickets.values()):
            if not ticket.done:
                self.cancel(ticket)
        self._wakeup.set()
        await self._dispatcher
        self._dispatcher = None
        if self._running_tasks:
            await asyncio.gather(
                *self._running_tasks, return_exceptions=True
            )
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def _count(self, tenant: str, outcome: str) -> None:
        self._requests.labels(tenant=tenant, outcome=outcome).inc()

    def _reject(self, state: "TenantState | None", tenant: str,
                stage: str, message: str,
                detail: dict | None = None) -> AdmissionRejected:
        """Count one rejection — charged to ``state``'s tenant, or
        unattributed without one — and build the exception to raise."""
        self._rejections.labels(
            tenant="" if state is None else state.name, stage=stage
        ).inc()
        return _rejection(tenant, stage, message, detail)

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------

    def _weight_of(self, tenant: str) -> int:
        state = self.registry.get(tenant)
        return state.config.weight if state is not None else 1

    def preemption_quote(
        self, tenant: str, bid: float
    ) -> "dict | None":
        """Bidder-side half of a preemption, step 1: the tenant's tier
        rank plus whether it can afford ``bid`` (and the admission
        price on top — preempting into an unaffordable admission would
        waste the victim).  ``None`` for unknown tenants.  Shards
        expose this so a router can price a *cross-shard* preemption
        without owning the bidder's account."""
        state = self.registry.get(tenant)
        if state is None:
            return None
        cost = bid + state.config.admission_price
        affordable = (
            state.account is None or state.account.can_afford(cost)
        )
        return {
            "rank": tier_rank(state.config.tier),
            "affordable": affordable,
        }

    def cheapest_victim(self, below_rank: int) -> "Ticket | None":
        """The queued ticket a bid of rank ``below_rank`` would evict:
        lowest tier first, then lowest priority, then the most recently
        enqueued (maximum stability for old work).  ``None`` when no
        queued request sits strictly below the rank."""
        victim_ticket: "Ticket | None" = None
        victim_key = None
        for queued in self.queue.live_tickets():
            other = self.registry.get(queued.tenant)
            if other is None or queued.context is None:
                continue
            rank = tier_rank(other.config.tier)
            if rank >= below_rank:
                continue
            key = (rank, queued.priority, -queued.id)
            if victim_key is None or key < victim_key:
                victim_key = key
                victim_ticket = queued.context
        return victim_ticket

    def preempt_ticket(
        self, ticket_id: int, *, by: str, bid: float
    ) -> "str | None":
        """Victim-side half of a preemption: evict one queued ticket,
        credit its account the bid (compensation), and fail its future
        with a structured ``"preempted"`` record.  Returns the victim's
        tenant name, or ``None`` when the ticket is gone (finished,
        cancelled, or already dispatched — preemption never interrupts
        running work).  The bidder's charge is the separate
        :meth:`charge_preemption`, because in a sharded deployment the
        two halves land on different shards."""
        victim_ticket = self._tickets.get(ticket_id)
        if victim_ticket is None or victim_ticket.done:
            return None
        # capture state BEFORE cancel(): the queue nulls .context
        victim_state = self.registry.get(victim_ticket.tenant)
        if not self.queue.cancel(victim_ticket.queued):
            return None
        victim_state.n_queued -= 1
        victim_state.ensure_account().credit(
            bid, "preemption-credit",
            detail=f"evicted by {by} (ticket #{victim_ticket.id})",
        )
        self._earnings.labels(tenant=victim_state.name).inc(float(bid))
        self._tickets.pop(victim_ticket.id, None)
        self._count(victim_ticket.tenant, "preempted")
        victim_ticket.future.set_exception(
            self._reject(
                victim_state, victim_ticket.tenant, "preempted",
                f"request #{victim_ticket.id} was preempted by a"
                f" higher-tier bid from {by!r}; the account of"
                f" {victim_ticket.tenant!r} was credited"
                f" {bid:g} in compensation",
                detail={"preempted_by": by,
                        "compensation": bid},
            )
        )
        _log.info(
            "preempted ticket #%d of %s for a bid of %g from %s",
            victim_ticket.id, victim_ticket.tenant, bid, by,
        )
        return victim_ticket.tenant

    def charge_preemption(
        self, tenant: str, bid: float, *, victim: str, victim_ticket: int
    ) -> None:
        """Bidder-side half of a preemption, step 2: count the
        preemption and charge the bid."""
        state = self.registry.get(tenant)
        if state is None:
            return
        self._preemptions.labels(tenant=tenant).inc()
        self._charge(
            state, bid, "preemption-bid",
            f"evicted {victim} (ticket #{victim_ticket})",
        )

    def _charge(self, state: TenantState, amount: float, kind: str,
                detail: str = "") -> None:
        """Debit the tenant's account; the spend counter records only
        money the ledger moved (a charge it cannot cover moves none)."""
        if state.ensure_account().charge(amount, kind, detail):
            self._spend.labels(tenant=state.name).inc(float(amount))

    def _try_preempt(self, state: TenantState, bid: float | None) -> bool:
        """During overload, a positive ``bid`` from a higher SLA tier
        may evict one queued request of a *strictly lower* tier: the
        bidder pays the bid, the victim's account is credited it
        (compensation), and the victim's future fails with a structured
        ``"preempted"`` record.  Returns ``True`` when a slot was
        freed.  Composed from the quote/victim/preempt/charge pieces a
        :class:`~repro.service.shard.ShardRouter` drives individually
        when bidder and victim live on different shards."""
        if bid is None or bid <= 0:
            return False
        my_rank = tier_rank(state.config.tier)
        cost = bid + state.config.admission_price
        if state.account is not None and not state.account.can_afford(cost):
            return False  # can't pay the bid — no eviction
        victim_ticket = self.cheapest_victim(my_rank)
        if victim_ticket is None:
            return False
        victim_tenant = self.preempt_ticket(
            victim_ticket.id, by=state.name, bid=bid
        )
        if victim_tenant is None:
            return False
        self.charge_preemption(
            state.name, bid,
            victim=victim_tenant, victim_ticket=victim_ticket.id,
        )
        return True

    def _admit(self, tenant: str,
               bid: float | None = None) -> TenantState:
        """All rejection paths; capacity checks precede the (stateful)
        token bucket so a capacity bounce costs no token, and the
        admission charge lands last of all — only admitted requests
        (including cache hits, which resolve *after* this) pay."""
        state = self.registry.get(tenant)
        if state is None:
            raise self._reject(
                None, tenant, "unknown-tenant",
                f"tenant {tenant!r} is not registered (the registry is"
                f" closed to new tenants, or the auto-registration cap"
                f" was reached)",
            )
        config = state.config
        if state.n_queued >= config.max_queued:
            raise self._reject(
                state, tenant, "queue-full",
                f"tenant {tenant!r} already has {state.n_queued} requests"
                f" queued (quota {config.max_queued})",
                detail={"queued": state.n_queued,
                        "max_queued": config.max_queued},
            )
        if (
            len(self.queue) >= self.max_queue_depth
            and not self._try_preempt(state, bid)
        ):
            raise self._reject(
                state, tenant, "service-queue-full",
                f"service queue is full ({len(self.queue)} of"
                f" {self.max_queue_depth})",
                detail={"queued": len(self.queue),
                        "max_queue_depth": self.max_queue_depth},
            )
        # a broke tenant is bounced before the (stateful) token bucket
        # — an unaffordable request must not also burn a token
        price = config.admission_price
        if (
            price > 0
            and state.account is not None
            and not state.account.can_afford(price)
        ):
            raise self._reject(
                state, tenant, "insufficient-funds",
                f"tenant {tenant!r} cannot afford the admission price"
                f" ({price:g}; balance"
                f" {state.account.balance:g})",
                detail={"admission_price": price,
                        "balance": round(state.account.balance, 6)},
            )
        # the bucket is charged *last*: a request bounced for queue
        # capacity (possibly other tenants' congestion) must not also
        # burn one of this tenant's rate-limit tokens
        if state.bucket is not None and not state.bucket.try_take():
            raise self._reject(
                state, tenant, "rate-limit",
                f"tenant {tenant!r} exceeded its rate limit"
                f" ({config.rate_per_s:g}/s, burst {config.burst})",
                detail={"rate_per_s": config.rate_per_s,
                        "burst": config.burst},
            )
        if price > 0:
            # every admitted request pays the door fee — including the
            # ones a cache hit resolves without running the solver
            self._charge(state, price, "admission")
        return state

    async def submit(
        self,
        request,
        *,
        tenant: str = "default",
        priority: int = 0,
        deadline_s: float | None = None,
        bid: float | None = None,
    ) -> Ticket:
        """Admit one request; returns a :class:`Ticket` whose
        ``future`` resolves to the result.  Raises
        :class:`AdmissionRejected` (with the structured record) when a
        quota says no.

        ``bid`` is the price this tenant offers for a queue slot under
        overload: when the service queue is full, a positive bid from a
        higher SLA tier preempts one queued lower-tier request (see
        :meth:`_try_preempt`).  With capacity free, a bid costs
        nothing."""
        if bid is None:
            bid = getattr(request, "bid", None)
        trace_id = getattr(request, "trace_id", None)
        wall = time.time()
        if self._closing or not self.started:
            raise self._reject(
                None, tenant, "not-running",
                "the service is not accepting requests",
            )
        try:
            state = self._admit(tenant, bid)
        except AdmissionRejected as err:
            record_span(
                "service.admission", trace_id,
                start=wall, duration_s=time.time() - wall,
                status="error", error=err.record.message,
                tenant=tenant, stage=err.record.stage,
            )
            raise
        now = self._clock()
        ticket_id = next(self._ids)
        queued = QueuedTicket(
            id=ticket_id, tenant=tenant, priority=priority, payload=request
        )
        ticket = Ticket(
            id=ticket_id,
            tenant=tenant,
            priority=priority,
            request=request,
            enqueued_at=now,
            deadline=None if deadline_s is None else now + deadline_s,
            future=asyncio.get_running_loop().create_future(),
            queued=queued,
            enqueued_wall=wall,
        )
        queued.context = ticket
        key = (
            request_cache_key(request) if self.cache_size > 0 else None
        )
        if key is not None and key in self._cache:
            # resolved at the door: admission (quota, rate limit) was
            # still charged, but the solver never runs
            self._cache.move_to_end(key)
            self._cache_lookups.labels(result="hit").inc()
            self._count(tenant, "admitted")
            self._count(tenant, "completed")
            record_span(
                "service.admission", trace_id,
                start=wall, duration_s=time.time() - wall,
                tenant=tenant, ticket=ticket_id, cache_hit=True,
            )
            cached = self._cache[key]
            if (
                hasattr(cached, "request")
                and getattr(cached.request, "trace_id", None) != trace_id
            ):
                # the cached result answers *this* submission: rebind
                # its request so provenance (the trace id rides there)
                # reflects the submitter, not whoever warmed the cache
                # — the requests are identical apart from trace_id,
                # which the cache key deliberately ignores
                cached = _dc_replace(cached, request=request)
            ticket.future.set_result(cached)
            return ticket
        if key is not None:
            self._cache_lookups.labels(result="miss").inc()
            ticket.cache_key = key
        self._tickets[ticket_id] = ticket
        self.queue.push(queued)
        state.n_queued += 1
        self._count(tenant, "admitted")
        record_span(
            "service.admission", trace_id,
            start=wall, duration_s=time.time() - wall,
            tenant=tenant, ticket=ticket_id,
        )
        self._wakeup.set()
        return ticket

    async def result(self, ticket: Ticket):
        """Await one admitted request's outcome."""
        return await ticket.future

    def cancel(self, ticket: "Ticket | int") -> bool:
        """Cancel a queued request (lazy, like the simulator's event
        queue).  Returns ``False`` when the ticket is unknown, already
        finished, or already executing — in-flight solves are not
        interrupted."""
        if isinstance(ticket, int):
            ticket = self._tickets.get(ticket)
            if ticket is None:
                return False
        if ticket.done or not self.queue.cancel(ticket.queued):
            return False
        state = self.registry.get(ticket.tenant)
        state.n_queued -= 1
        self._count(ticket.tenant, "cancelled")
        ticket.future.cancel()
        self._tickets.pop(ticket.id, None)
        return True

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------

    def _eligible(self, tenant: str) -> bool:
        state = self.registry.get(tenant)
        return (
            state is not None
            and state.n_in_flight < state.config.max_in_flight
        )

    async def _dispatch_loop(self) -> None:
        while True:
            await self._wakeup.wait()
            self._wakeup.clear()
            if self._closing:
                return
            self._pump()

    def _pump(self) -> None:
        """Move tickets from the queue into execution while global and
        per-tenant concurrency allow."""
        while self._in_flight < self.max_in_flight:
            queued = self.queue.pop(eligible=self._eligible)
            if queued is None:
                return
            ticket: Ticket = queued.context
            state = self.registry.get(ticket.tenant)
            state.n_queued -= 1
            now = self._clock()
            if ticket.deadline is not None and now > ticket.deadline:
                self._count(ticket.tenant, "expired")
                record_span(
                    "service.queue", getattr(
                        ticket.request, "trace_id", None
                    ),
                    start=ticket.enqueued_wall,
                    duration_s=now - ticket.enqueued_at,
                    status="error", error="deadline expired in queue",
                    tenant=ticket.tenant, ticket=ticket.id,
                )
                self._tickets.pop(ticket.id, None)
                ticket.future.set_exception(
                    _rejection(
                        ticket.tenant, "deadline",
                        f"request #{ticket.id} spent"
                        f" {now - ticket.enqueued_at:.3f}s in queue,"
                        f" past its deadline — dropped unstarted",
                        detail={"queue_wait_s": now - ticket.enqueued_at},
                    )
                )
                continue
            self._queue_wait.labels(tenant=ticket.tenant).observe(
                now - ticket.enqueued_at
            )
            record_span(
                "service.queue", getattr(ticket.request, "trace_id", None),
                start=ticket.enqueued_wall,
                duration_s=now - ticket.enqueued_at,
                tenant=ticket.tenant, ticket=ticket.id,
            )
            self._in_flight += 1
            state.n_in_flight += 1
            task = asyncio.get_running_loop().create_task(
                self._run(ticket, state)
            )
            self._running_tasks.add(task)
            task.add_done_callback(self._running_tasks.discard)

    async def _run(self, ticket: Ticket, state: TenantState) -> None:
        start = self._clock()
        wall = time.time()
        trace_id = getattr(ticket.request, "trace_id", None)
        try:
            if self._pool is not None:
                result = await asyncio.get_running_loop().run_in_executor(
                    self._pool, execute_request, ticket.request
                )
            elif isinstance(self.executor, SerialExecutor):
                result = await asyncio.to_thread(
                    execute_request, ticket.request
                )
            else:
                # custom Executor backend (e.g. a future distributed
                # one): route the request through its map() off-loop
                result = (
                    await asyncio.to_thread(
                        self.executor.map, execute_request,
                        [ticket.request],
                    )
                )[0]
        except BaseException as err:  # noqa: BLE001 — relayed, not hidden
            self._count(ticket.tenant, "failed")
            record_span(
                "service.execute", trace_id,
                start=wall, duration_s=self._clock() - start,
                status="error", error=f"{type(err).__name__}: {err}",
                tenant=ticket.tenant, ticket=ticket.id,
                backend=self.executor.name,
            )
            if not ticket.future.done():
                ticket.future.set_exception(err)
        else:
            self._count(ticket.tenant, "completed")
            if getattr(result, "ok", True) is False:
                # a completed solve whose every strategy failed — the
                # result carries the records; count it for /stats
                self._count(ticket.tenant, "failed")
            elapsed = self._clock() - start
            self._service_time.labels(tenant=ticket.tenant).observe(elapsed)
            record_span(
                "service.execute", trace_id,
                start=wall, duration_s=elapsed,
                tenant=ticket.tenant, ticket=ticket.id,
                backend=self.executor.name,
            )
            if ticket.cache_key is not None and self.cache_size > 0:
                # failed-but-deterministic results cache too: the same
                # seeded request will fail the same way every time
                self._cache[ticket.cache_key] = result
                self._cache.move_to_end(ticket.cache_key)
                while len(self._cache) > self.cache_size:
                    self._cache.popitem(last=False)
            if not ticket.future.done():
                ticket.future.set_result(result)
        finally:
            self._in_flight -= 1
            state.n_in_flight -= 1
            self._tickets.pop(ticket.id, None)
            self._wakeup.set()

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    @property
    def queued(self) -> int:
        """Requests currently waiting in the fair queue."""
        return len(self.queue)

    @property
    def in_flight(self) -> int:
        """Requests currently executing."""
        return self._in_flight

    def snapshot(self) -> dict:
        """JSON-able service + per-tenant state for ``/stats``: a view
        over :attr:`metrics` (totals via :func:`stats_totals`) plus the
        live queue, tenant and account state."""
        requests = self._requests.totals()
        preemptions = self._preemptions.totals()
        waits = self._queue_wait.children()
        times = self._service_time.children()
        # preemption victims were admitted, not turned away at the
        # door: they count as "preempted", never as "rejected"
        rejected: dict[str, dict[str, int]] = {}
        for (tenant, stage), n in sorted(self._rejections.totals().items()):
            if stage != "preempted":
                rejected.setdefault(tenant, {})[stage] = n
        tenants = {}
        for state in self.registry:
            name, config = state.name, state.config
            row = {
                "weight": config.weight,
                "max_in_flight": config.max_in_flight,
                "max_queued": config.max_queued,
                "rate_per_s": config.rate_per_s,
                "burst": config.burst,
                "queued": state.n_queued,
                "in_flight": state.n_in_flight,
            }
            for outcome in _OUTCOMES:
                row[outcome] = requests.get((name, outcome), 0)
            row["rejected"] = rejected.get(name, {})
            row["n_rejected"] = sum(row["rejected"].values())
            # market counters only appear once bidding happens, keeping
            # pre-market snapshots byte-identical
            if requests.get((name, "preempted")):
                row["preempted"] = requests[(name, "preempted")]
            if preemptions.get((name,)):
                row["preemptions"] = preemptions[(name,)]
            for key, children in (("queue_wait_s", waits),
                                  ("service_time_s", times)):
                child = children.get((name,))
                if child is not None:
                    row[key] = child.summary()
            if config.tier != "standard":
                row["tier"] = config.tier
            if config.admission_price:
                row["admission_price"] = config.admission_price
            if state.account is not None:
                row["account"] = state.account.snapshot()
            tenants[name] = row
        totals, unattributed, cache, queue_wait = stats_totals(
            self.metrics, [(name,) for name in tenants]
        )
        out = {
            "service": {
                "backend": self.executor.name,
                "jobs": self.executor.jobs,
                "max_in_flight": self.max_in_flight,
                "max_queue_depth": self.max_queue_depth,
                "queued": len(self.queue),
                "in_flight": self._in_flight,
                "cache": {
                    "capacity": self.cache_size,
                    "size": len(self._cache),
                    **cache,
                },
                "uptime_s": (
                    round(self._clock() - self._started_at, 3)
                    if self._started_at is not None
                    else None
                ),
            },
            "totals": totals,
            "unattributed_rejections": unattributed,
            "tenants": tenants,
        }
        if queue_wait is not None:
            out["service"]["queue_wait_s"] = queue_wait
        return out
