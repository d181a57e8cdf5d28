"""Golden ``/stats`` payloads: the exact bytes of a scripted scenario.

One deterministic scenario (an injected fake clock, execution stubbed
to advance that clock) drives an :class:`AllocationService` through
every outcome ``/stats`` reports: each admission-rejection stage, a
cache hit and miss, a cancel, a deadline expiry, a raised execution
failure and an ``ok: false`` result, both sides of a bid preemption,
and spend.  The resulting ``json.dumps`` strings — key order, the
conditional market keys, and ints staying ints included — must match
the committed fixtures byte for byte, for a single service and for a
two-shard :class:`ShardRouter`.

The fixtures under ``golden/`` were generated by :func:`generate`
(``python -c "from tests.service.test_stats_golden import generate;
generate()"`` with ``PYTHONPATH=src``) and are only ever regenerated
when ``/stats`` is *meant* to change.
"""

import asyncio
import json
import pathlib
import types

import pytest

from repro.api import InstanceSpec, SolveRequest
from repro.service import (
    AdmissionRejected,
    AllocationService,
    LocalShard,
    ShardRouter,
    TenantConfig,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"

#: Seconds of fake-clock time each stubbed execution takes, by label.
DURATIONS = {
    "a1": 0.25, "b1": 0.5, "fail": 0.125, "raise": 0.0625, "g1": 1.0,
    "e1": 0.75, "e2": 0.375, "e3": 0.03125,
}


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class ClockedExecution:
    """Stands in for ``execute_request``: advances the clock of the
    running scenario by the request's duration, then raises
    (``raise``), returns a failed result (``fail``), or returns a
    successful one."""

    clock: "FakeClock | None" = None

    def __call__(self, request):
        label = request.label
        self.clock.now += DURATIONS[label]
        if label == "raise":
            raise RuntimeError("stubbed execution failure")
        ok = label != "fail"
        return types.SimpleNamespace(
            ok=ok, to_dict=lambda: {"label": label, "ok": ok}
        )


EXECUTE = ClockedExecution()


def new_clock() -> FakeClock:
    clock = EXECUTE.clock = FakeClock()
    return clock


def req(label: str, seed: int) -> SolveRequest:
    return SolveRequest(
        spec=InstanceSpec(n_operators=6, seed=seed), seed=seed,
        label=label,
    )


SERVICE_TENANTS = (
    TenantConfig("alice", max_queued=2),
    TenantConfig("bob", rate_per_s=0.0, burst=1),
    TenantConfig("carol", budget=1.0, admission_price=1.0),
    TenantConfig("gold", tier="gold", budget=50.0),
    TenantConfig("bronze", tier="bronze"),
    TenantConfig("dave"),
)


def make_service(clock: FakeClock) -> AllocationService:
    return AllocationService(
        tenants=SERVICE_TENANTS, auto_register=False, max_in_flight=1,
        max_queue_depth=7, cache_size=8, clock=clock,
    )


async def _rejected(service, request, tenant, stage, **kwargs) -> None:
    with pytest.raises(AdmissionRejected) as info:
        await service.submit(request, tenant=tenant, **kwargs)
    assert info.value.record.stage == stage


async def full_scenario(service: AllocationService,
                        clock: FakeClock) -> None:
    """Every /stats outcome on one service (the service must not be
    started yet; it is left running)."""
    await _rejected(service, req("a1", 1), "alice", "not-running")
    await service.start()
    clock.now = 1.0
    await _rejected(service, req("a1", 1), "mallory", "unknown-tenant")
    # submits never yield to the loop, so everything below stays
    # queued until the first await of a result
    tickets = [
        await service.submit(req("a1", 1), tenant="alice"),
        await service.submit(req("a1", 2), tenant="alice",
                             deadline_s=0.5),
    ]
    await _rejected(service, req("a1", 3), "alice", "queue-full")
    tickets.append(await service.submit(req("b1", 4), tenant="bob"))
    await _rejected(service, req("b1", 5), "bob", "rate-limit")
    tickets.append(await service.submit(req("fail", 6), tenant="carol"))
    await _rejected(service, req("fail", 7), "carol", "insufficient-funds")
    tickets.append(await service.submit(req("raise", 8), tenant="bronze"))
    cancelled = await service.submit(req("e1", 9), tenant="dave")
    victim = await service.submit(req("e2", 10), tenant="bronze")
    assert service.queued == 7
    await _rejected(service, req("e1", 11), "dave", "service-queue-full")
    tickets.append(
        await service.submit(req("g1", 12), tenant="gold", bid=3.0)
    )
    assert service.cancel(cancelled)
    clock.now = 2.0
    outcomes = await asyncio.gather(
        victim.future, *(t.future for t in tickets),
        return_exceptions=True,
    )
    assert outcomes[0].record.stage == "preempted"
    assert outcomes[2].record.stage == "deadline"
    assert isinstance(outcomes[5], RuntimeError)
    assert outcomes[4].ok is False
    clock.now = 10.0
    hit = await service.submit(req("a1", 1), tenant="alice")
    assert hit.done  # answered at the door from the result cache
    clock.now = 12.0


async def small_scenario(service: AllocationService,
                         clock: FakeClock) -> None:
    """Completions only, on a service that is already running."""
    tickets = [
        await service.submit(req(label, 20 + i), tenant="erin")
        for i, label in enumerate(("e1", "e2", "e3"))
    ]
    await asyncio.gather(*(t.future for t in tickets))


def service_stats() -> str:
    async def main():
        clock = new_clock()
        service = make_service(clock)
        await full_scenario(service, clock)
        snapshot = service.snapshot()
        await service.aclose()
        return json.dumps(snapshot)

    return asyncio.run(main())


def router_stats() -> str:
    async def main():
        clock = new_clock()
        s0 = LocalShard(name="s0", service=make_service(clock))
        s1 = LocalShard(
            name="s1",
            service=AllocationService(
                tenants=(TenantConfig("erin", weight=2),),
                max_in_flight=1, clock=clock,
            ),
        )
        router = ShardRouter(
            [s0, s1], shard_map={"erin": "s1", "frank": "s1"},
            clock=clock,
        )
        await full_scenario(s0.service, clock)
        await router.start()
        await small_scenario(s1.service, clock)
        clock.now = 20.0
        status, stats = await router.dispatch("GET", "/stats", b"")
        assert status == 200
        await router.aclose()
        return json.dumps(stats)

    return asyncio.run(main())


@pytest.fixture()
def stubbed(monkeypatch):
    monkeypatch.setattr("repro.service.broker.execute_request", EXECUTE)


def generate() -> None:
    """Rewrite the fixtures from the current tree."""
    import repro.service.broker as broker

    saved = broker.execute_request
    broker.execute_request = EXECUTE
    try:
        GOLDEN.mkdir(exist_ok=True)
        (GOLDEN / "stats_service.json").write_text(service_stats())
        (GOLDEN / "stats_router.json").write_text(router_stats())
    finally:
        broker.execute_request = saved


class TestGoldenStats:
    def test_service_stats_bytes(self, stubbed):
        golden = (GOLDEN / "stats_service.json").read_text()
        assert service_stats() == golden

    def test_router_stats_bytes(self, stubbed):
        assert router_stats() == (GOLDEN / "stats_router.json").read_text()

    def test_fixture_reaches_every_outcome(self):
        """The fixture itself exercises what it claims to pin."""
        stats = json.loads((GOLDEN / "stats_service.json").read_text())
        tenants = stats["tenants"]
        rejected = {
            stage for row in tenants.values() for stage in row["rejected"]
        } | set(stats["unattributed_rejections"])
        assert rejected == {
            "queue-full", "service-queue-full", "insufficient-funds",
            "rate-limit", "unknown-tenant", "not-running",
        }
        cache = stats["service"]["cache"]
        assert cache["hits"] >= 1 and cache["misses"] >= 1
        totals = stats["totals"]
        for key in ("cancelled", "expired", "failed", "preempted",
                    "spent"):
            assert totals[key], key
        assert tenants["gold"]["preemptions"] == 1
        assert tenants["bronze"]["preempted"] == 1
        assert tenants["bob"]["failed"] == 0
        assert tenants["carol"]["failed"] == 1
        assert tenants["bronze"]["failed"] == 1
