"""The service's metrics registry and the views read from it.

Each :class:`AllocationService` records every count, latency and level
once, into its own :class:`~repro.telemetry.MetricsRegistry`; ``/stats``,
``/metrics`` and the ``/v1/shard/metrics`` export only read it.  These
tests pin that contract: per-service isolation (two services in one
process no longer share gauges), one bump per outcome, bounded label
cardinality, and the ``/stats`` shapes the registry now backs.
"""

import asyncio
import re
import threading

import pytest

import repro.simulator.engine  # noqa: F401 — registers repro_sim_*
from repro.api import InstanceSpec, SolveRequest
from repro.service import (
    AdmissionRejected,
    AllocationService,
    LocalShard,
    ShardRouter,
    TenantConfig,
)
from repro.telemetry import get_registry


def req(label: str, seed: int = 1) -> SolveRequest:
    return SolveRequest(spec=InstanceSpec(n_operators=6, seed=seed),
                        seed=seed, label=label)


def run(coro):
    return asyncio.run(coro)


class Gate:
    """Stub ``execute_request``: ``block``-labelled requests hold their
    executor slot until the gate opens."""

    def __init__(self):
        self.gate = threading.Event()
        self.started = threading.Event()

    def __call__(self, request):
        if request.label.startswith("block"):
            self.started.set()
            if not self.gate.wait(timeout=30):
                raise TimeoutError("gate never opened")
        return request.label


@pytest.fixture()
def gated(monkeypatch):
    stub = Gate()
    monkeypatch.setattr("repro.service.broker.execute_request", stub)
    return stub


async def _spin_until(predicate, timeout=10.0):
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        if asyncio.get_running_loop().time() > deadline:
            raise TimeoutError("condition never became true")
        await asyncio.sleep(0.01)


def _child_counts(service) -> dict:
    return {
        name: len(family.children())
        for name, family in service.metrics._families.items()
    }


class TestLatencySeries:
    def test_empty_summary_is_none(self):
        """No dispatched request → no queue-wait window anywhere: the
        service-level summary is omitted and the histogram has no
        child."""
        async def main():
            service = AllocationService(tenants=(TenantConfig("t"),))
            await service.start()
            snapshot = service.snapshot()
            await service.aclose()
            return snapshot, service.metrics

        snapshot, metrics = run(main())
        assert "queue_wait_s" not in snapshot["service"]
        waits = metrics.get("repro_service_queue_wait_seconds")
        assert waits.children() == {}

    def test_summary_fields(self):
        """Samples observed into a tenant's histogram child surface as
        that tenant's ``/stats`` summary."""
        service = AllocationService(tenants=(TenantConfig("t"),))
        waits = service.metrics.get("repro_service_queue_wait_seconds")
        for v in (0.1, 0.2, 0.3, 0.4):
            waits.labels(tenant="t").observe(v)
        summary = service.snapshot()["tenants"]["t"]["queue_wait_s"]
        assert summary["count"] == 4
        assert summary["mean"] == pytest.approx(0.25)
        assert summary["p50"] == pytest.approx(0.25)
        assert summary["max"] == pytest.approx(0.4)


class TestTenantMetrics:
    def test_rejection_breakdown(self, gated):
        async def main():
            service = AllocationService(
                tenants=(TenantConfig("t", max_queued=1, rate_per_s=0.0,
                                      burst=1),),
                max_in_flight=1,
            )
            await service.start()
            await service.submit(req("block"))  # holds the one slot
            await _spin_until(gated.started.is_set)
            queued = await service.submit(req("queued"), tenant="t")
            stages = []
            for cancel_first in (False, False, True):
                if cancel_first:
                    assert service.cancel(queued)
                with pytest.raises(AdmissionRejected) as info:
                    await service.submit(req("more"), tenant="t")
                stages.append(info.value.record.stage)
            snapshot = service.snapshot()
            gated.gate.set()
            await service.aclose()
            return stages, snapshot

        stages, snapshot = run(main())
        assert stages == ["queue-full", "queue-full", "rate-limit"]
        row = snapshot["tenants"]["t"]
        assert row["rejected"] == {"queue-full": 2, "rate-limit": 1}
        assert row["n_rejected"] == 3
        assert row["cancelled"] == 1
        assert snapshot["totals"]["rejected"] == 3

    def test_snapshot_omits_empty_series(self):
        service = AllocationService(tenants=(TenantConfig("t"),))
        row = service.snapshot()["tenants"]["t"]
        assert "queue_wait_s" not in row
        assert "service_time_s" not in row
        assert row["admitted"] == 0 and row["rejected"] == {}


class TestOneSource:
    def test_each_rejection_is_counted_once(self, gated):
        """Counted where raised: the /stats view and the registry agree,
        and submit() does not count the same rejection again."""
        async def main():
            service = AllocationService(
                tenants=(TenantConfig("t", rate_per_s=0.0, burst=1),),
                auto_register=False,
            )
            await service.start()
            await service.submit(req("ok", 1), tenant="t")
            for tenant in ("t", "stranger"):
                with pytest.raises(AdmissionRejected):
                    await service.submit(req("ok", 2), tenant=tenant)
            await service.aclose()
            with pytest.raises(AdmissionRejected):
                await service.submit(req("ok", 3), tenant="t")
            return service

        service = run(main())
        assert service.metrics.get(
            "repro_service_rejections_total"
        ).totals() == {
            ("t", "rate-limit"): 1,
            ("", "unknown-tenant"): 1,
            ("", "not-running"): 1,
        }
        snapshot = service.snapshot()
        assert snapshot["totals"]["rejected"] == 3
        assert snapshot["unattributed_rejections"] == {
            "not-running": 1, "unknown-tenant": 1,
        }

    def test_preemption_victims_stay_out_of_rejected(self, gated):
        async def main():
            service = AllocationService(
                tenants=(TenantConfig("gold", tier="gold"),
                         TenantConfig("bronze", tier="bronze")),
                max_in_flight=1, max_queue_depth=1,
            )
            await service.start()
            await service.submit(req("block"), tenant="bronze")
            await _spin_until(gated.started.is_set)
            victim = await service.submit(req("victim"), tenant="bronze")
            await service.submit(req("bid"), tenant="gold", bid=2.0)
            with pytest.raises(AdmissionRejected):
                await victim.future
            snapshot = service.snapshot()
            text = service.metrics.render()
            gated.gate.set()
            await service.aclose()
            return snapshot, text

        snapshot, text = run(main())
        assert snapshot["totals"]["rejected"] == 0
        assert snapshot["totals"]["preempted"] == 1
        assert snapshot["tenants"]["bronze"]["rejected"] == {}
        assert snapshot["tenants"]["bronze"]["preempted"] == 1
        assert snapshot["tenants"]["gold"]["preemptions"] == 1
        assert ('repro_service_rejections_total{tenant="bronze",'
                'stage="preempted"} 1') in text
        assert 'repro_service_preemptions_total{tenant="gold"} 1' in text

    def test_closed_registry_keeps_label_cardinality(self):
        """1,000 submits from distinct unknown tenants add no child to
        any service family: unattributed rejections carry no label
        taken from the client's tenant name."""
        async def main():
            service = AllocationService(
                tenants=(TenantConfig("known"),), auto_register=False
            )
            await service.start()
            with pytest.raises(AdmissionRejected):
                await service.submit(req("warm"), tenant="stranger")
            before = _child_counts(service)
            for i in range(1000):
                with pytest.raises(AdmissionRejected):
                    await service.submit(req("x"), tenant=f"who-{i}")
            after = _child_counts(service)
            text = service.metrics.render()
            await service.aclose()
            return before, after, text, service

        before, after, text, service = run(main())
        assert after == before
        assert "who-" not in text
        assert service.snapshot()["unattributed_rejections"] == {
            "unknown-tenant": 1001
        }


class TestPerShardGauges:
    def test_two_local_shards_keep_their_own_levels(self, gated):
        """Two in-process shards with 3 and 7 queued requests: the
        router's merged /metrics reports each under its shard label,
        and every process-level family exactly once."""
        async def main():
            shards = [
                LocalShard(name=name, max_in_flight=1)
                for name in ("s0", "s1")
            ]
            router = ShardRouter(shards)
            await router.start()
            for shard, n in zip(shards, (3, 7)):
                gated.started.clear()
                await shard.service.submit(req("block"))
                await _spin_until(gated.started.is_set)
                for i in range(n):
                    await shard.service.submit(req(f"q{i}"))
            status, payload = await router.dispatch("GET", "/metrics", b"")
            gated.gate.set()
            await router.aclose()
            return status, payload.text

        status, text = run(main())
        assert status == 200
        assert 'repro_service_queued{shard="s0"} 3' in text
        assert 'repro_service_queued{shard="s1"} 7' in text
        assert not re.search(r"^repro_service_queued ", text, re.M)
        process = [
            name for name, family in get_registry()._families.items()
        ]
        assert any(name.startswith("repro_sim_") for name in process)
        for name in process:
            assert text.count(f"# TYPE {name} ") == 1, name
            assert not re.search(
                rf'^{name}\S*\{{shard="', text, re.M
            ), name
        for name in ("repro_service_queued", "repro_service_requests_total"):
            assert text.count(f"# TYPE {name} ") == 1


class TestSpendCounters:
    def test_spend_is_money_that_moved_and_survives_a_recontract(
        self, gated
    ):
        """Each admission fee bumps the tenant's spend counter, and
        ``totals.spent`` reads that counter.  A re-registration that
        changes the budget terms rebuilds the account, so the row's
        ``account.spent`` restarts at 0; the counter, which is money
        that already moved, does not."""
        gated.gate.set()
        price = TenantConfig("t", budget=10.0, admission_price=1.5)

        async def main():
            service = AllocationService(tenants=(price,))
            await service.start()
            for seed in (1, 2):
                ticket = await service.submit(req("a", seed), tenant="t")
                await service.result(ticket)
            before = service.snapshot()
            service.registry.register(
                TenantConfig("t", budget=20.0, admission_price=1.5)
            )
            recontracted = service.snapshot()
            await service.result(
                await service.submit(req("b", 3), tenant="t")
            )
            after = service.snapshot()
            spend = service.metrics.get("repro_service_spend_total")
            await service.aclose()
            return before, recontracted, after, spend.totals()

        before, recontracted, after, spend = run(main())
        assert before["tenants"]["t"]["account"]["spent"] == 3.0
        assert before["totals"]["spent"] == 3.0
        assert recontracted["tenants"]["t"]["account"]["spent"] == 0.0
        assert recontracted["totals"]["spent"] == 3.0
        assert after["tenants"]["t"]["account"]["spent"] == 1.5
        assert after["totals"]["spent"] == 4.5
        assert spend == {("t",): 4.5}

    def test_an_uncovered_charge_counts_no_spend(self):
        """A preemption charge the account cannot cover moves no money,
        so it bumps no spend counter (the preemption itself is still
        counted)."""
        service = AllocationService(
            tenants=(TenantConfig("poor", tier="gold", budget=1.0),)
        )
        service.charge_preemption(
            "poor", 5.0, victim="someone", victim_ticket=1
        )
        snapshot = service.snapshot()
        assert snapshot["tenants"]["poor"]["preemptions"] == 1
        assert snapshot["tenants"]["poor"]["account"]["spent"] == 0.0
        assert "spent" not in snapshot["totals"]
        assert not service.metrics.get("repro_service_spend_total").totals()
