"""Broker semantics: admission, dispatch order, deadlines, cancellation.

Execution is stubbed (``execute_request`` monkeypatched to a gate-
controlled function returning the request label), so every scheduling
decision is deterministic and instant — no real solving here; the
end-to-end bit-identity tests live in ``test_client.py``.
"""

import asyncio
import threading

import pytest

from repro.api import InstanceSpec, SolveRequest
from repro.service import (
    AdmissionRejected,
    AllocationService,
    TenantConfig,
)


def req(label: str) -> SolveRequest:
    return SolveRequest(spec=InstanceSpec(n_operators=6, seed=1),
                        seed=1, label=label)


class GatedExecutor:
    """Stub executor: requests labelled ``block*`` wait on a gate."""

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
    stub = GatedExecutor()
    monkeypatch.setattr("repro.service.broker.execute_request", stub)
    return stub


def run(coro):
    return asyncio.run(coro)


async def _spin_until(predicate, timeout=10.0):
    """Yield to the loop until ``predicate()`` (worker threads run in
    parallel, so give them real time)."""
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        if asyncio.get_running_loop().time() > deadline:
            raise TimeoutError("condition never became true")
        await asyncio.sleep(0.01)


class TestDispatch:
    def test_priority_order_drains_high_first(self, gated):
        async def main():
            service = AllocationService(max_in_flight=1)
            await service.start()
            order = []
            blocker = await service.submit(req("block"))
            await _spin_until(gated.started.is_set)
            tickets = [
                await service.submit(req("low-1"), priority=0),
                await service.submit(req("high"), priority=5),
                await service.submit(req("low-2"), priority=0),
            ]
            for ticket in tickets:
                ticket.future.add_done_callback(
                    lambda f: order.append(f.result())
                )
            gated.gate.set()
            await asyncio.gather(*(t.future for t in [blocker] + tickets))
            await service.aclose()
            return order

        assert run(main()) == ["high", "low-1", "low-2"]

    def test_result_returns_executor_output(self, gated):
        async def main():
            service = AllocationService()
            await service.start()
            gated.gate.set()
            ticket = await service.submit(req("plain"))
            result = await service.result(ticket)
            await service.aclose()
            return result

        assert run(main()) == "plain"

    def test_fair_interleaving_across_tenants(self, gated):
        async def main():
            service = AllocationService(max_in_flight=1)
            await service.start()
            blocker = await service.submit(req("block"), tenant="flood")
            await _spin_until(gated.started.is_set)
            order = []
            tickets = []
            for i in range(4):
                tickets.append(
                    await service.submit(req(f"flood-{i}"), tenant="flood")
                )
            tickets.append(
                await service.submit(req("meek-0"), tenant="meek")
            )
            for ticket in tickets:
                ticket.future.add_done_callback(
                    lambda f: order.append(f.result())
                )
            gated.gate.set()
            await asyncio.gather(*(t.future for t in [blocker] + tickets))
            await service.aclose()
            return order

        order = run(main())
        # meek lands in the first fair rotation (the blocker already
        # consumed one of flood's turns), not behind the flood
        assert order.index("meek-0") <= 1
        assert [x for x in order if x.startswith("flood")] == [
            f"flood-{i}" for i in range(4)
        ]


class TestAdmission:
    def test_rate_limit_rejects_with_record(self, gated):
        async def main():
            service = AllocationService(
                tenants=(TenantConfig("slow", rate_per_s=0.0, burst=1),),
            )
            await service.start()
            gated.gate.set()
            first = await service.submit(req("a"), tenant="slow")
            await service.result(first)
            try:
                await service.submit(req("b"), tenant="slow")
                raise AssertionError("second submit was admitted")
            except AdmissionRejected as err:
                record = err.record
            snapshot = service.snapshot()
            await service.aclose()
            return record, snapshot

        record, snapshot = run(main())
        assert record.stage == "rate-limit"
        assert record.error_type == "AdmissionError"
        assert "slow" in record.strategy
        assert snapshot["tenants"]["slow"]["rejected"] == {"rate-limit": 1}

    def test_tenant_queue_quota(self, gated):
        async def main():
            service = AllocationService(
                tenants=(TenantConfig("q", max_queued=1),),
                max_in_flight=1,
            )
            await service.start()
            blocker = await service.submit(req("block"), tenant="other")
            await _spin_until(gated.started.is_set)
            await service.submit(req("first"), tenant="q")
            try:
                await service.submit(req("second"), tenant="q")
                stage = None
            except AdmissionRejected as err:
                stage = err.record.stage
            gated.gate.set()
            await service.result(blocker)
            await service.aclose()
            return stage

        assert run(main()) == "queue-full"

    def test_global_queue_bound(self, gated):
        async def main():
            service = AllocationService(
                max_in_flight=1, max_queue_depth=1
            )
            await service.start()
            blocker = await service.submit(req("block"))
            await _spin_until(gated.started.is_set)  # blocker dispatched
            await service.submit(req("queued"))
            try:
                await service.submit(req("overflow"), tenant="other")
                stage = None
            except AdmissionRejected as err:
                stage = err.record.stage
            gated.gate.set()
            await service.result(blocker)
            await service.aclose()
            return stage

        assert run(main()) == "service-queue-full"

    def test_closed_registry_rejects_strangers(self, gated):
        async def main():
            service = AllocationService(
                tenants=(TenantConfig("vip"),), auto_register=False
            )
            await service.start()
            gated.gate.set()
            try:
                await service.submit(req("x"), tenant="stranger")
                stage = None
            except AdmissionRejected as err:
                stage = err.record.stage
            await service.aclose()
            return stage

        assert run(main()) == "unknown-tenant"

    def test_submit_before_start_rejected(self):
        async def main():
            service = AllocationService()
            try:
                await service.submit(req("x"))
                return None
            except AdmissionRejected as err:
                return err.record.stage

        assert run(main()) == "not-running"


class TestDeadlinesAndCancellation:
    def test_expired_deadline_drops_unstarted(self, gated):
        async def main():
            service = AllocationService(max_in_flight=1)
            await service.start()
            blocker = await service.submit(req("block"))
            await _spin_until(gated.started.is_set)
            doomed = await service.submit(req("late"), deadline_s=0.0)
            gated.gate.set()
            await service.result(blocker)
            try:
                await service.result(doomed)
                stage = None
            except AdmissionRejected as err:
                stage = err.record.stage
            snapshot = service.snapshot()
            await service.aclose()
            return stage, snapshot

        stage, snapshot = run(main())
        assert stage == "deadline"
        assert snapshot["totals"]["expired"] == 1

    def test_cancel_queued_request(self, gated):
        async def main():
            service = AllocationService(max_in_flight=1)
            await service.start()
            blocker = await service.submit(req("block"))
            await _spin_until(gated.started.is_set)
            victim = await service.submit(req("victim"))
            assert service.cancel(victim)
            assert not service.cancel(victim)  # idempotent
            gated.gate.set()
            await service.result(blocker)
            cancelled = victim.future.cancelled()
            snapshot = service.snapshot()
            await service.aclose()
            return cancelled, snapshot

        cancelled, snapshot = run(main())
        assert cancelled
        assert snapshot["totals"]["cancelled"] == 1
        assert snapshot["totals"]["completed"] == 1

    def test_cancel_by_unknown_id_is_false(self, gated):
        async def main():
            service = AllocationService()
            await service.start()
            outcome = service.cancel(424242)
            await service.aclose()
            return outcome

        assert run(main()) is False


class TestSnapshot:
    def test_service_block_shape(self, gated):
        async def main():
            service = AllocationService(max_in_flight=2,
                                        max_queue_depth=7)
            await service.start()
            gated.gate.set()
            ticket = await service.submit(req("x"), tenant="acme")
            await service.result(ticket)
            snapshot = service.snapshot()
            await service.aclose()
            return snapshot

        snapshot = run(main())
        service_block = snapshot["service"]
        assert service_block["backend"] == "serial"
        assert service_block["max_in_flight"] == 2
        assert service_block["max_queue_depth"] == 7
        assert service_block["queued"] == 0
        assert service_block["in_flight"] == 0
        assert snapshot["totals"]["admitted"] == 1
        assert "queue_wait_s" in service_block
        tenant = snapshot["tenants"]["acme"]
        assert tenant["completed"] == 1
        assert "service_time_s" in tenant


class TestExecuteRequest:
    def test_rejects_unknown_request_types(self):
        from repro.service.broker import execute_request

        with pytest.raises(TypeError, match="SolveRequest"):
            execute_request({"not": "a request"})


class RecordingExecutor:
    """Custom Executor-protocol backend; counts what it runs."""

    name = "recording"
    jobs = 1

    def __init__(self):
        self.executed = []

    def map(self, fn, items):
        items = list(items)
        self.executed.extend(items)
        return [fn(item) for item in items]


class TestCustomExecutorBackend:
    def test_requests_route_through_the_backends_map(self, gated):
        backend = RecordingExecutor()

        async def main():
            service = AllocationService(jobs=backend)
            await service.start()
            gated.gate.set()
            ticket = await service.submit(req("via-backend"))
            result = await service.result(ticket)
            snapshot = service.snapshot()
            await service.aclose()
            return result, snapshot

        result, snapshot = run(main())
        assert result == "via-backend"
        assert [r.label for r in backend.executed] == ["via-backend"]
        assert snapshot["service"]["backend"] == "recording"


class TestAdmissionOrdering:
    def test_capacity_bounce_burns_no_token(self, gated):
        """A queue-full rejection must not consume a rate-limit token:
        with burst=2, one admit + one queue-full bounce must leave one
        token for the retry."""
        async def main():
            service = AllocationService(
                tenants=(TenantConfig("t", rate_per_s=0.0, burst=2,
                                      max_queued=1),),
                max_in_flight=1,
            )
            await service.start()
            blocker = await service.submit(req("block"), tenant="other")
            await _spin_until(gated.started.is_set)
            first = await service.submit(req("r1"), tenant="t")
            stages = []
            try:
                await service.submit(req("r2"), tenant="t")
            except AdmissionRejected as err:
                stages.append(err.record.stage)
            gated.gate.set()
            await service.result(blocker)
            await service.result(first)
            # the bounced submit left its token: this one is admitted
            third = await service.submit(req("r3"), tenant="t")
            await service.result(third)
            try:
                await service.submit(req("r4"), tenant="t")
            except AdmissionRejected as err:
                stages.append(err.record.stage)
            await service.aclose()
            return stages

        assert run(main()) == ["queue-full", "rate-limit"]


class TestAggregateQueueWait:
    def test_service_summary_spans_all_tenants(self, gated):
        """The service-level queue-wait aggregate must cover every
        tenant's window (not just the last registered one) and count
        lifetime samples."""
        async def main():
            service = AllocationService()
            await service.start()
            waits = service.metrics.get("repro_service_queue_wait_seconds")
            for tenant, wait in (("a", 1.0), ("a", 3.0), ("b", 100.0)):
                service.registry.get(tenant)  # registers the tenant
                waits.labels(tenant=tenant).observe(wait)
            snapshot = service.snapshot()
            await service.aclose()
            return snapshot

        summary = run(main())["service"]["queue_wait_s"]
        assert summary["count"] == 3
        assert summary["window"] == 3
        assert summary["max"] == 100.0  # tenant b's sample included
        assert summary["p50"] == 3.0


class TestUnattributedRejections:
    def test_unknown_tenant_rejections_show_in_stats(self, gated):
        """A locked-down service turning away a misnamed tenant must
        not report zero rejects."""
        async def main():
            service = AllocationService(
                tenants=(TenantConfig("gold"),), auto_register=False
            )
            await service.start()
            gated.gate.set()
            for _ in range(3):
                try:
                    await service.submit(req("x"), tenant="glod")
                except AdmissionRejected:
                    pass
            snapshot = service.snapshot()
            await service.aclose()
            return snapshot

        snapshot = run(main())
        assert snapshot["totals"]["rejected"] == 3
        assert snapshot["unattributed_rejections"] == {
            "unknown-tenant": 3
        }
