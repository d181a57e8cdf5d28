"""The service economy: admission prices, bids, preemption.

Execution is stubbed exactly as in ``test_broker.py`` (gate-controlled
``execute_request``), so every admission decision and every currency
movement is deterministic.  The load-bearing regressions:

* a **cache hit still debits** the tenant — the admission price is the
  door fee, not the compute fee;
* preemption moves money, it never destroys it: the bidder pays the
  bid, the victim's account is credited the same amount;
* a bid preempts only *strictly lower* tiers, only under overload, and
  only when the bidder can afford bid + admission price.
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


def req(label: str, seed: int = 1) -> SolveRequest:
    return SolveRequest(spec=InstanceSpec(n_operators=6, seed=seed),
                        seed=seed, label=label)


class GatedExecutor:
    """Stub executor: requests labelled ``block*`` wait on a gate."""

    def __init__(self):
        self.gate = threading.Event()
        self.started = threading.Event()
        self.calls = 0

    def __call__(self, request):
        self.calls += 1
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
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        if asyncio.get_running_loop().time() > deadline:
            raise TimeoutError("condition never became true")
        await asyncio.sleep(0.01)


async def _overloaded(service, gated, *victims):
    """Start ``service``, jam its single executor slot, and fill the
    global queue with ``(tenant, priority)`` victim submissions.
    Returns (blocker_ticket, victim_tickets)."""
    await service.start()
    blocker = await service.submit(req("block"), tenant=victims[0][0])
    await _spin_until(gated.started.is_set)
    tickets = []
    for i, (tenant, priority) in enumerate(victims):
        tickets.append(
            await service.submit(req(f"victim-{i}", seed=10 + i),
                                 tenant=tenant, priority=priority)
        )
    return blocker, tickets


async def _drain(service, gated, blocker, tickets):
    gated.gate.set()
    await asyncio.gather(
        *(t.future for t in [blocker] + list(tickets)),
        return_exceptions=True,
    )
    await service.aclose()


class TestAdmissionPrice:
    def test_admitted_request_pays_the_door_fee(self, gated):
        async def main():
            service = AllocationService(
                tenants=(TenantConfig("acme", budget=10.0,
                                      admission_price=1.5),),
                auto_register=False,
            )
            await service.start()
            gated.gate.set()
            ticket = await service.submit(req("a"), tenant="acme")
            await ticket.future
            await service.aclose()
            return service.registry.get("acme").account

        account = run(main())
        assert account.spent == pytest.approx(1.5)
        assert account.balance == pytest.approx(8.5)

    def test_cache_hit_still_debits(self, gated):
        # the regression this file exists for: the second, cache-served
        # submit must cost exactly what the first did
        async def main():
            service = AllocationService(
                tenants=(TenantConfig("acme", budget=10.0,
                                      admission_price=1.5),),
                auto_register=False,
            )
            await service.start()
            gated.gate.set()
            first = await service.submit(req("same", seed=3),
                                         tenant="acme")
            await first.future
            second = await service.submit(req("same", seed=3),
                                          tenant="acme")
            await second.future
            await service.aclose()
            snap = service.snapshot()
            return (
                snap["service"]["cache"]["hits"],
                gated.calls,
                service.registry.get("acme").account.spent,
            )

        hits, solver_calls, spent = run(main())
        assert hits == 1
        assert solver_calls == 1  # the second submit never ran
        assert spent == pytest.approx(3.0)  # ...but it still paid

    def test_broke_tenant_bounced_before_token_bucket(self, gated):
        async def main():
            service = AllocationService(
                tenants=(TenantConfig("broke", budget=1.0,
                                      admission_price=2.0,
                                      rate_per_s=0.0, burst=1),),
                auto_register=False,
            )
            await service.start()
            state = service.registry.get("broke")
            with pytest.raises(AdmissionRejected) as err:
                await service.submit(req("a"), tenant="broke")
            await service.aclose()
            return err.value.record, state

        record, state = run(main())
        assert record.stage == "insufficient-funds"
        assert record.detail["admission_price"] == 2.0
        # the rejection burned no rate-limit token and moved no money
        assert state.bucket.tokens == pytest.approx(1.0)
        assert state.account.spent == 0.0

    def test_free_tenants_never_grow_account_keys(self, gated):
        # bit-identity guard at the snapshot level: plain tenants show
        # no tier/account/spent keys even after real traffic
        async def main():
            service = AllocationService()
            await service.start()
            gated.gate.set()
            ticket = await service.submit(req("a"), tenant="plain")
            await ticket.future
            await service.aclose()
            return service.snapshot()

        snap = run(main())
        row = snap["tenants"]["plain"]
        assert "tier" not in row and "account" not in row
        assert "spent" not in snap["totals"]
        assert "preempted" not in snap["totals"]


def _tiered_service(**configs):
    tenants = tuple(
        TenantConfig(name, **kw) for name, kw in configs.items()
    )
    return AllocationService(
        tenants=tenants, auto_register=False,
        max_in_flight=1, max_queue_depth=2,
    )


class TestPreemption:
    def test_gold_bid_evicts_bronze_and_compensates(self, gated):
        async def main():
            service = _tiered_service(
                gold={"tier": "gold", "budget": 100.0,
                      "admission_price": 1.0},
                bronze={"tier": "bronze"},
            )
            blocker, tickets = await _overloaded(
                service, gated, ("bronze", 0), ("bronze", 0)
            )
            # queue is full (2/2): gold's bid frees a slot
            winner = await service.submit(req("gold"), tenant="gold",
                                          bid=25.0)
            await _drain(service, gated, blocker, tickets + [winner])
            return service, tickets, winner

        service, tickets, winner = run(main())
        failures = [t for t in tickets if t.future.exception()]
        assert len(failures) == 1
        record = failures[0].future.exception().record
        assert record.stage == "preempted"
        assert record.detail == {"preempted_by": "gold",
                                 "compensation": 25.0}
        assert winner.future.result() == "gold"
        gold = service.registry.get("gold")
        bronze = service.registry.get("bronze")
        # money moved: bid + admission out of gold, bid into bronze
        assert gold.account.spent == pytest.approx(26.0)
        assert bronze.account.earned == pytest.approx(25.0)
        rows = service.snapshot()["tenants"]
        assert rows["gold"]["preemptions"] == 1
        assert rows["bronze"]["preempted"] == 1

    def test_victim_is_lowest_tier_lowest_priority_youngest(self, gated):
        async def main():
            service = _tiered_service(
                gold={"tier": "gold"},
                std={"tier": "standard"},
                bronze={"tier": "bronze"},
            )
            service.max_queue_depth = 3
            blocker, tickets = await _overloaded(
                service, gated,
                ("std", 0), ("bronze", 5), ("bronze", 5),
            )
            await service.submit(req("gold"), tenant="gold", bid=1.0)
            await _drain(service, gated, blocker, tickets)
            return tickets

        tickets = run(main())
        exceptions = [t.future.exception() for t in tickets]
        # standard outranks bronze; of the two equal-priority bronze
        # requests the *younger* one loses (stability for old work)
        assert exceptions[0] is None
        assert exceptions[1] is None
        assert exceptions[2].record.stage == "preempted"

    def test_no_preemption_without_a_bid(self, gated):
        async def main():
            service = _tiered_service(
                gold={"tier": "gold"}, bronze={"tier": "bronze"},
            )
            blocker, tickets = await _overloaded(
                service, gated, ("bronze", 0), ("bronze", 0)
            )
            with pytest.raises(AdmissionRejected) as err:
                await service.submit(req("gold"), tenant="gold")
            await _drain(service, gated, blocker, tickets)
            return err.value.record, tickets

        record, tickets = run(main())
        assert record.stage == "service-queue-full"
        assert all(t.future.exception() is None for t in tickets)

    def test_equal_tier_is_never_preempted(self, gated):
        async def main():
            service = _tiered_service(
                a={"tier": "gold"}, b={"tier": "gold"},
            )
            blocker, tickets = await _overloaded(
                service, gated, ("b", 0), ("b", 0)
            )
            with pytest.raises(AdmissionRejected) as err:
                await service.submit(req("a"), tenant="a", bid=100.0)
            await _drain(service, gated, blocker, tickets)
            return err.value.record

        assert run(main()).stage == "service-queue-full"

    def test_unaffordable_bid_does_not_evict(self, gated):
        async def main():
            service = _tiered_service(
                gold={"tier": "gold", "budget": 5.0,
                      "admission_price": 1.0},
                bronze={"tier": "bronze"},
            )
            blocker, tickets = await _overloaded(
                service, gated, ("bronze", 0), ("bronze", 0)
            )
            with pytest.raises(AdmissionRejected) as err:
                # bid 10 + price 1 > budget 5 — no eviction, no charge
                await service.submit(req("gold"), tenant="gold",
                                     bid=10.0)
            await _drain(service, gated, blocker, tickets)
            return err.value.record, service

        record, service = run(main())
        assert record.stage == "service-queue-full"
        assert service.registry.get("gold").account.spent == 0.0
        rows = service.snapshot()["tenants"]
        assert all(
            rows[t].get("preempted", 0) == 0 for t in ("bronze",)
        )

    def test_bid_with_free_capacity_costs_nothing(self, gated):
        async def main():
            service = _tiered_service(
                gold={"tier": "gold", "budget": 100.0},
                bronze={"tier": "bronze"},
            )
            await service.start()
            gated.gate.set()
            ticket = await service.submit(req("gold"), tenant="gold",
                                          bid=25.0)
            await ticket.future
            await service.aclose()
            return service.registry.get("gold").account

        account = run(main())
        assert account.spent == 0.0  # no admission price, no contention

    def test_request_carried_bid_is_honoured(self, gated):
        # `repro submit --bid` travels on the SolveRequest itself; the
        # broker must pick it up when the submit call passes none
        async def main():
            service = _tiered_service(
                gold={"tier": "gold"}, bronze={"tier": "bronze"},
            )
            blocker, tickets = await _overloaded(
                service, gated, ("bronze", 0), ("bronze", 0)
            )
            request = SolveRequest(
                spec=InstanceSpec(n_operators=6, seed=2),
                seed=2, label="gold", bid=7.5,
            )
            winner = await service.submit(request, tenant="gold")
            await _drain(service, gated, blocker, tickets + [winner])
            return service, tickets

        service, tickets = run(main())
        preempted = [t for t in tickets if t.future.exception()]
        assert len(preempted) == 1
        assert preempted[0].future.exception().record.detail[
            "compensation"
        ] == 7.5
        assert service.registry.get("gold").account.spent == (
            pytest.approx(7.5)
        )

    def test_stats_surface_the_economy(self, gated):
        async def main():
            service = _tiered_service(
                gold={"tier": "gold", "budget": 100.0,
                      "admission_price": 1.0},
                bronze={"tier": "bronze"},
            )
            blocker, tickets = await _overloaded(
                service, gated, ("bronze", 0), ("bronze", 0)
            )
            winner = await service.submit(req("gold"), tenant="gold",
                                          bid=25.0)
            await _drain(service, gated, blocker, tickets + [winner])
            return service.snapshot()

        snap = run(main())
        gold = snap["tenants"]["gold"]
        bronze = snap["tenants"]["bronze"]
        assert gold["tier"] == "gold"
        assert gold["account"]["budget"] == 100.0
        assert gold["account"]["spent"] == pytest.approx(26.0)
        assert gold["preemptions"] == 1
        assert bronze["tier"] == "bronze"
        assert bronze["account"]["earned"] == pytest.approx(25.0)
        assert bronze["preempted"] == 1
        assert snap["totals"]["preempted"] == 1
        assert snap["totals"]["spent"] == pytest.approx(26.0)
