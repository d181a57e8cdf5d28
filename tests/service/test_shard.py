"""The sharded service: router, tenant map, and cross-shard economy.

The load-bearing contracts:

* a **1-shard deployment is byte-identical** to today's single
  ``AllocationService`` — request for request on ``/v1/submit`` (sync
  and async), replay JSON, and ``/stats`` (wall-clock timing fields
  excluded, as everywhere else in the suite);
* cross-shard preemption: a gold bid landing on shard A evicts the
  cheapest bronze queued on shard B, and the compensation is credited
  on the *victim's* shard while the bidder is charged on its own;
* ticket ids encode their owning shard, so an async ticket submitted
  through one router resolves through a *freshly built* router (the
  restart case — the tenant map is recomputed, the shards kept);
* ``/stats`` aggregation recomputes fleet percentiles from merged raw
  windows instead of averaging per-shard percentiles;
* the router folds every shard's exported registry into one fleet
  registry: ``/metrics`` renders it with each family announced once;
* ``/stats`` and ``/metrics`` each send one shard-control request per
  shard, an in-process shard never exports the process registry, and
  spend and earnings reach the fleet registry as per-tenant counters;
* a shard whose load probe fails counts as 0 queued, visibly;
* an :class:`HttpShard` reuses its pooled connections, retries a
  request once on a fresh connection only when a reused one failed
  before any status line arrived, and drops its pool on shutdown.
"""

import asyncio
import json
import re
import threading
import types

import pytest

from repro.api import InstanceSpec, ReplayRequest, SolveRequest
from repro.api.wire import request_to_wire
from repro.telemetry import MetricsRegistry, get_registry
from repro.service import (
    AllocationService,
    HttpShard,
    LocalShard,
    RouterHTTPServer,
    ServiceHTTPServer,
    ShardRouter,
    TenantConfig,
    parse_shard_map,
    percentile,
    rendezvous_shard,
)

TENANTS = ("acme", "globex", "initech", "umbrella")


def run(coro):
    return asyncio.run(coro)


def solve_req(seed: int, label: str = "") -> SolveRequest:
    return SolveRequest(
        spec=InstanceSpec(n_operators=6, seed=seed), seed=seed,
        label=label,
    )


def submit_raw(request, tenant="default", **extra) -> bytes:
    body = {"tenant": tenant, "request": request_to_wire(request)}
    body.update(extra)
    return json.dumps(body, sort_keys=True).encode("utf8")


def scrub(obj):
    """Drop wall-clock timing fields — the one part of a payload two
    executions can never share."""
    if isinstance(obj, dict):
        return {
            k: scrub(v) for k, v in obj.items()
            if k not in ("elapsed_s", "wall_s")
        }
    if isinstance(obj, list):
        return [scrub(v) for v in obj]
    return obj


def canon(response):
    status, payload = response
    return status, json.dumps(scrub(payload), sort_keys=True)


class GatedExecutor:
    """Stub executor whose ``block*``-labelled requests wait on a
    gate; results quack like a SolveResult enough for the HTTP layer
    (``to_dict``)."""

    def __init__(self):
        self.gate = threading.Event()
        self.started = threading.Event()

    def __call__(self, request):
        if getattr(request, "label", "").startswith("block"):
            self.started.set()
            if not self.gate.wait(timeout=30):
                raise TimeoutError("gate never opened")
        label = getattr(request, "label", "")
        return types.SimpleNamespace(
            ok=True, to_dict=lambda label=label: {"label": label}
        )


@pytest.fixture()
def gated(monkeypatch):
    stub = GatedExecutor()
    monkeypatch.setattr("repro.service.broker.execute_request", stub)
    return stub


async def _spin_until(predicate, timeout=10.0):
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        if asyncio.get_running_loop().time() > deadline:
            raise TimeoutError("condition never became true")
        await asyncio.sleep(0.01)


# ----------------------------------------------------------------------
# tenant → shard map
# ----------------------------------------------------------------------

class TestTenantMap:
    def test_rendezvous_is_deterministic_and_in_range(self):
        names = ["shard-0", "shard-1", "shard-2"]
        for tenant in ("acme", "globex", "a", "", "ünïcode"):
            index = rendezvous_shard(tenant, names)
            assert 0 <= index < 3
            assert index == rendezvous_shard(tenant, names)

    def test_rendezvous_spreads_tenants(self):
        names = ["shard-0", "shard-1", "shard-2", "shard-3"]
        owners = {
            rendezvous_shard(f"tenant-{i}", names) for i in range(64)
        }
        assert owners == {0, 1, 2, 3}  # every shard owns someone

    def test_removing_a_shard_only_remaps_its_tenants(self):
        names = ["shard-0", "shard-1", "shard-2"]
        before = {
            f"tenant-{i}": rendezvous_shard(f"tenant-{i}", names)
            for i in range(50)
        }
        shrunk = names[:2]
        for tenant, owner in before.items():
            if owner != 2:  # tenants not on the removed shard stay put
                assert rendezvous_shard(tenant, shrunk) == owner

    def test_no_shards_raises(self):
        with pytest.raises(ValueError, match="at least one shard"):
            rendezvous_shard("acme", [])

    def test_parse_shard_map(self):
        assert parse_shard_map(None) == {}
        assert parse_shard_map("") == {}
        assert parse_shard_map("acme=0,globex=shard-1") == {
            "acme": "0", "globex": "shard-1"
        }
        with pytest.raises(ValueError, match="expected tenant=shard"):
            parse_shard_map("acme")

    def test_pins_override_rendezvous(self):
        shards = [LocalShard(name=f"shard-{i}") for i in range(2)]
        router = ShardRouter(
            shards, shard_map={"acme": "shard-1", "globex": "0"}
        )
        assert router.shard_of("acme") == 1
        assert router.shard_of("globex") == 0

    def test_unknown_pin_rejected(self):
        shards = [LocalShard(name="shard-0")]
        with pytest.raises(ValueError, match="unknown shard"):
            ShardRouter(shards, shard_map={"acme": "nope"})
        with pytest.raises(ValueError, match="out of range"):
            ShardRouter(shards, shard_map={"acme": "3"})

    def test_duplicate_shard_names_rejected(self):
        shards = [LocalShard(name="s"), LocalShard(name="s")]
        with pytest.raises(ValueError, match="unique"):
            ShardRouter(shards)


# ----------------------------------------------------------------------
# 1-shard byte identity
# ----------------------------------------------------------------------

class TestSingleShardByteIdentity:
    """Every response of a 1-shard router deployment must match
    today's single-service deployment byte for byte, request for
    request (timing scrubbed)."""

    def _requests(self):
        out = [
            ("POST", "/v1/submit", submit_raw(solve_req(41 + i), "acme"))
            for i in range(3)
        ]
        out.append((
            "POST", "/v1/submit",
            submit_raw(
                ReplayRequest(trace="ramp", policy="static", seed=3,
                              n_results=5),
                "globex",
            ),
        ))
        # a repeat (door-level cache hit) and a malformed body (400)
        out.append(
            ("POST", "/v1/submit", submit_raw(solve_req(41), "acme"))
        )
        out.append(("POST", "/v1/submit", b'{"tenant": 3}'))
        return out

    def test_request_for_request(self):
        async def main():
            plain = ServiceHTTPServer(
                AllocationService(clock=lambda: 0.0)
            )
            await plain.service.start()
            router = ShardRouter(
                [LocalShard(name="shard-0", clock=lambda: 0.0)]
            )
            await router.start()
            pairs = []
            for method, path, raw in self._requests():
                a = await plain.dispatch(method, path, raw)
                b = await router.dispatch(method, path, raw)
                pairs.append((canon(a), canon(b)))
            # async ticket lifecycle: 202, then the poll
            raw = submit_raw(solve_req(99), "acme")
            a = await plain.dispatch("POST", "/v1/submit?mode=async", raw)
            b = await router.dispatch("POST", "/v1/submit?mode=async", raw)
            pairs.append((canon(a), canon(b)))
            ticket_a, ticket_b = a[1]["ticket"], b[1]["ticket"]
            assert ticket_a == ticket_b  # the identity ticket mapping
            await _spin_until(
                lambda: not plain._async_tasks
                and not router.shards[0].app._async_tasks
            )
            a = await plain.dispatch("GET", f"/v1/result/{ticket_a}", b"")
            b = await router.dispatch("GET", f"/v1/result/{ticket_b}", b"")
            pairs.append((canon(a), canon(b)))
            # /stats (the deterministic clock pins uptime/percentiles)
            a = await plain.dispatch("GET", "/stats", b"")
            b = await router.dispatch("GET", "/stats", b"")
            pairs.append((canon(a), canon(b)))
            a = await plain.dispatch("GET", "/healthz", b"")
            b = await router.dispatch("GET", "/healthz", b"")
            pairs.append((canon(a), canon(b)))
            await plain.aclose()
            await router.aclose()
            return pairs

        for direct, routed in run(main()):
            assert direct == routed

    def test_single_shard_stats_has_no_shards_key(self):
        async def main():
            router = ShardRouter([LocalShard(name="shard-0")])
            await router.start()
            status, stats = await router.dispatch("GET", "/stats", b"")
            await router.aclose()
            return status, stats

        status, stats = run(main())
        assert status == 200
        assert "shards" not in stats
        assert stats["service"]["backend"] != "router"


# ----------------------------------------------------------------------
# cross-shard preemption
# ----------------------------------------------------------------------

class TestCrossShardPreemption:
    def _router(self):
        shards = [
            LocalShard(
                name=f"shard-{i}",
                service=AllocationService(
                    tenants=(
                        TenantConfig("gold", tier="gold", budget=100.0,
                                     admission_price=1.0),
                        TenantConfig("bronze", tier="bronze"),
                    ),
                    auto_register=False,
                    max_in_flight=1, max_queue_depth=8,
                ),
            )
            for i in range(2)
        ]
        router = ShardRouter(
            shards,
            # gold lives on shard 0, bronze on shard 1: the bid and its
            # victim are guaranteed to land on *different* shards
            shard_map={"gold": "shard-0", "bronze": "shard-1"},
            global_queue_depth=2,
        )
        return router, shards

    def _gold_evicts_bronze(self, gated):
        """A gold bid on shard 0 evicts a queued bronze request on
        shard 1; everything the tests below read afterwards."""
        async def scenario():
            router, shards = self._router()
            await router.start()
            status, blocker = await router.dispatch(
                "POST", "/v1/submit?mode=async",
                submit_raw(solve_req(1, "block"), "bronze"),
            )
            assert status == 202
            await _spin_until(gated.started.is_set)
            victims = []
            for i in range(2):
                status, payload = await router.dispatch(
                    "POST", "/v1/submit?mode=async",
                    submit_raw(solve_req(10 + i, f"victim-{i}"),
                               "bronze"),
                )
                assert status == 202, payload
                victims.append(payload["ticket"])
            status, payload = await router.dispatch(
                "POST", "/v1/submit?mode=async",
                submit_raw(solve_req(20, "gold"), "gold", bid=25.0),
            )
            assert status == 202, payload
            gold_ticket = payload["ticket"]
            gated.gate.set()

            async def record_of(ticket):
                while True:
                    status, record = await router.dispatch(
                        "GET", f"/v1/result/{ticket}", b""
                    )
                    assert status == 200, record
                    if record["status"] != "pending":
                        return record
                    await asyncio.sleep(0.01)

            victim_records = [
                await asyncio.wait_for(record_of(t), 10) for t in victims
            ]
            gold_record = await asyncio.wait_for(
                record_of(gold_ticket), 10
            )
            status, stats = await router.dispatch("GET", "/stats", b"")
            _, metrics = await router.dispatch("GET", "/metrics", b"")
            gold_state = shards[0].service.registry.get("gold")
            bronze_state = shards[1].service.registry.get("bronze")
            # each half of the preemption is counted on its own shard
            rows = (shards[0].service.snapshot()["tenants"]["gold"],
                    shards[1].service.snapshot()["tenants"]["bronze"])
            await router.aclose()
            return (victim_records, gold_record, stats,
                    gold_state, bronze_state, victims, rows, metrics.text)

        return run(scenario())

    def test_gold_on_shard_a_evicts_bronze_on_shard_b(self, gated):
        (victim_records, gold_record, stats, gold_state, bronze_state,
         victims, rows, _metrics) = self._gold_evicts_bronze(gated)

        preempted = [
            r for r in victim_records if r["status"] == "failed"
        ]
        assert len(preempted) == 1
        failure = preempted[0]["failure"]
        assert failure["stage"] == "preempted"
        assert failure["detail"] == {
            "preempted_by": "gold", "compensation": 25.0
        }
        # the *youngest* victim was evicted (max stability)
        assert preempted[0]["ticket"] == victims[-1]
        assert gold_record["status"] == "done"
        # money moved across shards, none destroyed: bid + admission
        # out of gold (its shard), bid into bronze (the other shard)
        assert gold_state.account.spent == pytest.approx(26.0)
        assert bronze_state.account.earned == pytest.approx(25.0)
        assert rows[0]["preemptions"] == 1
        assert rows[1]["preempted"] == 1
        # and the merged /stats sees the whole economy
        assert stats["totals"]["preempted"] == 1
        assert stats["totals"]["spent"] == pytest.approx(26.0)
        assert stats["tenants"]["gold"]["preemptions"] == 1
        assert stats["tenants"]["bronze"]["preempted"] == 1

    def test_spend_and_earnings_are_fleet_counters(self, gated):
        """The router's /metrics carries each tenant's spend and
        earnings under its shard's label; the spend samples sum to the
        /stats ``totals.spent``, and the victim earned the bid."""
        outcome = self._gold_evicts_bronze(gated)
        stats, metrics = outcome[2], outcome[-1]

        def samples(family):
            return {
                (shard, tenant): float(value)
                for shard, tenant, value in re.findall(
                    rf'^{family}\{{shard="([^"]+)",tenant="([^"]+)"\}}'
                    r" (\S+)$", metrics, re.M,
                )
            }

        spend = samples("repro_service_spend_total")
        earnings = samples("repro_service_earnings_total")
        assert spend == {("shard-0", "gold"): 26.0}
        assert sum(spend.values()) == stats["totals"]["spent"]
        assert earnings == {("shard-1", "bronze"): 25.0}

    def test_without_bid_global_bound_rejects(self, gated):
        async def main():
            router, shards = self._router()
            await router.start()
            status, _ = await router.dispatch(
                "POST", "/v1/submit?mode=async",
                submit_raw(solve_req(1, "block"), "bronze"),
            )
            assert status == 202
            await _spin_until(gated.started.is_set)
            for i in range(2):
                status, _ = await router.dispatch(
                    "POST", "/v1/submit?mode=async",
                    submit_raw(solve_req(10 + i, f"v-{i}"), "bronze"),
                )
                assert status == 202
            status, payload = await router.dispatch(
                "POST", "/v1/submit",
                submit_raw(solve_req(20, "gold"), "gold"),  # no bid
            )
            gated.gate.set()
            await router.aclose()
            return status, payload

        status, payload = run(main())
        assert status == 429
        assert payload["failure"]["stage"] == "service-queue-full"
        assert payload["failure"]["detail"]["shards"] == 2


class TestShardControlBid:
    """The shard-control routes that carry a ``bid``, and a submit
    body's ``bid``, refuse a negative or non-finite one with a 400
    naming it, before the service is touched: nothing is admitted, the
    victim stays queued and pending, and no preemption, spend or
    earnings is counted."""

    ROUTES = {
        "/v1/submit": lambda ticket, bid: {
            "tenant": "gold", "bid": bid,
            "request": request_to_wire(solve_req(3, "gold"))},
        "/v1/shard/quote": lambda ticket, bid: {
            "tenant": "gold", "bid": bid},
        "/v1/shard/preempt": lambda ticket, bid: {
            "ticket": ticket, "by": "gold", "bid": bid},
        "/v1/shard/charge": lambda ticket, bid: {
            "tenant": "gold", "bid": bid, "victim": "bronze",
            "victim_ticket": ticket},
    }
    COUNTERS = ("repro_service_preemptions_total",
                "repro_service_spend_total",
                "repro_service_earnings_total")

    @pytest.mark.parametrize("bid", [-3, float("nan"), float("inf")],
                             ids=["negative", "nan", "inf"])
    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_bad_bid_is_a_400_that_moves_nothing(self, gated, route, bid):
        async def observe(server, ticket):
            _, record = await server.dispatch(
                "GET", f"/v1/result/{ticket}", b""
            )
            _, stats = await server.dispatch("GET", "/stats", b"")
            del stats["service"]["uptime_s"]
            counters = {
                family["name"]: family["children"]
                for family in server.service.metrics.export()
                if family["name"] in self.COUNTERS
            }
            return (server.service.queued, record["status"], counters,
                    scrub(stats))

        async def main():
            server = ServiceHTTPServer(AllocationService(
                tenants=(
                    TenantConfig("gold", tier="gold", budget=100.0,
                                 admission_price=1.0),
                    TenantConfig("bronze", tier="bronze"),
                ),
                auto_register=False, max_in_flight=1, max_queue_depth=8,
            ))
            await server.service.start()
            try:
                status, _ = await server.dispatch(
                    "POST", "/v1/submit?mode=async",
                    submit_raw(solve_req(1, "block"), "bronze"),
                )
                assert status == 202
                await _spin_until(gated.started.is_set)
                status, victim = await server.dispatch(
                    "POST", "/v1/submit?mode=async",
                    submit_raw(solve_req(2, "victim"), "bronze"),
                )
                assert status == 202, victim
                before = await observe(server, victim["ticket"])
                body = self.ROUTES[route](victim["ticket"], bid)
                response = await server.dispatch(
                    "POST", route, json.dumps(body).encode()
                )
                after = await observe(server, victim["ticket"])
                gated.gate.set()
                return response, before, after
            finally:
                gated.gate.set()
                await server.aclose()

        (status, payload), before, after = run(main())
        assert status == 400, payload
        assert "bid" in payload["error"]
        assert before[:2] == (1, "pending")
        assert after == before


# ----------------------------------------------------------------------
# ticket routing across a router restart
# ----------------------------------------------------------------------

class TestRouterRestart:
    def test_async_ticket_resolves_through_a_fresh_router(self, gated):
        async def main():
            shards = [
                LocalShard(name=f"shard-{i}", max_in_flight=1)
                for i in range(2)
            ]
            first = ShardRouter(shards)
            await first.start()
            status, payload = await first.dispatch(
                "POST", "/v1/submit?mode=async",
                submit_raw(solve_req(7, "block"), "acme"),
            )
            assert status == 202, payload
            ticket = payload["ticket"]
            await _spin_until(gated.started.is_set)
            # the router "restarts": a new instance, fresh tenant map,
            # same shards — the ticket id alone must still route
            second = ShardRouter(shards)
            await second.start()
            gated.gate.set()
            while True:
                status, record = await second.dispatch(
                    "GET", f"/v1/result/{ticket}", b""
                )
                assert status == 200, record
                if record["status"] != "pending":
                    break
                await asyncio.sleep(0.01)
            await second.aclose()
            return ticket, record

        ticket, record = run(main())
        assert record["status"] == "done"
        assert record["ticket"] == ticket

    def test_cancel_routes_by_ticket_id(self, gated):
        async def main():
            shards = [
                LocalShard(name=f"shard-{i}", max_in_flight=1)
                for i in range(2)
            ]
            router = ShardRouter(shards)
            await router.start()
            status, _ = await router.dispatch(
                "POST", "/v1/submit?mode=async",
                submit_raw(solve_req(7, "block"), "acme"),
            )
            assert status == 202
            await _spin_until(gated.started.is_set)
            status, payload = await router.dispatch(
                "POST", "/v1/submit?mode=async",
                submit_raw(solve_req(8, "queued"), "acme"),
            )
            assert status == 202
            status, outcome = await router.dispatch(
                "POST", "/v1/cancel",
                json.dumps({"ticket": payload["ticket"]}).encode(),
            )
            gated.gate.set()
            await router.aclose()
            return status, outcome

        status, outcome = run(main())
        assert status == 200
        assert outcome == {"cancelled": True}


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------

class TestAggregation:
    def test_stats_percentiles_recomputed_from_merged_windows(
        self, gated
    ):
        async def main():
            gated.gate.set()
            shards = [LocalShard(name=f"shard-{i}") for i in range(2)]
            router = ShardRouter(shards)
            await router.start()
            for i, tenant in enumerate(TENANTS):
                for j in range(3):
                    status, payload = await router.dispatch(
                        "POST", "/v1/submit",
                        submit_raw(solve_req(100 + 10 * i + j), tenant),
                    )
                    assert status == 200, payload
            status, stats = await router.dispatch("GET", "/stats", b"")
            # each shard's windows, in shard order, then in the shard's
            # tenant-registration order
            waits = []
            total = 0
            for shard in shards:
                children = shard.service.metrics.get(
                    "repro_service_queue_wait_seconds"
                ).children()
                for state in shard.service.registry:
                    child = children.get((state.name,))
                    if child is not None:
                        waits.extend(child.values)
                        total += child.count
            await router.aclose()
            return stats, waits, total

        stats, waits, total = run(main())
        assert stats["totals"]["completed"] == 12
        summary = stats["service"]["queue_wait_s"]
        assert summary["count"] == total == 12
        assert summary["window"] == len(waits) == 12
        assert summary["mean"] == round(sum(waits) / len(waits), 6)
        assert summary["p50"] == round(percentile(waits, 50.0), 6)
        assert summary["p99"] == round(percentile(waits, 99.0), 6)
        # per-shard breakdown and per-tenant rows from both shards
        assert set(stats["shards"]) == {"shard-0", "shard-1"}
        assert set(stats["tenants"]) == set(TENANTS)
        queued_by_shard = sum(
            entry["service"]["queued"]
            for entry in stats["shards"].values()
        )
        assert stats["service"]["queued"] == queued_by_shard

    def test_trace_stitches_the_router_hop(self, gated):
        async def main():
            gated.gate.set()
            shards = [LocalShard(name=f"shard-{i}") for i in range(2)]
            router = ShardRouter(shards)
            await router.start()
            request = SolveRequest(
                spec=InstanceSpec(n_operators=6, seed=5), seed=5,
                trace_id="cafe0123cafe0123",
            )
            status, payload = await router.dispatch(
                "POST", "/v1/submit", submit_raw(request, "acme")
            )
            assert status == 200, payload
            status, trace = await router.dispatch(
                "GET", "/v1/trace/cafe0123cafe0123", b""
            )
            await router.aclose()
            return status, trace

        status, trace = run(main())
        assert status == 200
        names = {span["name"] for span in trace["spans"]}
        assert "router.route" in names
        assert "service.admission" in names
        router_span = next(
            s for s in trace["spans"] if s["name"] == "router.route"
        )
        assert router_span["attributes"]["shard"].startswith("shard-")


class TestOneScrape:
    """A router's ``/stats`` and ``/metrics`` each send one
    shard-control request per shard, and an in-process shard never
    exports the process-wide registry: the router already holds it."""

    def _scrape(self, gated, n):
        """Per route, the shard indices its scrape sent a request to."""
        async def main():
            gated.gate.set()
            shards = [LocalShard(name=f"shard-{i}") for i in range(n)]
            router = ShardRouter(shards)
            await router.start()
            for i, tenant in enumerate(TENANTS):
                status, payload = await router.dispatch(
                    "POST", "/v1/submit",
                    submit_raw(solve_req(60 + i), tenant),
                )
                assert status == 200, payload
            sent = []
            for index, shard in enumerate(shards):
                def counted(method, path, raw, real=shard.request,
                            index=index):
                    sent.append(index)
                    return real(method, path, raw)

                shard.request = counted
            per_scrape = {}
            for route in ("/stats", "/metrics"):
                sent.clear()
                status, _ = await router.dispatch("GET", route, b"")
                assert status == 200
                per_scrape[route] = sorted(sent)
            await router.aclose()
            return per_scrape

        return run(main())

    @pytest.mark.parametrize("n", [2, 3])
    def test_one_request_per_shard_per_scrape(self, gated, n):
        assert self._scrape(gated, n) == {
            "/stats": list(range(n)), "/metrics": list(range(n)),
        }

    def test_local_shards_never_export_the_process_registry(
        self, gated, monkeypatch
    ):
        process = get_registry()
        exports = []
        real_export = process.export
        monkeypatch.setattr(
            process, "export", lambda: exports.append(1) or real_export()
        )
        self._scrape(gated, 2)
        assert exports == []


def _closed_port() -> int:
    """A local port nothing listens on."""
    import socket

    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class TestMetricsMerge:
    def test_fold_round_trips_a_render(self):
        """A registry exported, sent as JSON and folded under
        ``shard="s0"`` renders exactly like the source with that label
        first in every sample."""
        source = MetricsRegistry()
        source.counter("t_req_total", "Requests.", ("tenant",)).labels(
            tenant="acme"
        ).inc(3)
        source.gauge("t_level", "A level.").set(2.5)
        waits = source.histogram(
            "t_wait_seconds", "Waits.", ("tenant",), buckets=(0.1, 1.0)
        )
        for value in (0.05, 0.5, 7.0):
            waits.labels(tenant="acme").observe(value)
        fleet = MetricsRegistry()
        fleet.fold(json.loads(json.dumps(source.export())), shard="s0")

        def with_shard(line: str) -> str:
            if line.startswith("#"):
                return line
            name, brace, rest = line.partition("{")
            if brace:
                return f'{name}{{shard="s0",{rest}'
            name, _, value = line.partition(" ")
            return f'{name}{{shard="s0"}} {value}'

        expected = "".join(
            with_shard(line) + "\n" for line in source.render().splitlines()
        )
        rendered = fleet.render()
        assert rendered == expected
        assert 't_wait_seconds_bucket{shard="s0",tenant="acme",le="+Inf"} 3' \
            in rendered
        assert 't_wait_seconds_sum{shard="s0",tenant="acme"} 7.55' in rendered
        assert 't_level{shard="s0"} 2.5' in rendered

    def _scrape_two_http_shards(self):
        async def main():
            servers = [ServiceHTTPServer(AllocationService(), port=0)
                       for _ in range(2)]
            for server in servers:
                await server.start()
            router = ShardRouter(
                [HttpShard(f"127.0.0.1:{s.port}") for s in servers],
                shard_map={t: str(i % 2) for i, t in enumerate(TENANTS)},
            )
            await router.start()
            try:
                for tenant in TENANTS:
                    status, _ = await router.dispatch(
                        "POST", "/v1/submit",
                        submit_raw(solve_req(7), tenant),
                    )
                    assert status == 200
                status, text = await router.dispatch("GET", "/metrics", b"")
                assert status == 200
                return text.text, router._names
            finally:
                await router.aclose()
                for server in servers:
                    await server.aclose()

        return run(main())

    def test_merge_labels_and_dedupes_families(self, gated):
        """Two shard processes' scrapes merged: each family is
        announced once — the shards' process-level ``repro_sim_*``
        included, next to the router's own — and every shard sample
        carries its ``shard`` label first."""
        import repro.simulator.engine  # noqa: F401 — repro_sim_*

        # the shard servers share this process: its sample is theirs
        get_registry().get("repro_sim_events_total").inc(0)
        text, names = self._scrape_two_http_shards()
        types = re.findall(r"^# TYPE (\S+) ", text, re.M)
        assert len(types) == len(set(types))
        assert any(name.startswith("repro_sim_") for name in types)
        for name in names:
            assert re.search(
                rf'^repro_service_requests_total\{{shard="{name}",'
                r'tenant="\w+",outcome="completed"\} \d+$', text, re.M
            )
            assert re.search(
                rf'^repro_sim_events_total\{{shard="{name}"\}} ', text, re.M
            )
        assert re.search(r"^repro_sim_events_total \d+$", text, re.M)

    def test_merged_samples_parse_like_a_scraper(self, gated):
        text, names = self._scrape_two_http_shards()
        shards = set()
        completed = 0
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            name_part, _, value = line.rpartition(" ")
            float(value)
            assert name_part
            shards.update(re.findall(r'shard="([^"]+)"', name_part))
            if name_part.startswith("repro_service_requests_total{") \
                    and 'outcome="completed"' in name_part:
                completed += int(value)
        assert shards == set(names)
        assert completed == len(TENANTS)


class TestLoadProbeFailure:
    def test_dead_shard_counts_as_empty_and_shows(self, gated, caplog):
        """A shard whose load probe fails does not block admission: the
        submit to the live shard is served, the failure is counted per
        shard in the router's /metrics and logged as a warning."""
        dead = HttpShard(f"127.0.0.1:{_closed_port()}")

        async def main():
            router = ShardRouter(
                [LocalShard(name="live"), dead],
                shard_map={"acme": "live"}, global_queue_depth=4,
            )
            await router.start()
            try:
                status, payload = await router.dispatch(
                    "POST", "/v1/submit", submit_raw(solve_req(3), "acme")
                )
                _, text = await router.dispatch("GET", "/metrics", b"")
                return status, payload, text.text
            finally:
                await router.aclose()

        with caplog.at_level("WARNING", logger="repro.service.shard"):
            status, payload, text = run(main())
        assert status == 200, payload
        assert (
            f'repro_router_load_probe_failures_total{{shard="{dead.name}"}} 1'
            in text.splitlines()
        )
        assert "live" not in re.findall(
            r'^repro_router_load_probe_failures_total\{shard="([^"]+)"',
            text, re.M,
        )
        assert any(
            dead.name in record.getMessage()
            and record.levelname == "WARNING"
            for record in caplog.records
        )


class TestRouterBodies:
    @pytest.mark.parametrize("path", [
        "/v1/submit", "/v1/cancel", "/v1/tenants",
    ])
    def test_too_deep_json_is_the_shards_400(self, path):
        """The router peeks into bodies to route them; a body too deep
        to decode is forwarded, and the shard's canonical 400 comes
        back — never a 500."""
        async def main():
            router = ShardRouter(
                [LocalShard(name=f"shard-{i}") for i in range(2)]
            )
            await router.start()
            try:
                return await router.dispatch(
                    "POST", path, b"[" * 100_000 + b"]" * 100_000
                )
            finally:
                await router.aclose()

        status, payload = run(main())
        assert status == 400
        assert "nested too deeply" in payload["error"]


# ----------------------------------------------------------------------
# HttpShard's keep-alive pool
# ----------------------------------------------------------------------

class _CountingServer(ServiceHTTPServer):
    """Counts the connections it accepts."""

    accepted = 0

    async def _handle_connection(self, reader, writer):
        self.accepted += 1
        await super()._handle_connection(reader, writer)


async def _read_head(reader) -> bytes:
    head = b""
    while not head.endswith(b"\r\n\r\n"):
        line = await reader.readline()
        if not line:
            break
        head += line
    return head


class TestHttpShardPool:
    def test_sequential_calls_reuse_one_connection(self):
        async def main():
            server = _CountingServer(AllocationService(), port=0)
            await server.start()
            shard = HttpShard(f"127.0.0.1:{server.port}")
            router = ShardRouter([shard])
            await router.start()
            try:
                for _ in range(3):
                    assert await router.dispatch(
                        "GET", "/healthz", b""
                    ) == (200, {"ok": True})
                status, text = await router.dispatch(
                    "GET", "/metrics", b""
                )
                assert status == 200 and text.text.startswith("#")
                assert server.accepted == 1
                assert len(shard._idle) == 1
            finally:
                await router.aclose()  # closes the pooled connection
                assert shard._idle == []
                await server.aclose()

        run(main())

    def test_stale_pooled_connection_is_retried_once(self):
        async def main():
            server = _CountingServer(
                AllocationService(), port=0, read_timeout=0.2
            )
            await server.start()
            shard = HttpShard(f"127.0.0.1:{server.port}")
            try:
                assert (await shard.request("GET", "/healthz", b""))[0] == 200
                await asyncio.sleep(0.5)  # the shard drops the idle link
                status, payload = await shard.request(
                    "POST", "/v1/submit", submit_raw(solve_req(3), "acme")
                )
                assert status == 200, payload
                assert server.accepted == 2
            finally:
                await shard.aclose()
                await server.aclose()

        run(main())

    def test_started_response_is_never_retried(self):
        """The connection dies mid-body on its second request: that
        is a 503, and the request is not sent again."""
        requests = []

        async def half_answering(reader, writer):
            await _read_head(reader)
            requests.append(writer)
            writer.write(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}")
            await writer.drain()
            if await _read_head(reader):
                requests.append(writer)
                writer.write(
                    b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n{\"p"
                )
                await writer.drain()
            writer.close()

        async def main():
            fake = await asyncio.start_server(
                half_answering, "127.0.0.1", 0
            )
            port = fake.sockets[0].getsockname()[1]
            shard = HttpShard(f"127.0.0.1:{port}")
            try:
                first = await shard.request("GET", "/healthz", b"")
                second = await shard.request("GET", "/healthz", b"")
            finally:
                await shard.aclose()
                fake.close()
            return first, second

        first, second = run(main())
        assert first == (200, {})
        assert second[0] == 503
        assert "unreachable" in second[1]["error"]
        assert len(requests) == 2
        assert requests[0] is requests[1]  # one connection, no retry

    def test_fresh_connection_failure_is_503(self):
        port = _closed_port()
        status, payload = run(
            HttpShard(f"127.0.0.1:{port}").request("GET", "/healthz", b"")
        )
        assert status == 503
        assert payload["error"].startswith(
            f"shard 127.0.0.1:{port} unreachable:"
        )


# ----------------------------------------------------------------------
# global admission from the shards' reported queue depths
# ----------------------------------------------------------------------

class _RecordingServer(ServiceHTTPServer):
    """Records the route of every request it serves over its socket."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.seen = []

    async def dispatch(self, method, path, raw):
        self.seen.append(f"{method} {path}")
        return await super().dispatch(method, path, raw)


LOAD = "GET /v1/shard/load"
SUBMIT = "POST /v1/submit"


async def _http_fleet(depth, *, timeout=120.0, **service_kwargs):
    """Two recording shard servers, and a router over them as
    :class:`HttpShard`s: ``acme`` lives on shard 0, ``globex`` on 1."""
    servers = [
        _RecordingServer(AllocationService(**service_kwargs), port=0)
        for _ in range(2)
    ]
    for server in servers:
        await server.start()
    router = ShardRouter(
        [HttpShard(f"127.0.0.1:{servers[0].port}", timeout=timeout),
         HttpShard(f"127.0.0.1:{servers[1].port}")],
        shard_map={"acme": "0", "globex": "1"},
        global_queue_depth=depth,
    )
    await router.start()
    return router, servers


async def _close_fleet(router, servers):
    await router.aclose()
    for server in servers:
        await server.aclose()


def _probes(router) -> dict:
    return {
        shard: n for (shard,), n in router.metrics.counter(
            "repro_router_load_probes_total", "", ("shard",)
        ).totals().items()
    }


class TestAdmissionView:
    def test_below_the_bound_a_submit_is_one_shard_request(self, gated):
        """Until a shard has answered its view is unknown, so the first
        submit probes; after that, 20 submits are 20 shard requests."""
        async def main():
            router, servers = await _http_fleet(256)
            try:
                assert [s.queued for s in router.shards] == [None, None]
                assert set(_probes(router).values()) == {0}
                status, _ = await router.dispatch(
                    "POST", "/v1/submit", submit_raw(solve_req(0), "acme")
                )
                assert status == 200
                assert servers[0].seen == [LOAD, SUBMIT]
                assert servers[1].seen == [LOAD]
                assert [s.queued for s in router.shards] == [0, 0]
                for server in servers:
                    server.seen.clear()
                for i in range(20):
                    tenant = ("acme", "globex")[i % 2]
                    status, _ = await router.dispatch(
                        "POST", "/v1/submit",
                        submit_raw(solve_req(i + 1), tenant),
                    )
                    assert status == 200
                seen = [list(s.seen) for s in servers]
                _, text = await router.dispatch("GET", "/metrics", b"")
                return seen, _probes(router), text.text
            finally:
                await _close_fleet(router, servers)

        seen, probes, text = run(main())
        assert seen == [[SUBMIT] * 10, [SUBMIT] * 10]
        assert set(probes.values()) == {1}
        for shard in probes:
            assert (
                f'repro_router_load_probes_total{{shard="{shard}"}} 1'
                in text.splitlines()
            )

    def test_stale_high_view_is_probed_once_then_refreshed(self, gated):
        """A shard last reported at the bound but drained since: the
        next submit probes, is admitted, and the probe's answer puts
        the view back below the bound."""
        async def main():
            router, servers = await _http_fleet(2, max_in_flight=1)
            try:
                tickets = []
                for i, label in enumerate(("block", "q-0", "q-1")):
                    status, payload = await router.dispatch(
                        "POST", "/v1/submit?mode=async",
                        submit_raw(solve_req(i, label), "acme"),
                    )
                    assert status == 202, payload
                    tickets.append(payload["ticket"])
                    await _spin_until(gated.started.is_set)
                assert router.shards[0].queued == 2
                gated.gate.set()
                service = servers[0].service
                await _spin_until(
                    lambda: service.queued == 0 and service.in_flight == 0
                )
                assert router.shards[0].queued == 2  # no answer since
                for server in servers:
                    server.seen.clear()
                first = await router.dispatch(
                    "POST", "/v1/submit", submit_raw(solve_req(5), "acme")
                )
                view = [s.queued for s in router.shards]
                second = await router.dispatch(
                    "POST", "/v1/submit", submit_raw(solve_req(6), "acme")
                )
                return first, second, view, [s.seen for s in servers]
            finally:
                await _close_fleet(router, servers)

        first, second, view, seen = run(main())
        assert first[0] == 200 and second[0] == 200
        assert view == [0, 0]
        assert seen == [[LOAD, SUBMIT, SUBMIT], [LOAD]]

    def test_direct_traffic_enters_the_view_at_the_next_answer(
        self, gated
    ):
        """Submits that reach shard 0 without the router are not in
        its view until shard 0 answers the router again; then the next
        submit probes and the bound rejects it."""
        async def main():
            router, servers = await _http_fleet(2, max_in_flight=1)
            direct = HttpShard(f"127.0.0.1:{servers[0].port}")
            try:
                assert (await router.dispatch("GET", "/healthz", b""))[0] \
                    == 200
                for i, label in enumerate(("block", "q-0", "q-1")):
                    status, _ = await direct.request(
                        "POST", "/v1/submit?mode=async",
                        submit_raw(solve_req(i, label), "acme"),
                    )
                    assert status == 202
                    await _spin_until(gated.started.is_set)
                stale = router.shards[0].queued
                assert (await router.dispatch("GET", "/healthz", b""))[0] \
                    == 200
                fresh = router.shards[0].queued
                for server in servers:
                    server.seen.clear()
                verdict = await router.dispatch(
                    "POST", "/v1/submit", submit_raw(solve_req(9), "globex")
                )
                gated.gate.set()
                return stale, fresh, verdict, [s.seen for s in servers]
            finally:
                await direct.aclose()
                await _close_fleet(router, servers)

        stale, fresh, (status, payload), seen = run(main())
        assert (stale, fresh) == (0, 2)
        assert status == 429
        assert payload["failure"]["detail"]["queued"] == 2
        assert seen == [[LOAD], [LOAD]]

    def test_unanswered_submits_count_toward_the_bound(self, gated):
        """Sync submits still waiting on their answer are in the view:
        with one running and two queued on shard 0, which last reported
        1 queued, a fourth submit probes and is rejected."""
        async def main():
            router, servers = await _http_fleet(2, max_in_flight=1)
            service = servers[0].service
            pending = []
            try:
                assert (await router.dispatch("GET", "/healthz", b""))[0] \
                    == 200
                for i, label in enumerate(("block", "q-0", "q-1")):
                    pending.append(asyncio.ensure_future(router.dispatch(
                        "POST", "/v1/submit",
                        submit_raw(solve_req(i, label), "acme"),
                    )))
                    await _spin_until(
                        lambda i=i: gated.started.is_set()
                        and service.queued == i
                    )
                # the probe that admitted q-1 saw q-0 queued; shard 0
                # has not answered since
                assert router.shards[0].queued == 1
                verdict = await router.dispatch(
                    "POST", "/v1/submit", submit_raw(solve_req(9), "globex")
                )
            finally:
                gated.gate.set()
                answers = await asyncio.gather(*pending)
                await _close_fleet(router, servers)
            return verdict, answers

        (status, payload), answers = run(main())
        assert status == 429
        assert payload["failure"]["detail"]["queued"] == 2
        assert [answer[0] for answer in answers] == [200, 200, 200]

    def test_failed_exchange_resets_the_view(self, gated):
        """A submit to shard 0 times out (a 503): shard 0's view is
        unknown again, so the next submit, to shard 1, probes both."""
        async def main():
            router, servers = await _http_fleet(256, timeout=0.3)
            try:
                assert (await router.dispatch("GET", "/healthz", b""))[0] \
                    == 200
                assert router.shards[0].queued == 0
                failed = await router.dispatch(
                    "POST", "/v1/submit",
                    submit_raw(solve_req(1, "block"), "acme"),
                )
                view = router.shards[0].queued
                gated.gate.set()
                for server in servers:
                    server.seen.clear()
                status, _ = await router.dispatch(
                    "POST", "/v1/submit", submit_raw(solve_req(2), "globex")
                )
                return failed, view, status, [s.seen for s in servers]
            finally:
                await _close_fleet(router, servers)

        (failed_status, failed), view, status, seen = run(main())
        assert failed_status == 503 and "unreachable" in failed["error"]
        assert view is None
        assert status == 200
        assert seen == [[LOAD], [LOAD, SUBMIT]]

    def test_header_on_every_shard_answer_not_on_the_router(self):
        requests = [
            b"GET /healthz HTTP/1.1\r\n\r\n",
            b"GET /metrics HTTP/1.1\r\n\r\n",
            b"GET /nowhere HTTP/1.1\r\n\r\n",
            b"POST /v1/submit HTTP/1.1\r\nContent-Length: 1\r\n\r\n{",
            b"POST /v1/cancel HTTP/1.1\r\nContent-Length: x\r\n\r\n",
        ]

        async def heads(port):
            out = []
            for request in requests:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )
                writer.write(request)
                out.append((await _read_head(reader)).decode("latin1"))
                writer.close()
            return out

        async def main():
            shard = ServiceHTTPServer(AllocationService(), port=0)
            await shard.start()
            front = RouterHTTPServer(
                ShardRouter([LocalShard(name=f"shard-{i}")
                             for i in range(2)]),
                port=0,
            )
            await front.start()
            try:
                return await heads(shard.port), await heads(front.port)
            finally:
                await front.aclose()
                await shard.aclose()

        shard_heads, router_heads = run(main())
        for head in shard_heads:
            assert "\r\nX-Repro-Queued: 0\r\n" in head, head
        for head in router_heads:
            assert "x-repro-queued" not in head.lower(), head
