"""Async submission tickets and the seeded-request result cache."""

import asyncio
import threading

import pytest

from repro.api import InstanceSpec, ReplayRequest, SolveRequest, solve
from repro.dynamic import make_trace
from repro.service import (
    AllocationService,
    HttpServiceClient,
    ServiceClient,
    ServiceError,
    ServiceHTTPServer,
    request_cache_key,
)


def _seeded(seed: int, n: int = 10) -> SolveRequest:
    return SolveRequest(
        spec=InstanceSpec(n_operators=n, seed=seed), seed=seed
    )


# ----------------------------------------------------------------------
# cache-key policy
# ----------------------------------------------------------------------

class TestRequestCacheKey:
    def test_seeded_solve_has_stable_key(self):
        assert request_cache_key(_seeded(7)) == request_cache_key(
            _seeded(7)
        )
        assert request_cache_key(_seeded(7)) != request_cache_key(
            _seeded(8)
        )

    def test_unseeded_solve_is_uncacheable(self):
        request = SolveRequest(spec=InstanceSpec(n_operators=10, seed=1))
        assert request.seed is None
        assert request_cache_key(request) is None

    def test_time_budget_is_uncacheable(self):
        request = SolveRequest(
            spec=InstanceSpec(n_operators=10, seed=1), seed=1,
            time_budget_s=5.0,
        )
        assert request_cache_key(request) is None

    def test_seeded_replay_cacheable_in_memory_trace_not(self):
        assert request_cache_key(
            ReplayRequest(trace="multi-app", policy="static", seed=3)
        ) is not None
        assert request_cache_key(
            ReplayRequest(
                trace=make_trace("multi-app", seed=3), policy="static"
            )
        ) is None


# ----------------------------------------------------------------------
# broker behaviour
# ----------------------------------------------------------------------

class TestResultCache:
    def test_repeat_submit_hits_and_matches(self):
        request = _seeded(11)
        with ServiceClient() as client:
            first = client.solve(request, timeout=120)
            second = client.solve(request, timeout=120)
            stats = client.stats()
        cache = stats["service"]["cache"]
        assert cache == {
            "capacity": 128, "size": 1, "hits": 1, "misses": 1,
        }
        assert second.result.cost == first.result.cost
        assert second.seed == first.seed
        assert (
            second.result.allocation.assignment
            == first.result.allocation.assignment
        )
        # hits still count as tenant traffic
        assert stats["tenants"]["default"]["admitted"] == 2
        assert stats["tenants"]["default"]["completed"] == 2

    def test_cached_result_is_bit_identical_to_direct_solve(self):
        request = _seeded(13)
        direct = solve(request)
        with ServiceClient() as client:
            client.solve(request, timeout=120)
            cached = client.solve(request, timeout=120)
        assert cached.result.cost == direct.result.cost
        assert cached.seed == direct.seed

    def test_unseeded_requests_bypass_the_cache(self):
        request = SolveRequest(spec=InstanceSpec(n_operators=10, seed=2))
        with ServiceClient() as client:
            a = client.solve(request, timeout=120)
            b = client.solve(request, timeout=120)
            cache = client.stats()["service"]["cache"]
        assert cache["hits"] == 0
        assert cache["misses"] == 0
        assert cache["size"] == 0
        # each run drew its own effective seed
        assert isinstance(a.seed, int) and isinstance(b.seed, int)

    def test_cache_disabled_with_zero_capacity(self):
        request = _seeded(17)
        with ServiceClient(cache_size=0) as client:
            client.solve(request, timeout=120)
            client.solve(request, timeout=120)
            cache = client.stats()["service"]["cache"]
        assert cache == {
            "capacity": 0, "size": 0, "hits": 0, "misses": 0,
        }

    def test_lru_eviction_is_bounded(self):
        with ServiceClient(cache_size=2) as client:
            for seed in (21, 22, 23):
                client.solve(_seeded(seed, n=8), timeout=120)
            # 21 is the LRU victim: resubmitting it misses
            client.solve(_seeded(21, n=8), timeout=120)
            cache = client.stats()["service"]["cache"]
        assert cache["size"] == 2
        assert cache["hits"] == 0
        assert cache["misses"] == 4

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            AllocationService(cache_size=-1)


# ----------------------------------------------------------------------
# async HTTP tickets
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def server():
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    http_server = ServiceHTTPServer(AllocationService(), port=0)
    asyncio.run_coroutine_threadsafe(http_server.start(), loop).result(30)
    yield http_server
    asyncio.run_coroutine_threadsafe(http_server.aclose(), loop).result(30)
    loop.call_soon_threadsafe(loop.stop)
    thread.join(timeout=10)


@pytest.fixture()
def client(server):
    client = HttpServiceClient(f"http://127.0.0.1:{server.port}")
    yield client
    client.close()  # its keep-alive connection


class TestAsyncSubmit:
    def test_async_ticket_roundtrip(self, client):
        request = _seeded(31)
        accepted = client.submit_async(request, tenant="acme")
        assert accepted["status"] == "pending"
        assert accepted["tenant"] == "acme"
        assert accepted["poll"] == f"/v1/result/{accepted['ticket']}"
        done = client.wait(accepted["ticket"], timeout=120)
        assert done["status"] == "done"
        assert done["kind"] == "solve"
        assert done["ticket"] == accepted["ticket"]
        direct = solve(request)
        assert done["result"]["cost"] == direct.result.cost
        assert done["result"]["seed"] == direct.seed

    def test_async_matches_sync_payload(self, client):
        request = _seeded(33)
        sync = client.submit(request)
        done = client.wait(
            client.submit_async(request)["ticket"], timeout=120
        )
        assert done["result"] == sync["result"]
        assert done["kind"] == sync["kind"]

    def test_unknown_ticket_404(self, client):
        with pytest.raises(ServiceError) as err:
            client.result(999_999)
        assert err.value.status == 404

    def test_bad_ticket_id_400(self, client):
        with pytest.raises(ServiceError) as err:
            client._request("GET", "/v1/result/not-a-number")
        assert err.value.status == 400

    def test_bad_mode_400(self, client):
        request = _seeded(35)
        from repro.api.wire import request_to_wire

        with pytest.raises(ServiceError) as err:
            client._request(
                "POST", "/v1/submit?mode=telepathy",
                {"request": request_to_wire(request)},
            )
        assert err.value.status == 400
        assert "telepathy" in str(err.value)

    def test_sync_mode_explicit_query_still_blocks(self, client):
        request = _seeded(37)
        from repro.api.wire import request_to_wire

        response = client._request(
            "POST", "/v1/submit?mode=sync",
            {"request": request_to_wire(request)},
        )
        assert response["kind"] == "solve"
        assert "status" not in response

    def test_async_rejection_is_429_at_submit_time(self, client):
        """Admission control fires before the 202 — an inadmissible
        request is rejected synchronously, never ticketed."""
        client.register_tenant("throttled", rate_per_s=0.0, burst=1)
        request = _seeded(39)
        client.submit_async(request, tenant="throttled")  # burns burst
        with pytest.raises(ServiceError) as err:
            client.submit_async(request, tenant="throttled")
        assert err.value.rejected
        assert err.value.payload["failure"]["stage"] == "rate-limit"
