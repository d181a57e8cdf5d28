"""The HTTP front door, end to end over a real localhost socket."""

import asyncio
import json
import threading

import pytest

from repro.api import InstanceSpec, ReplayRequest, SolveRequest, solve
from repro.api.wire import request_to_wire
from repro.service import (
    AllocationService,
    HttpServiceClient,
    LocalShard,
    ServiceError,
    ServiceHTTPServer,
    ShardRouter,
    TenantConfig,
)


@pytest.fixture(scope="module")
def server():
    """One shared service + HTTP server on a free port, hosted on a
    background event-loop thread."""
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    http_server = ServiceHTTPServer(
        AllocationService(
            tenants=(TenantConfig("limited", rate_per_s=0.0, burst=1),),
        ),
        port=0,
    )
    asyncio.run_coroutine_threadsafe(http_server.start(), loop).result(30)
    yield http_server
    asyncio.run_coroutine_threadsafe(http_server.aclose(), loop).result(30)
    loop.call_soon_threadsafe(loop.stop)
    thread.join(timeout=10)
    loop.close()


@pytest.fixture()
def client(server):
    client = HttpServiceClient(f"http://127.0.0.1:{server.port}")
    yield client
    client.close()  # its keep-alive connection


class TestRoutes:
    def test_healthz(self, client):
        assert client.health() == {"ok": True}

    def test_submit_solve_matches_direct(self, client):
        request = SolveRequest(
            spec=InstanceSpec(n_operators=10, alpha=1.2, seed=3), seed=3
        )
        response = client.submit(request, tenant="acme", priority=2)
        direct = solve(request)
        assert response["kind"] == "solve"
        assert response["tenant"] == "acme"
        body = response["result"]
        assert body["ok"] is True
        assert body["cost"] == direct.cost
        assert body["seed"] == direct.seed
        assert body["heuristic"] == direct.heuristic
        assert body["n_processors"] == direct.n_processors

    def test_submit_replay(self, client):
        request = ReplayRequest(trace="multi-app", policy="harvest",
                                seed=7, n_results=10)
        response = client.submit(request, tenant="dyn")
        from repro.api import replay as api_replay

        assert response["kind"] == "replay"
        assert response["result"] == api_replay(request).to_dict()

    def test_stats_reflect_traffic(self, client):
        stats = client.stats()
        assert stats["service"]["backend"] == "serial"
        assert stats["totals"]["admitted"] >= 1
        assert "acme" in stats["tenants"]

    def test_register_tenant(self, client):
        assert client.register_tenant(
            "newbie", weight=2, max_queued=5
        ) == {"registered": "newbie"}
        stats = client.stats()
        assert stats["tenants"]["newbie"]["weight"] == 2

    def test_cancel_unknown_ticket(self, client):
        assert client.cancel(991199) is False


class TestErrors:
    def test_rate_limited_tenant_gets_429_with_record(self, client):
        request = SolveRequest(spec=InstanceSpec(n_operators=6, seed=1),
                               seed=1)
        client.submit(request, tenant="limited")  # burns the only token
        with pytest.raises(ServiceError) as exc_info:
            client.submit(request, tenant="limited")
        err = exc_info.value
        assert err.rejected
        assert err.status == 429
        assert err.payload["failure"]["stage"] == "rate-limit"
        assert err.payload["failure"]["error_type"] == "AdmissionError"

    def test_unknown_route_404_lists_routes(self, client):
        with pytest.raises(ServiceError) as exc_info:
            client._request("GET", "/nope")
        assert exc_info.value.status == 404
        assert "/v1/submit" in exc_info.value.payload["error"]

    def test_wrong_method_405(self, client):
        with pytest.raises(ServiceError) as exc_info:
            client._request("GET", "/v1/submit")
        assert exc_info.value.status == 405

    def test_bad_wire_payload_400(self, client):
        with pytest.raises(ServiceError) as exc_info:
            client._request(
                "POST", "/v1/submit",
                {"request": {"kind": "solve", "spec": {"seed": 1},
                             "strategi": "random"}},
            )
        err = exc_info.value
        assert err.status == 400
        assert "did you mean 'strategy'" in err.payload["error"]

    @pytest.mark.parametrize("retired", ["incremental", "vectorized"])
    def test_retired_sim_kernel_400(self, client, retired):
        """A replay naming a removed flow kernel is the client's fault:
        400 with the valid kernels, never a 500."""
        with pytest.raises(ServiceError) as exc_info:
            client._request(
                "POST", "/v1/submit",
                {"request": {"kind": "replay", "trace": "ramp",
                             "policy": "static", "sim_kernel": retired}},
            )
        err = exc_info.value
        assert err.status == 400
        assert "('warm', 'naive')" in err.payload["error"]

    def test_unknown_submit_field_400(self, client):
        with pytest.raises(ServiceError) as exc_info:
            client._request(
                "POST", "/v1/submit",
                {"tennant": "x",
                 "request": {"kind": "solve", "spec": {"seed": 1}}},
            )
        assert "did you mean 'tenant'" in exc_info.value.payload["error"]

    def test_missing_request_field_400(self, client):
        with pytest.raises(ServiceError) as exc_info:
            client._request("POST", "/v1/submit", {"tenant": "x"})
        assert exc_info.value.status == 400

    def test_invalid_json_400(self, client):
        import http.client as hc

        conn = hc.HTTPConnection(client.host, client.port, timeout=30)
        try:
            conn.request(
                "POST", "/v1/submit", body=b"{not json",
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            assert response.status == 400
        finally:
            conn.close()

    def test_bad_tenant_config_400(self, client):
        with pytest.raises(ServiceError) as exc_info:
            client.register_tenant("x", weight=0)
        assert exc_info.value.status == 400
        with pytest.raises(ServiceError) as exc_info:
            client.register_tenant("y", wieght=2)
        assert "did you mean 'weight'" in exc_info.value.payload["error"]


class TestSweepAtTheDoor:
    """A malformed sweep is the client's fault: 400 at decode time,
    never a 500 from inside the campaign or a silently dropped point."""

    @staticmethod
    def dispatch(wire: dict) -> tuple[int, object]:
        async def main():
            server = ServiceHTTPServer(AllocationService())
            await server.service.start()
            try:
                raw = json.dumps({"request": wire}).encode()
                return await server.dispatch("POST", "/v1/submit", raw)
            finally:
                await server.aclose()

        return asyncio.run(main())

    @staticmethod
    def wire() -> dict:
        from repro.api import SweepRequest, request_to_wire
        from repro.experiments import small_high

        return request_to_wire(SweepRequest(
            "mini", "N", (8,),
            {8: small_high(n_operators=8, n_instances=1)},
            heuristics=("subtree-bottom-up",),
        ))

    def test_valid_sweep_200(self):
        status, payload = self.dispatch(self.wire())
        assert status == 200
        assert payload["result"]["x_values"] == [8.0]

    def test_point_without_config_400(self):
        wire = self.wire()
        wire["x_values"].append(10.0)
        status, payload = self.dispatch(wire)
        assert status == 400
        assert "missing [10.0]" in payload["error"]

    def test_unknown_heuristic_400(self):
        wire = self.wire()
        wire["heuristics"] = ["nope"]
        status, payload = self.dispatch(wire)
        assert status == 400
        assert "nope" in payload["error"]

    @pytest.mark.parametrize("x", ["abc", [1]])
    def test_non_numeric_point_400(self, x):
        wire = self.wire()
        wire["configs"][0]["x"] = x
        status, payload = self.dispatch(wire)
        assert status == 400
        assert "bad sweep request point" in payload["error"]

    @pytest.mark.parametrize("field, value, message", [
        ("n_instances", -1, "n_instances must be >= 1"),
        ("n_operators", 0, "n_operators must be >= 1"),
        ("alpha", "x", "alpha must be a number"),
    ])
    def test_bad_config_field_400(self, field, value, message):
        """Checked by ExperimentConfig itself, at decode time — before
        admission spends a token or a fee."""
        wire = self.wire()
        wire["configs"][0]["config"][field] = value
        status, payload = self.dispatch(wire)
        assert status == 400
        assert message in payload["error"]

    def test_unlisted_config_400(self):
        wire = self.wire()
        wire["configs"].append(
            {"x": 99.0, "config": wire["configs"][0]["config"]}
        )
        status, payload = self.dispatch(wire)
        assert status == 400
        assert "unlisted [99.0]" in payload["error"]


class TestSpecAtTheDoor:
    """A malformed instance spec is a 400 at wire decode, on a shard and
    through a router, before admission: no rate-limit token, queue
    slot or admission fee moves."""

    CASES = [
        ("n_operators", -1, "n_operators must be >= 1"),
        ("n_operators", "x", "n_operators must be an integer"),
        ("seed", 1.5, "seed must be an integer"),
        ("alpha", -1, "alpha must be >= 0"),
        # non-finite: once an ``ok: false`` solve answered with a 200
        ("alpha", float("nan"), "alpha must be finite"),
        ("rho", float("inf"), "rho must be finite"),
        ("n_object_types", 0, "n_object_types must be >= 1"),
    ]

    @staticmethod
    def body(field, value) -> bytes:
        wire = request_to_wire(SolveRequest(
            spec=InstanceSpec(n_operators=6, seed=1), seed=1
        ))
        wire["spec"][field] = value
        return json.dumps({"tenant": "payer", "request": wire}).encode()

    @staticmethod
    def service() -> AllocationService:
        return AllocationService(tenants=(TenantConfig(
            "payer", rate_per_s=0.0, burst=3, budget=10.0,
            admission_price=1.0,
        ),))

    @staticmethod
    def ledger(service: AllocationService) -> tuple:
        state = service.registry.get("payer")
        return (
            state.bucket.tokens, state.account.spent, service.queued,
            service.snapshot()["totals"],
        )

    @pytest.mark.parametrize("field, value, message", CASES)
    def test_on_a_shard(self, field, value, message):
        async def main():
            server = ServiceHTTPServer(self.service())
            await server.service.start()
            try:
                before = self.ledger(server.service)
                response = await server.dispatch(
                    "POST", "/v1/submit", self.body(field, value)
                )
                return response, before, self.ledger(server.service)
            finally:
                await server.aclose()

        (status, payload), before, after = asyncio.run(main())
        assert status == 400
        assert message in payload["error"]
        assert after == before

    @pytest.mark.parametrize("field, value, message", CASES)
    def test_through_a_router(self, field, value, message):
        async def main():
            shards = [
                LocalShard(self.service(), name=f"shard-{i}")
                for i in range(2)
            ]
            router = ShardRouter(shards, global_queue_depth=4)
            await router.start()
            try:
                before = [self.ledger(shard.service) for shard in shards]
                response = await router.dispatch(
                    "POST", "/v1/submit", self.body(field, value)
                )
                after = [self.ledger(shard.service) for shard in shards]
                return response, before, after
            finally:
                await router.aclose()

        (status, payload), before, after = asyncio.run(main())
        assert status == 400
        assert message in payload["error"]
        assert after == before


class TestRequestFieldsAtTheDoor:
    """A malformed solve or replay field is a 400 that names the field,
    raised by the request's constructor at wire decode: no rate-limit
    token, queue slot or admission fee moves."""

    SOLVE = [
        ("seed", 1.5, "seed must be an integer"),
        ("seed", "x", "seed must be an integer"),
        ("bid", "x", "bid must be a number"),
        ("bid", float("nan"), "bid must be finite"),
        ("time_budget_s", "x", "time_budget_s must be a number"),
    ]
    REPLAY = [
        ("seed", 1.5, "seed must be an integer"),
        ("trace", "nope", "unknown trace 'nope'"),
        ("trace", "chrun", "did you mean 'churn'"),
        ("n_results", -1, "n_results must be >= 1"),
        ("n_results", "x", "n_results must be an integer"),
        ("migration_cost", -5, "migration_cost must be >= 0"),
        ("salvage_fraction", "x", "salvage_fraction must be a number"),
        ("migration_cost_per_mb", float("inf"),
         "migration_cost_per_mb must be finite"),
        ("validate", "yes", "validate must be a bool"),
        ("sim_warmup", 1, "sim_warmup must be a bool"),
        ("sim_transitions", "no", "sim_transitions must be a bool"),
    ]

    @staticmethod
    def body(request, field, value) -> bytes:
        wire = request_to_wire(request)
        wire[field] = value
        return json.dumps({"tenant": "payer", "request": wire}).encode()

    def dispatch(self, raw: bytes):
        async def main():
            server = ServiceHTTPServer(TestSpecAtTheDoor.service())
            await server.service.start()
            try:
                ledger = TestSpecAtTheDoor.ledger
                before = ledger(server.service)
                response = await server.dispatch("POST", "/v1/submit", raw)
                return response, before, ledger(server.service)
            finally:
                await server.aclose()

        return asyncio.run(main())

    @pytest.mark.parametrize("field, value, message", SOLVE)
    def test_solve_field(self, field, value, message):
        request = SolveRequest(
            spec=InstanceSpec(n_operators=6, seed=1), seed=1
        )
        (status, payload), before, after = self.dispatch(
            self.body(request, field, value)
        )
        assert status == 400
        assert message in payload["error"]
        assert after == before

    @pytest.mark.parametrize("field, value, message", REPLAY)
    def test_replay_field(self, field, value, message):
        request = ReplayRequest(trace="ramp", policy="static", n_results=5)
        (status, payload), before, after = self.dispatch(
            self.body(request, field, value)
        )
        assert status == 400
        assert message in payload["error"]
        assert after == before


class TestReadTimeout:
    def test_stalled_client_gets_408_and_frees_the_handler(self):
        """A connection that never finishes sending its request must
        be answered (408) and released, not pinned forever."""
        import socket

        loop = asyncio.new_event_loop()
        thread = threading.Thread(target=loop.run_forever, daemon=True)
        thread.start()
        server = ServiceHTTPServer(
            AllocationService(), port=0, read_timeout=0.3
        )
        asyncio.run_coroutine_threadsafe(server.start(), loop).result(30)
        try:
            with socket.create_connection(
                ("127.0.0.1", server.port), timeout=10
            ) as sock:
                sock.sendall(b"POST /v1/submit HTTP/1.1\r\n")  # ...stall
                sock.settimeout(10)
                response = sock.recv(4096)
            assert b"408" in response.split(b"\r\n", 1)[0]
        finally:
            asyncio.run_coroutine_threadsafe(
                server.aclose(), loop
            ).result(30)
            loop.call_soon_threadsafe(loop.stop)
            thread.join(timeout=10)
            loop.close()


def _read_response(stream) -> tuple[int, dict, bytes]:
    """One HTTP response off a socket file: ``(status, headers, body)``,
    header names lower-cased."""
    status_line = stream.readline()
    assert status_line, "connection closed before any response"
    status = int(status_line.split()[1])
    headers = {}
    while True:
        line = stream.readline()
        if line in (b"\r\n", b""):
            break
        name, _, value = line.decode("latin1").partition(":")
        headers[name.strip().lower()] = value.strip()
    body = stream.read(int(headers["content-length"]))
    return status, headers, body


class _CountingServer(ServiceHTTPServer):
    """Counts the connections it accepts."""

    accepted = 0

    async def _handle_connection(self, reader, writer):
        self.accepted += 1
        await super()._handle_connection(reader, writer)


def _assert_closed(stream) -> None:
    """The server closed the connection (a reset counts: it closed
    with bytes of ours unread)."""
    try:
        assert stream.read() == b""
    except ConnectionResetError:
        pass


@pytest.fixture()
def hosted():
    """Start a fresh connection-counting :class:`ServiceHTTPServer`
    (with the given keywords) on a background event-loop thread;
    closed at teardown."""
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    servers = []

    def start(**kwargs) -> ServiceHTTPServer:
        server = _CountingServer(AllocationService(), port=0, **kwargs)
        asyncio.run_coroutine_threadsafe(server.start(), loop).result(30)
        servers.append(server)
        return server

    def aclose(server) -> None:
        asyncio.run_coroutine_threadsafe(server.aclose(), loop).result(30)
        servers.remove(server)

    start.aclose = aclose
    yield start
    for server in servers:
        aclose(server)
    loop.call_soon_threadsafe(loop.stop)
    thread.join(timeout=10)
    assert not thread.is_alive()
    loop.close()


class TestKeepAlive:
    def test_two_requests_on_one_socket(self, server):
        import socket

        with socket.create_connection(
            ("127.0.0.1", server.port), timeout=10
        ) as sock, sock.makefile("rb") as stream:
            for _ in range(2):
                sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
                status, headers, body = _read_response(stream)
                assert status == 200
                assert headers["connection"] == "keep-alive"
                assert json.loads(body) == {"ok": True}

    @pytest.mark.parametrize("request_head", [
        b"GET /healthz HTTP/1.0\r\n\r\n",
        b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
    ])
    def test_closed_after_one_response(self, server, request_head):
        import socket

        with socket.create_connection(
            ("127.0.0.1", server.port), timeout=10
        ) as sock, sock.makefile("rb") as stream:
            # a second request rides along; it must go unanswered
            sock.sendall(request_head + b"GET /healthz HTTP/1.1\r\n\r\n")
            status, headers, _ = _read_response(stream)
            assert status == 200
            assert headers["connection"] == "close"
            _assert_closed(stream)

    def test_idle_connection_closed_quietly(self, hosted):
        import socket
        import time

        server = hosted(read_timeout=0.3)
        with socket.create_connection(
            ("127.0.0.1", server.port), timeout=10
        ) as sock, sock.makefile("rb") as stream:
            sock.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
            assert _read_response(stream)[0] == 200
            started = time.monotonic()
            assert stream.read() == b""  # closed, and no 408
            assert time.monotonic() - started < 5

    def test_aclose_returns_while_a_client_holds_an_idle_connection(
        self, hosted
    ):
        """Python 3.12's ``Server.wait_closed()`` waits for every open
        connection, so ``aclose()`` must close the idle ones itself."""
        import socket
        import time

        server = hosted()
        with socket.create_connection(
            ("127.0.0.1", server.port), timeout=10
        ) as sock, sock.makefile("rb") as stream:
            sock.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
            assert _read_response(stream)[0] == 200
            started = time.monotonic()
            hosted.aclose(server)
            assert time.monotonic() - started < 1.0
            sock.settimeout(1.0)  # closed now, not after read_timeout
            assert stream.read() == b""

    def test_client_reuses_its_connection_and_survives_an_idle_close(
        self, hosted
    ):
        import time

        server = hosted(read_timeout=0.3)
        client = HttpServiceClient(f"http://127.0.0.1:{server.port}")
        try:
            for _ in range(3):
                assert client.health() == {"ok": True}
            assert server.accepted == 1
            time.sleep(0.6)  # the server closes the idle connection
            assert client.health() == {"ok": True}  # retried once
            assert server.accepted == 2
        finally:
            client.close()

    def test_metrics_and_json_share_the_connection(self, hosted):
        server = hosted()
        client = HttpServiceClient(f"http://127.0.0.1:{server.port}")
        try:
            assert client.metrics().startswith("#")
            assert client.health() == {"ok": True}
            with pytest.raises(ServiceError) as exc_info:
                client._request("GET", "/nope")
            assert exc_info.value.status == 404
            assert server.accepted == 1
        finally:
            client.close()


class TestFraming:
    """A persistent connection needs exact framing: anything the
    server cannot frame is answered and the connection closed, so the
    next bytes are never read as a request."""

    @pytest.mark.parametrize("headers, status", [
        (b"Content-Length: -1\r\n", 400),
        (b"Content-Length: abc\r\n", 400),
        (b"Content-Length: 5\r\nContent-Length: 16\r\n", 400),
        (b"Transfer-Encoding: chunked\r\n", 501),
        (b"X-Filler: y\r\n" * 101, 431),
        (b"NoColonHere\r\n", 400),
        (b"X-Long: " + b"a" * 70_000 + b"\r\n", 431),
    ])
    def test_unframeable_request_answered_then_closed(
        self, server, headers, status
    ):
        import socket

        with socket.create_connection(
            ("127.0.0.1", server.port), timeout=10
        ) as sock, sock.makefile("rb") as stream:
            sock.sendall(
                b"POST /v1/cancel HTTP/1.1\r\n" + headers + b"\r\n"
                b"5\r\n{\"ticket\": 1}\r\n0\r\n\r\n"
            )
            got, response_headers, body = _read_response(stream)
            assert got == status, body
            assert response_headers["connection"] == "close"
            assert "error" in json.loads(body)
            _assert_closed(stream)

    def test_deeply_nested_json_is_a_400(self, client):
        deep = b"[" * 100_000 + b"]" * 100_000
        import http.client as hc

        conn = hc.HTTPConnection(client.host, client.port, timeout=30)
        try:
            conn.request("POST", "/v1/submit", body=deep)
            response = conn.getresponse()
            assert response.status == 400
            assert b"nested too deeply" in response.read()
        finally:
            conn.close()
