"""The observability surface end to end: ``GET /metrics``,
``GET /v1/trace/<id>``, and the ``repro trace`` CLI."""

import asyncio
import json
import threading

import pytest

from repro.api import InstanceSpec, SolveRequest
from repro.cli import main
from repro.service import (
    AllocationService,
    HttpServiceClient,
    ServiceError,
    ServiceHTTPServer,
)
from repro.telemetry import new_trace_id, span_to_dict
from repro.telemetry.trace import TRACE_STORE


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


@pytest.fixture(scope="module")
def traced_solve(server):
    """One traced solve through the front door; returns its trace id.
    Module-scoped: a repeat of the same request would be a cache hit,
    which records an admission span but never runs the solver."""
    client = HttpServiceClient(f"http://127.0.0.1:{server.port}")
    trace_id = new_trace_id()
    request = SolveRequest(
        spec=InstanceSpec(n_operators=8, alpha=1.2, seed=4), seed=4,
        trace_id=trace_id,
    )
    response = client.submit(request, tenant="traced")
    client.close()
    assert response["result"]["ok"] is True
    assert response["result"]["trace_id"] == trace_id
    return trace_id


class TestMetricsEndpoint:
    def test_families_present_and_parseable(self, client, traced_solve):
        text = client.metrics()
        assert text.endswith("\n")
        for family in (
            "repro_service_requests_total",
            "repro_service_queue_wait_seconds",
            "repro_service_time_seconds",
            "repro_service_queued",
        ):
            assert f"# TYPE {family}" in text
        # the scrape contract: every sample line parses as name + float
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            name_part, _, value_part = line.rpartition(" ")
            assert name_part
            float(value_part)

    def test_counts_move_with_traffic(self, client, traced_solve):
        before = _family_total(client.metrics(),
                               "repro_service_requests_total")
        request = SolveRequest(
            spec=InstanceSpec(n_operators=8, seed=9), seed=9
        )
        client.submit(request, tenant="mover")
        after = _family_total(client.metrics(),
                              "repro_service_requests_total")
        assert after > before

    def test_wrong_method_is_405(self, server):
        import http.client

        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=30)
        try:
            conn.request("POST", "/metrics")
            assert conn.getresponse().status == 405
        finally:
            conn.close()


def _family_total(text, family):
    return sum(
        float(line.rpartition(" ")[2])
        for line in text.splitlines()
        if line.startswith(family + "{") or line.startswith(family + " ")
    )


class TestTraceEndpoint:
    def test_stitched_spans_for_one_submit(self, client, traced_solve):
        payload = client.trace(traced_solve)
        assert payload["trace_id"] == traced_solve
        names = {s["name"] for s in payload["spans"]}
        # admission → queue → execution → the solve itself
        assert {"service.admission", "service.queue",
                "service.execute", "api.solve"} <= names
        assert all(s["trace_id"] == traced_solve
                   for s in payload["spans"])

    def test_unknown_trace_is_404(self, client):
        with pytest.raises(ServiceError) as exc_info:
            client.trace("feedfacedeadbeef")
        assert exc_info.value.status == 404

    def test_cache_hit_answers_with_submitters_trace_id(
        self, client, traced_solve
    ):
        """A repeat of a cached request gets *its own* trace id back
        (telemetry identity is not computational identity), and its
        trace shows the cache hit instead of a solver run."""
        tid = new_trace_id()
        request = SolveRequest(
            spec=InstanceSpec(n_operators=8, alpha=1.2, seed=4), seed=4,
            trace_id=tid,
        )
        response = client.submit(request, tenant="traced")
        assert response["result"]["trace_id"] == tid
        spans = client.trace(tid)["spans"]
        assert any(
            s["name"] == "service.admission"
            and s.get("attributes", {}).get("cache_hit")
            for s in spans
        )
        assert not any(s["name"] == "api.solve" for s in spans)


class TestTraceCLI:
    def test_renders_tree_from_service(self, client, server,
                                       traced_solve, capsys):
        code = main([
            "trace", traced_solve,
            "--url", f"http://127.0.0.1:{server.port}",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert f"trace {traced_solve}" in out
        assert "api.solve" in out and "ms" in out

    def test_json_output_round_trips(self, client, server,
                                     traced_solve, capsys):
        assert main([
            "trace", traced_solve, "--json",
            "--url", f"http://127.0.0.1:{server.port}",
        ]) == 0
        spans = json.loads(capsys.readouterr().out)
        assert {s["name"] for s in spans} >= {"api.solve"}

    def test_renders_from_file_dump(self, tmp_path, capsys):
        tid = new_trace_id()
        spans = [span_to_dict(s) for s in _local_spans(tid)]
        dump = tmp_path / "spans.json"
        dump.write_text(json.dumps({"trace_id": tid, "spans": spans}))
        assert main(["trace", tid, "--file", str(dump)]) == 0
        out = capsys.readouterr().out
        assert "outer" in out and "inner" in out
        # the child is indented one level deeper than its parent
        outer_line = next(l for l in out.splitlines() if "outer" in l)
        inner_line = next(l for l in out.splitlines() if "inner" in l)
        indent = lambda l: len(l) - len(l.lstrip())  # noqa: E731
        assert indent(inner_line) == indent(outer_line) + 2

    def test_unknown_trace_fails(self, server, capsys):
        code = main([
            "trace", "0123456789abcdef",
            "--url", f"http://127.0.0.1:{server.port}",
        ])
        assert code == 1
        assert "404" in capsys.readouterr().err

    def test_missing_file_fails(self, tmp_path, capsys):
        code = main(["trace", "abc", "--file", str(tmp_path / "no.json")])
        assert code == 2


def _local_spans(tid):
    from repro.telemetry import span

    with TRACE_STORE.capture() as sink:
        with span("outer", trace_id=tid):
            with span("inner"):
                pass
    return sink


class TestSubmitPrintsTrace:
    def test_submit_announces_trace_id(self, server, capsys):
        code = main([
            "submit", "--url", f"http://127.0.0.1:{server.port}",
            "-n", "8", "-s", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        import re

        m = re.search(r"trace ([0-9a-f]{16})", out)
        assert m, out
        # and that trace is immediately fetchable
        fetcher = HttpServiceClient(f"http://127.0.0.1:{server.port}")
        payload = fetcher.trace(m.group(1))
        fetcher.close()
        assert any(s["name"] == "api.solve" for s in payload["spans"])
