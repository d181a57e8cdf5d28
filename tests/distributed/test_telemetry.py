"""Trace propagation across the distributed fabric.

One trace id travels request → task frame → worker span → result
frame → coordinator store, surviving retries, evictions, and SIGKILL.
Worker-side spans ship back attached to result/error frames, so the
coordinator's :data:`~repro.telemetry.trace.TRACE_STORE` holds the
stitched picture even when the execution happened in another process.
"""

import os
import threading
import time
from dataclasses import dataclass

import pytest

from repro.api import FailureRecord, InstanceSpec, SolveRequest, solve_many
from repro.distributed import DistributedExecutor
from repro.telemetry import new_trace_id
from repro.telemetry.trace import TRACE_STORE

from .test_executor import _result_fingerprint
from .test_faults import _spawn_worker_process


@dataclass(frozen=True)
class _TracedTask:
    """A picklable work item carrying a telemetry correlation id."""

    value: int
    trace_id: "str | None" = None
    flag_path: "str | None" = None


def _traced_square(task: _TracedTask) -> int:
    return task.value * task.value


def _fail_first_time(task: _TracedTask) -> int:
    """Raises on the first attempt (filesystem flag), succeeds on the
    retry — works identically for thread fleets and real processes."""
    if not os.path.exists(task.flag_path):
        with open(task.flag_path, "w", encoding="utf8") as fh:
            fh.write("attempted")
        raise RuntimeError(f"first attempt of {task.value} fails")
    return task.value * task.value


def _fail_always(task: _TracedTask) -> int:
    raise RuntimeError(f"task {task.value} fails everywhere")


def _worker_spans(trace_id):
    return [
        s for s in TRACE_STORE.get(trace_id) if s.name == "worker.execute"
    ]


class TestPropagation:
    def test_each_task_lands_one_worker_span(self, fleet):
        tids = [new_trace_id() for _ in range(4)]
        tasks = [
            _TracedTask(value=i, trace_id=tid)
            for i, tid in enumerate(tids)
        ]
        with fleet(2) as (executor, _workers):
            assert executor.map(_traced_square, tasks) == [
                0, 1, 4, 9
            ]
        for i, tid in enumerate(tids):
            spans = _worker_spans(tid)
            assert len(spans) == 1, f"trace {tid} has {spans}"
            (s,) = spans
            assert s.trace_id == tid
            assert s.status == "ok"
            assert s.attributes["worker"] in ("w0", "w1")
            assert "retry" not in s.attributes  # first dispatch
            assert isinstance(s.attributes["task"], int)

    def test_untraced_items_record_nothing(self, fleet):
        tasks = [_TracedTask(value=i) for i in range(3)]
        before = set(TRACE_STORE.trace_ids())
        with fleet(2) as (executor, _workers):
            assert executor.map(_traced_square, tasks) == [0, 1, 4]
        assert set(TRACE_STORE.trace_ids()) == before


class TestRetry:
    def test_retried_task_keeps_trace_id_with_retry_attribute(
        self, fleet, tmp_path
    ):
        tid = new_trace_id()
        task = _TracedTask(
            value=5, trace_id=tid, flag_path=str(tmp_path / "flag")
        )
        with fleet(
            2, coordinator={"retry_backoff_s": 0.01}
        ) as (executor, _workers):
            assert executor.map(_fail_first_time, [task]) == [25]
            assert executor.stats()["retried"] == 1
        spans = _worker_spans(tid)
        assert len(spans) == 2
        first, second = sorted(spans, key=lambda s: s.start)
        assert first.status == "error"
        assert "first attempt" in first.error
        assert "retry" not in first.attributes
        assert second.status == "ok"
        assert second.attributes["retry"] == 1
        assert {s.trace_id for s in spans} == {tid}


class TestPoison:
    def test_poisoned_task_emits_terminal_error_span(self, fleet):
        tid = new_trace_id()
        task = _TracedTask(value=7, trace_id=tid)
        with fleet(
            2, coordinator={"poison_after": 2, "retry_backoff_s": 0.01}
        ) as (executor, _workers):
            (result,) = executor.map(_fail_always, [task])
        assert isinstance(result, FailureRecord)
        terminal = [
            s for s in TRACE_STORE.get(tid) if s.name == "task.poisoned"
        ]
        assert len(terminal) == 1
        (t,) = terminal
        assert t.status == "error"
        assert "fails everywhere" in t.error
        assert t.attributes["attempts"] == 2
        # every attempt's worker-side error span came back too
        attempts = _worker_spans(tid)
        assert len(attempts) == 2
        assert all(s.status == "error" for s in attempts)
        assert any(s.attributes.get("retry") == 1 for s in attempts)


class TestCoordinatorStatsPort:
    def test_serves_metrics_and_stats(self, fleet):
        import http.client
        import json

        with fleet(
            2, coordinator={"stats_port": 0}
        ) as (executor, _workers):
            assert executor.map(
                _traced_square, [_TracedTask(value=v) for v in range(4)]
            ) == [0, 1, 4, 9]
            port = executor.coordinator.stats_port
            assert port  # 0 was replaced by the bound port

            def fetch(path):
                conn = http.client.HTTPConnection(
                    "127.0.0.1", port, timeout=30
                )
                try:
                    conn.request("GET", path)
                    response = conn.getresponse()
                    return response.status, response.read().decode("utf8")
                finally:
                    conn.close()

            status, text = fetch("/metrics")
            assert status == 200
            assert "# TYPE repro_coord_tasks_total counter" in text
            assert 'repro_coord_tasks_total{outcome="completed"}' in text
            status, body = fetch("/stats")
            assert status == 200
            stats = json.loads(body)
            assert stats["completed"] >= 4
            assert stats["n_workers"] == 2
            assert fetch("/nope")[0] == 404

    def test_two_coordinators_report_only_their_own(self, fleet):
        """Each coordinator records into its own registry: two in one
        process never add up or overwrite each other's levels."""
        import http.client

        def scrape(executor):
            conn = http.client.HTTPConnection(
                "127.0.0.1", executor.coordinator.stats_port, timeout=30
            )
            try:
                conn.request("GET", "/metrics")
                return conn.getresponse().read().decode("utf8")
            finally:
                conn.close()

        with fleet(1, coordinator={"stats_port": 0}) as (one, _), \
                fleet(2, coordinator={"stats_port": 0}) as (two, _):
            one.map(_traced_square, [_TracedTask(value=v) for v in range(3)])
            two.map(_traced_square, [_TracedTask(value=v) for v in range(5)])
            for executor, workers, tasks in ((one, 1, 3), (two, 2, 5)):
                stats = executor.stats()
                assert (stats["n_workers"], stats["registered"]) == (
                    workers, workers
                )
                assert (stats["submitted"], stats["completed"]) == (
                    tasks, tasks
                )
                text = scrape(executor)
                assert f"repro_coord_workers {workers}\n" in text
                assert (
                    f'repro_coord_tasks_total{{outcome="submitted"}}'
                    f" {tasks}\n"
                ) in text
                assert (
                    f'repro_coord_worker_events_total{{event="registered"}}'
                    f" {workers}\n"
                ) in text


class TestSigkillPropagation:
    def test_trace_survives_worker_sigkill(self):
        """The satellite's acceptance path: real worker processes, one
        SIGKILL'd mid-campaign.  The requeued tasks re-execute on the
        survivor under the *same* trace id with a ``retry`` attribute,
        and the results stay bit-identical to serial — telemetry rides
        along, it never steers.

        Each request runs the whole placement portfolio with local
        search on a 100-operator tree (about 11 ms of solving), so a
        task stays in flight long enough for the kill to land on one:
        the SIGKILL is sent only while the coordinator shows the victim
        holding a task."""
        from repro.api import registry

        portfolio = tuple(registry.names("placement"))
        requests = [
            SolveRequest(
                spec=InstanceSpec(n_operators=100, alpha=1.2, seed=s),
                portfolio=portfolio, refine=True,
                seed=s, trace_id=new_trace_id(),
            )
            for s in range(16)
        ]
        serial = solve_many(requests)

        executor = DistributedExecutor(port=0)
        port = executor.coordinator.port
        procs = [_spawn_worker_process(port) for _ in range(2)]
        try:
            assert executor.wait_for_workers(2, timeout=60)
            outcome: dict = {}

            def run_campaign():
                outcome["results"] = solve_many(
                    requests, executor=executor
                )

            campaign = threading.Thread(target=run_campaign, daemon=True)
            campaign.start()
            deadline = time.monotonic() + 120

            def victim_busy() -> bool:
                return any(
                    worker["pid"] == procs[0].pid and worker["in_flight"]
                    for worker in executor.stats()["workers"].values()
                )

            while not victim_busy():
                assert time.monotonic() < deadline, "campaign stalled"
                assert campaign.is_alive()
                time.sleep(0.001)
            procs[0].kill()
            procs[0].wait(timeout=30)
            campaign.join(timeout=300)
            assert not campaign.is_alive(), "campaign never finished"
        finally:
            executor.close()
            for proc in procs:
                if proc.poll() is None:
                    proc.terminate()
                    proc.wait(timeout=30)

        assert [_result_fingerprint(r) for r in outcome["results"]] == [
            _result_fingerprint(r) for r in serial
        ]
        stats = executor.stats()
        assert stats["evicted"] == 1
        assert stats["requeued"] >= 1

        retried_spans = []
        for request in requests:
            spans = _worker_spans(request.trace_id)
            # the task ran to completion somewhere, and whoever ran it
            # shipped a span carrying the request's own trace id
            assert any(s.status == "ok" for s in spans)
            assert all(s.trace_id == request.trace_id for s in spans)
            retried_spans.extend(
                s for s in spans
                if s.status == "ok" and "retry" in s.attributes
            )
        # at least one requeued task re-executed under its original
        # trace id, marked as a retry
        assert retried_spans, "no retried execution span shipped back"
        assert all(s.attributes["retry"] >= 1 for s in retried_spans)
