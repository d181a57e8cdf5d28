"""The coordinator: multi-worker task scheduling over TCP.

One :class:`Coordinator` owns a listening socket.  Workers
(:mod:`repro.distributed.worker`, ``repro worker --connect``) dial in,
register, and pull tasks; the coordinator keeps at most ``window``
tasks in flight per worker (backpressure — a slow worker never hoards
the queue), watches heartbeats, and folds results back into the
submitting batch *in input order*.

Fault tolerance is the design center, not a bolt-on:

* a dead connection or a missed-heartbeat worker is **evicted** and
  its in-flight tasks requeued at the *front* of the pending queue —
  surviving workers pick them up first;
* a task whose function *raised* on a worker is retried on a worker
  that has not failed it yet, after a capped exponential backoff;
* a **poisoned** task — one that failed on ``poison_after`` distinct
  workers, or on every connected worker — resolves its result slot to
  a structured :class:`~repro.api.requests.FailureRecord`
  (``stage="poisoned"``) instead of hanging the campaign;
* a worker announcing **drain** stops receiving new work, finishes its
  in-flight tasks, and deregisters gracefully — nothing is requeued,
  nothing is lost.

Determinism: the coordinator adds no entropy and workers share no
state — every task carries its seed (derived at request-build time),
so results are bit-identical to :class:`~repro.api.SerialExecutor`
whichever workers execute them, in whatever order, including after
requeues.  ``tests/distributed/`` asserts this, mid-campaign
worker-kill included.

:class:`DistributedExecutor` wraps a coordinator in the three-line
:class:`~repro.api.Executor` protocol, so ``solve_many`` /
``replay_many`` / ``sweep`` / ``AllocationService(jobs=...)`` fan out
over a worker fleet with no code changes —
``get_executor("remote:HOST:PORT")`` (the CLI's ``--jobs
remote:HOST:PORT``) builds one.
"""

from __future__ import annotations

import itertools
import json
import os
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Iterable

from ..api.requests import FailureRecord
from ..api.wire import recv_frame, send_frame
from ..telemetry import MetricsRegistry, get_logger, record_span, scrape
from ..telemetry.trace import TRACE_STORE
from .protocol import (
    MSG_AUTH,
    MSG_CHALLENGE,
    MSG_DRAIN,
    MSG_GOODBYE,
    MSG_HEARTBEAT,
    MSG_REGISTER,
    MSG_RESULT,
    MSG_SHUTDOWN,
    MSG_TASK,
    MSG_TASK_ERROR,
    MSG_WELCOME,
    PROTOCOL_VERSION,
    auth_mac,
    decode_result,
    encode_task,
    macs_equal,
)

__all__ = ["Coordinator", "DistributedExecutor"]

_log = get_logger("distributed.coordinator")

#: Sentinel for a result slot not yet filled.
_UNSET = object()


class _Batch:
    """One ``map`` call: ordered result slots + a completion event."""

    __slots__ = ("slots", "remaining", "done")

    def __init__(self, n: int) -> None:
        self.slots: list = [_UNSET] * n
        self.remaining = n
        self.done = threading.Event()

    def complete(self, index: int, value: Any) -> None:
        if self.slots[index] is not _UNSET:  # pragma: no cover — guarded
            return
        self.slots[index] = value
        self.remaining -= 1
        if self.remaining == 0:
            self.done.set()


@dataclass(eq=False)
class _Task:
    id: int
    index: int
    batch: _Batch
    payload: dict
    label: str
    attempts: int = 0
    failed_workers: set = field(default_factory=set)
    not_before: float = 0.0
    last_error: dict | None = None
    #: Telemetry correlation id lifted off the submitted item (when it
    #: is a traced request) — travels in the task frame so the
    #: worker's spans stitch into the submitter's trace.
    trace_id: str | None = None
    #: How many times this task was sent to *any* worker — unlike
    #: ``attempts`` (function raised), this also counts re-dispatches
    #: after an eviction (worker died), so the worker span's ``retry``
    #: attribute covers SIGKILL requeues too.
    dispatches: int = 0


@dataclass(eq=False)
class _WorkerConn:
    name: str
    sock: socket.socket
    window: int
    seq: int  # registration order, the scheduling tie-break
    pid: int | None = None
    last_seen: float = 0.0
    draining: bool = False
    in_flight: dict = field(default_factory=dict)  # task id → _Task
    send_lock: threading.Lock = field(default_factory=threading.Lock)
    n_completed: int = 0
    n_failed: int = 0


def _close_sock(sock: socket.socket) -> None:
    """Shut down + close, waking any thread blocked in recv."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass


class _StatsServer:
    """Tiny threaded HTTP listener for the distributed tier's
    observability: ``GET /metrics`` (Prometheus text: the process-wide
    families plus the coordinator's own registry) and ``GET /stats``
    (the coordinator's JSON counters, a view over that registry).
    Runs beside the task socket so scraping never competes with frame
    traffic."""

    def __init__(self, host: str, port: int,
                 coordinator: "Coordinator") -> None:
        stats_of = coordinator.stats
        metrics = coordinator.metrics

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 — http.server API
                if self.path == "/metrics":
                    body = scrape(metrics).encode("utf8")
                    ctype = "text/plain; version=0.0.4; charset=utf-8"
                elif self.path == "/stats":
                    body = json.dumps(
                        stats_of(), indent=2, sort_keys=True
                    ).encode("utf8")
                    ctype = "application/json"
                else:
                    self.send_error(404, "unknown path (try /metrics)")
                    return
                self.send_response(200)
                self.send_header("Content-Type", ctype)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, fmt, *args):  # scrapes are not news
                _log.debug("stats %s", fmt % args)

        self._httpd = ThreadingHTTPServer((host, port), Handler)
        self._httpd.daemon_threads = True
        self.port = self._httpd.server_address[1]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-coordinator-stats", daemon=True,
        )
        self._thread.start()

    def close(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5.0)


class Coordinator:
    """Accepts worker registrations and schedules task batches.

    ``port=0`` picks a free port (read it back from :attr:`port` after
    :meth:`start`).  :meth:`submit` is thread-safe and blocking — many
    batches may be in flight concurrently (that is exactly how
    :class:`~repro.service.AllocationService` drives a custom
    executor), all drawing on the same worker fleet.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        window: int = 2,
        heartbeat_s: float = 1.0,
        heartbeat_timeout_s: float = 5.0,
        poison_after: int = 3,
        retry_backoff_s: float = 0.05,
        retry_backoff_max_s: float = 2.0,
        handshake_timeout_s: float = 10.0,
        secret: str | None = None,
        stats_port: int | None = None,
    ) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if poison_after < 1:
            raise ValueError(
                f"poison_after must be >= 1, got {poison_after}"
            )
        if heartbeat_timeout_s <= heartbeat_s:
            raise ValueError(
                f"heartbeat_timeout_s ({heartbeat_timeout_s}) must exceed"
                f" the heartbeat interval ({heartbeat_s})"
            )
        self.host = host
        self.port = port
        self.window = window
        self.heartbeat_s = heartbeat_s
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.poison_after = poison_after
        self.retry_backoff_s = retry_backoff_s
        self.retry_backoff_max_s = retry_backoff_max_s
        self.handshake_timeout_s = handshake_timeout_s
        #: Shared secret for the mutual HMAC handshake; ``None`` keeps
        #: the legacy open registration (private-network deployments).
        #: When set, every frame in both directions also carries a
        #: per-frame HMAC-SHA256 trailer — not just the handshake.
        self.secret = secret or None
        self._frame_secret = (
            self.secret.encode("utf8") if self.secret else None
        )
        #: ``None`` → no stats listener; ``0`` → pick a free port
        #: (read :attr:`stats_port` back after :meth:`start`).
        self.stats_port = stats_port
        self._stats_server: "_StatsServer | None" = None

        self._cond = threading.Condition()
        self._workers: dict[str, _WorkerConn] = {}
        self._pending: deque[_Task] = deque()
        self._ids = itertools.count(1)
        self._seqs = itertools.count(1)
        self._closed = False
        self._closed_event = threading.Event()
        self._listener: socket.socket | None = None
        self._threads: list[threading.Thread] = []
        #: The one source of the scheduling counters and fleet levels;
        #: counters move under ``_cond`` so :meth:`stats` reads a
        #: consistent view of them.
        self.metrics = MetricsRegistry()
        self._tasks = self.metrics.counter(
            "repro_coord_tasks_total",
            "Coordinator task events by outcome.",
            ("outcome",),
        )
        self._worker_events = self.metrics.counter(
            "repro_coord_worker_events_total",
            "Worker fleet membership events.",
            ("event",),
        )
        workers = self.metrics.gauge(
            "repro_coord_workers", "Workers currently registered."
        )
        pending = self.metrics.gauge(
            "repro_coord_pending", "Tasks waiting for a worker slot."
        )
        in_flight = self.metrics.gauge(
            "repro_coord_in_flight", "Tasks currently on workers."
        )

        def collect_levels() -> None:  # refreshed at scrape time
            with self._cond:
                workers.set(len(self._workers))
                pending.set(len(self._pending))
                in_flight.set(sum(
                    len(w.in_flight) for w in self._workers.values()
                ))

        self.metrics.register_collector(collect_levels)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @property
    def started(self) -> bool:
        return self._listener is not None

    @property
    def n_workers(self) -> int:
        with self._cond:
            return len(self._workers)

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def start(self) -> "Coordinator":
        if self.started:
            return self
        listener = socket.create_server(
            (self.host, self.port), reuse_port=False
        )
        self.port = listener.getsockname()[1]
        self._listener = listener
        for target, name in (
            (self._accept_loop, "accept"),
            (self._scheduler_loop, "scheduler"),
            (self._monitor_loop, "monitor"),
        ):
            thread = threading.Thread(
                target=target, name=f"repro-coordinator-{name}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        if self.stats_port is not None:
            self._stats_server = _StatsServer(
                self.host, self.stats_port, self
            )
            self.stats_port = self._stats_server.port
            _log.info(
                "stats listener on http://%s:%d (/metrics, /stats)",
                self.host, self.stats_port,
            )
        return self

    def close(self) -> None:
        """Stop scheduling, tell workers to shut down, and resolve any
        outstanding result slots with ``coordinator-closed`` failure
        records so no ``map`` call hangs."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            outstanding = list(self._pending)
            self._pending.clear()
            conns = list(self._workers.values())
            for conn in conns:
                outstanding.extend(conn.in_flight.values())
                conn.in_flight.clear()
            self._workers.clear()
            for task in outstanding:
                task.batch.complete(
                    task.index,
                    FailureRecord(
                        strategy=task.label,
                        stage="coordinator-closed",
                        error_type="RuntimeError",
                        message="the coordinator closed before this task"
                                " completed",
                    ),
                )
            self._cond.notify_all()
        self._closed_event.set()
        for conn in conns:
            try:
                with conn.send_lock:
                    send_frame(conn.sock, {"type": MSG_SHUTDOWN},
                               secret=self._frame_secret)
            except OSError:
                pass
            _close_sock(conn.sock)
        if self._listener is not None:
            _close_sock(self._listener)
            self._listener = None
        for thread in self._threads:
            thread.join(timeout=5.0)
        self._threads.clear()
        if self._stats_server is not None:
            self._stats_server.close()
            self._stats_server = None

    def __enter__(self) -> "Coordinator":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    def wait_for_workers(self, n: int = 1,
                         timeout: float | None = None) -> bool:
        """Block until ``n`` workers are registered (or timeout)."""
        with self._cond:
            return self._cond.wait_for(
                lambda: len(self._workers) >= n or self._closed, timeout
            ) and len(self._workers) >= n

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------

    def submit(self, fn: Callable, items: Iterable) -> list:
        """Run ``fn`` over ``items`` on the fleet; blocks until every
        slot resolves (a result, or a FailureRecord for poisoned
        tasks).  Results come back in input order."""
        items = list(items)
        if not items:
            return []
        label = getattr(fn, "__name__", str(fn))
        payloads = [encode_task(fn, item) for item in items]
        batch = _Batch(len(items))
        with self._cond:
            if self._closed:
                raise RuntimeError("the coordinator is closed")
            for index, payload in enumerate(payloads):
                self._pending.append(
                    _Task(
                        id=next(self._ids),
                        index=index,
                        batch=batch,
                        payload=payload,
                        label=f"{label}[{index}]",
                        trace_id=getattr(items[index], "trace_id", None),
                    )
                )
            self._tasks.labels(outcome="submitted").inc(len(items))
            self._cond.notify_all()
        batch.done.wait()
        return list(batch.slots)

    def map(self, fn: Callable, items: Iterable) -> list:
        """Alias matching the :class:`~repro.api.Executor` protocol."""
        return self.submit(fn, items)

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------

    def _assign_locked(self, now: float) -> list[tuple[_WorkerConn, _Task]]:
        """Pop every dispatchable pending task and book it onto a
        worker (fewest in-flight first; never a worker that already
        failed it, never a draining one).  Caller sends the frames
        outside the lock."""
        assignments: list[tuple[_WorkerConn, _Task]] = []
        remaining: deque[_Task] = deque()
        while self._pending:
            task = self._pending.popleft()
            if task.not_before > now:
                remaining.append(task)
                continue
            candidates = [
                w for w in self._workers.values()
                if not w.draining
                and w.name not in task.failed_workers
                and len(w.in_flight) < w.window
            ]
            if not candidates:
                active = [
                    w for w in self._workers.values() if not w.draining
                ]
                if active and all(
                    w.name in task.failed_workers for w in active
                ):
                    # failed on every worker there is — poisoned now,
                    # not hung until a fresh worker happens to join
                    self._poison_locked(task)
                else:
                    remaining.append(task)
                continue
            worker = min(
                candidates, key=lambda w: (len(w.in_flight), w.seq)
            )
            worker.in_flight[task.id] = task
            task.dispatches += 1
            assignments.append((worker, task))
        self._pending = remaining
        return assignments

    def _wait_timeout_locked(self, now: float) -> float:
        """How long the scheduler may sleep: until the next retry
        backoff expires, capped so lost wakeups can never wedge it."""
        timeout = 0.5
        for task in self._pending:
            if task.not_before > now:
                timeout = min(timeout, task.not_before - now)
        return max(timeout, 0.001)

    def _scheduler_loop(self) -> None:
        while True:
            with self._cond:
                if self._closed:
                    return
                now = time.monotonic()
                assignments = self._assign_locked(now)
                if not assignments:
                    self._cond.wait(self._wait_timeout_locked(now))
                    continue
            for worker, task in assignments:
                frame = {
                    "type": MSG_TASK,
                    "task": task.id,
                    "payload": task.payload,
                }
                if task.trace_id is not None:
                    # traced tasks carry the correlation id plus the
                    # dispatch ordinal, so worker spans can stitch and
                    # mark retries; untraced frames stay byte-identical
                    # to the pre-telemetry protocol
                    frame["trace"] = task.trace_id
                    frame["dispatch"] = task.dispatches
                try:
                    with worker.send_lock:
                        send_frame(worker.sock, frame,
                                   secret=self._frame_secret)
                except OSError:
                    self._evict(worker, "send-failed")

    def _poison_locked(self, task: _Task) -> None:
        error = task.last_error or {}
        workers = sorted(task.failed_workers)
        self._tasks.labels(outcome="poisoned").inc()
        _log.error(
            "poisoned task %s (id %d, trace %s) after %d attempt(s) on"
            " %s: %s",
            task.label, task.id, task.trace_id, task.attempts,
            ", ".join(workers) or "no workers",
            error.get("message", "unknown error"),
        )
        # the terminal span of a poisoned trace: the submitter's
        # `repro trace` shows *why* the slot resolved to a failure
        record_span(
            "task.poisoned", task.trace_id,
            start=time.time(), duration_s=0.0,
            status="error",
            error=error.get("message", "unknown error"),
            task=task.id, label=task.label,
            attempts=task.attempts, workers=",".join(workers),
        )
        task.batch.complete(
            task.index,
            FailureRecord(
                strategy=task.label,
                stage="poisoned",
                error_type=error.get("type", "RuntimeError"),
                message=(
                    f"task {task.label} failed on {len(workers)} distinct"
                    f" worker(s) ({', '.join(workers)}):"
                    f" {error.get('message', 'unknown error')}"
                ),
                detail={
                    "workers": workers,
                    "attempts": task.attempts,
                    "traceback": error.get("traceback"),
                },
            ),
        )

    # ------------------------------------------------------------------
    # worker connections
    # ------------------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._closed:
            try:
                sock, _addr = self._listener.accept()
            except OSError:
                return  # listener closed
            threading.Thread(
                target=self._handshake, args=(sock,),
                name="repro-coordinator-handshake", daemon=True,
            ).start()

    def _handshake(self, sock: socket.socket) -> None:
        welcome_mac: str | None = None
        try:
            sock.settimeout(self.handshake_timeout_s)
            msg = recv_frame(sock, secret=self._frame_secret)
            if (
                msg is None
                or msg.get("type") != MSG_REGISTER
                or msg.get("protocol") != PROTOCOL_VERSION
            ):
                _close_sock(sock)
                return
            if self.secret is not None:
                # challenge-response before the worker is admitted —
                # an unauthenticated peer never gets past this point,
                # so nothing it sends ever reaches a pickle decoder
                worker_nonce = str(msg.get("nonce") or "")
                if not worker_nonce:
                    _close_sock(sock)
                    return
                my_nonce = os.urandom(16).hex()
                send_frame(
                    sock, {"type": MSG_CHALLENGE, "nonce": my_nonce},
                    secret=self._frame_secret,
                )
                answer = recv_frame(sock, secret=self._frame_secret)
                if (
                    answer is None
                    or answer.get("type") != MSG_AUTH
                    or not macs_equal(
                        answer.get("mac"),
                        auth_mac(self.secret, "worker",
                                 worker_nonce, my_nonce),
                    )
                ):
                    _close_sock(sock)
                    return
                welcome_mac = auth_mac(
                    self.secret, "coordinator", my_nonce, worker_nonce
                )
            sock.settimeout(None)
        except (ValueError, OSError):
            _close_sock(sock)
            return
        base = str(msg.get("worker") or "worker")
        window = max(1, int(msg.get("window") or self.window))
        with self._cond:
            if self._closed:
                _close_sock(sock)
                return
            name = base
            suffix = 2
            while name in self._workers:
                name = f"{base}-{suffix}"
                suffix += 1
            conn = _WorkerConn(
                name=name,
                sock=sock,
                window=min(window, self.window)
                if window else self.window,
                seq=next(self._seqs),
                pid=msg.get("pid"),
                last_seen=time.monotonic(),
            )
            self._workers[name] = conn
            self._worker_events.labels(event="registered").inc()
            self._cond.notify_all()
        _log.info(
            "registered worker %s (pid %s, window %d)",
            name, conn.pid, conn.window,
        )
        welcome = {
            "type": MSG_WELCOME,
            "worker": name,
            "heartbeat_s": self.heartbeat_s,
        }
        if welcome_mac is not None:
            welcome["mac"] = welcome_mac
        try:
            with conn.send_lock:
                send_frame(sock, welcome, secret=self._frame_secret)
        except OSError:
            self._evict(conn, "send-failed")
            return
        threading.Thread(
            target=self._reader_loop, args=(conn,),
            name=f"repro-coordinator-reader-{name}", daemon=True,
        ).start()

    def _reader_loop(self, conn: _WorkerConn) -> None:
        try:
            while True:
                msg = recv_frame(conn.sock, secret=self._frame_secret)
                if msg is None:
                    break
                with self._cond:
                    conn.last_seen = time.monotonic()
                kind = msg.get("type")
                if kind == MSG_HEARTBEAT:
                    continue
                if kind == MSG_RESULT:
                    self._on_result(conn, msg)
                elif kind == MSG_TASK_ERROR:
                    self._on_task_error(conn, msg)
                elif kind == MSG_DRAIN:
                    self._on_drain(conn)
                elif kind == MSG_GOODBYE:
                    self._evict(conn, "drained", graceful=True)
                    return
                # unknown types are ignored: forward compatibility
        except (ValueError, OSError):
            pass
        self._evict(conn, "connection-lost")

    def _on_result(self, conn: _WorkerConn, msg: dict) -> None:
        try:
            value = decode_result(msg.get("payload") or {})
        except Exception as err:  # undecodable result → treat as error
            self._on_task_error(conn, {
                "task": msg.get("task"),
                "error": {
                    "type": type(err).__name__,
                    "message": f"result could not be decoded: {err}",
                },
            })
            return
        with self._cond:
            task = conn.in_flight.pop(msg.get("task"), None)
            if task is None:
                return  # stale: task was requeued away from this worker
            conn.n_completed += 1
            self._tasks.labels(outcome="completed").inc()
            if msg.get("spans"):
                # the worker's spans, stitched into the local store so
                # `repro trace` shows the remote execution leg too
                TRACE_STORE.ingest(msg["spans"])
            task.batch.complete(task.index, value)
            self._cond.notify_all()

    def _on_task_error(self, conn: _WorkerConn, msg: dict) -> None:
        with self._cond:
            task = conn.in_flight.pop(msg.get("task"), None)
            if task is None:
                return
            conn.n_failed += 1
            task.attempts += 1
            task.failed_workers.add(conn.name)
            task.last_error = msg.get("error") or {}
            if msg.get("spans"):
                TRACE_STORE.ingest(msg["spans"])
            if task.attempts >= self.poison_after:
                self._poison_locked(task)
            else:
                backoff = min(
                    self.retry_backoff_s * 2 ** (task.attempts - 1),
                    self.retry_backoff_max_s,
                )
                task.not_before = time.monotonic() + backoff
                self._tasks.labels(outcome="retried").inc()
                _log.warning(
                    "task %s (id %d, trace %s) raised on worker %s"
                    " (attempt %d of %d): %s — retrying in %.3fs",
                    task.label, task.id, task.trace_id, conn.name,
                    task.attempts, self.poison_after,
                    task.last_error.get("message", "unknown error"),
                    backoff,
                )
                self._pending.append(task)
            self._cond.notify_all()

    def _on_drain(self, conn: _WorkerConn) -> None:
        """Worker asked to stop receiving work.  Ack with MSG_DRAIN —
        TCP ordering guarantees every task frame sent before the ack
        reaches the worker first, so it finishes them before leaving."""
        with self._cond:
            conn.draining = True
            self._cond.notify_all()
        try:
            with conn.send_lock:
                send_frame(conn.sock, {"type": MSG_DRAIN},
                           secret=self._frame_secret)
        except OSError:
            self._evict(conn, "send-failed")

    def _evict(self, conn: _WorkerConn, reason: str,
               *, graceful: bool = False) -> None:
        """Remove a worker; its in-flight tasks go back to the *front*
        of the queue (attempts untouched — a crash is not the task's
        fault)."""
        with self._cond:
            if self._workers.get(conn.name) is not conn:
                _close_sock(conn.sock)
                return
            del self._workers[conn.name]
            requeued = list(conn.in_flight.values())
            conn.in_flight.clear()
            for task in reversed(requeued):
                self._pending.appendleft(task)
            if requeued:
                self._tasks.labels(outcome="requeued").inc(len(requeued))
            self._worker_events.labels(
                event="departed" if graceful else "evicted"
            ).inc()
            self._cond.notify_all()
        # logs sit after the membership check on purpose: close()
        # clears the worker table first, so a clean shutdown's
        # reader-loop evictions stay silent
        log = _log.info if graceful else _log.warning
        log(
            "%s worker %s (%s): %d in-flight task(s) requeued%s",
            "deregistered" if graceful else "evicted",
            conn.name, reason, len(requeued),
            (
                " — " + ", ".join(
                    f"{t.label} (id {t.id}, trace {t.trace_id})"
                    for t in requeued
                )
                if requeued else ""
            ),
        )
        _close_sock(conn.sock)

    def _monitor_loop(self) -> None:
        tick = max(min(self.heartbeat_timeout_s / 4, 0.25), 0.01)
        while not self._closed_event.wait(tick):
            now = time.monotonic()
            with self._cond:
                stale = [
                    conn for conn in self._workers.values()
                    if now - conn.last_seen > self.heartbeat_timeout_s
                ]
            for conn in stale:
                self._evict(conn, "heartbeat-timeout")

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """JSON-able scheduling counters (a view over :attr:`metrics`)
        + per-worker state."""
        with self._cond:
            tasks = self._tasks.totals()
            events = self._worker_events.totals()
            return {
                "address": self.address,
                "n_workers": len(self._workers),
                "pending": len(self._pending),
                "in_flight": sum(
                    len(w.in_flight) for w in self._workers.values()
                ),
                **{outcome: tasks.get((outcome,), 0) for outcome in (
                    "submitted", "completed", "retried", "requeued",
                    "poisoned",
                )},
                **{event: events.get((event,), 0) for event in (
                    "evicted", "departed", "registered",
                )},
                "workers": {
                    w.name: {
                        "pid": w.pid,
                        "window": w.window,
                        "in_flight": len(w.in_flight),
                        "completed": w.n_completed,
                        "failed": w.n_failed,
                        "draining": w.draining,
                    }
                    for w in self._workers.values()
                },
            }


class DistributedExecutor:
    """The fleet as a drop-in :class:`~repro.api.Executor`.

    Construction binds the coordinator socket immediately; ``map``
    blocks until workers join and finish the batch.  Use
    :meth:`wait_for_workers` to gate a campaign on fleet size, and
    close the executor (context manager, or :meth:`close`) when done.

    ``jobs`` is the *live* worker count (minimum 1, since the protocol
    promises a positive worker figure) — it changes as workers join
    and leave.
    """

    name = "distributed"

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 **coordinator_options) -> None:
        self.coordinator = Coordinator(host, port, **coordinator_options)
        self.coordinator.start()

    @classmethod
    def from_spec(cls, spec: str, **coordinator_options
                  ) -> "DistributedExecutor":
        """Build from a ``remote:HOST:PORT`` / ``remote:PORT`` string
        (the CLI's ``--jobs`` syntax).  When the ``REPRO_SECRET``
        environment variable is set and no explicit ``secret`` option
        is passed, the handshake secret defaults to it — so
        ``--jobs remote:...`` picks up the same secret the workers
        were launched with."""
        if "secret" not in coordinator_options:
            coordinator_options["secret"] = (
                os.environ.get("REPRO_SECRET") or None
            )
        if "stats_port" not in coordinator_options:
            raw = os.environ.get("REPRO_COORD_STATS_PORT", "").strip()
            if raw:
                try:
                    coordinator_options["stats_port"] = int(raw)
                except ValueError:
                    raise ValueError(
                        f"REPRO_COORD_STATS_PORT must be an integer,"
                        f" got {raw!r}"
                    ) from None
        body = spec[len("remote:"):] if spec.startswith("remote:") else spec
        host, _, port_text = body.rpartition(":")
        host = host or "127.0.0.1"
        try:
            port = int(port_text or "0")
        except ValueError:
            raise ValueError(
                f"bad remote executor spec {spec!r}: expected"
                f" remote:HOST:PORT or remote:PORT"
            ) from None
        return cls(host, port, **coordinator_options)

    @property
    def jobs(self) -> int:
        return max(1, self.coordinator.n_workers)

    @property
    def address(self) -> str:
        return self.coordinator.address

    def wait_for_workers(self, n: int = 1,
                         timeout: float | None = None) -> bool:
        return self.coordinator.wait_for_workers(n, timeout)

    def map(self, fn, items) -> list:
        return self.coordinator.submit(fn, items)

    def stats(self) -> dict:
        return self.coordinator.stats()

    def close(self) -> None:
        self.coordinator.close()

    def __enter__(self) -> "DistributedExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"DistributedExecutor(address={self.address!r},"
            f" workers={self.coordinator.n_workers})"
        )
