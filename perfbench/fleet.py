"""The ``serve-router`` workload: a router over two shard processes.

:class:`Fleet` starts two ``repro serve`` shard subprocesses and one
``repro serve --shard … --shard …`` router subprocess on free ports and
stops them.  The load comes from this process, with at most two client
threads, each holding at most one connection:

* phase 1, an open loop: request ``i`` is due at ``i / rate`` seconds,
  whatever the service does, and its latency runs from that due time
  (so a stall also counts against the requests queued behind it);
* phase 2, a closed loop: two clients, each sending its next request
  when the previous one returns, through a fixed batch of requests; the
  completion rate is the capacity.

An outcome keeps only the response's wire view, so the benchmark's
memory does not grow with the size of the responses.

Six tenants send seeded single-strategy solves of n = 8…20 operators.
Every fourth request repeats a request of the same tenant sent 7 to 35
positions earlier, which the shard broker's result cache answers.
"""

from __future__ import annotations

import http.client
import math
import os
import random
import re
import select
import subprocess
import sys
import threading
import time

TENANTS = ("acme", "globex", "initech", "umbrella", "hooli", "stark")
#: Wire fields a routed response must share with a direct ``solve()``.
COMPARED_FIELDS = (
    "ok", "cost", "n_processors", "heuristic", "server_strategy", "seed",
    "failures",
)
N_CLIENTS = 2
REQUEST_TIMEOUT_S = 30.0


def stream_item(seed: int, k: int) -> tuple:
    """Request ``k`` of the seeded stream: ``(key, tenant, request)``,
    where ``key`` names the distinct request (a repeat shares the key of
    the request it repeats)."""
    from repro.api import InstanceSpec, SolveRequest

    if k % 4 == 3 and k >= 35:
        back = random.Random(f"serve-router:{seed}:{k}:repeat").randint(0, 7)
        k = k - 7 - 4 * back
    rng = random.Random(f"serve-router:{seed}:{k}")
    tenant = rng.choice(TENANTS)
    spec_seed = rng.randrange(2**31 - 1)
    request = SolveRequest(
        spec=InstanceSpec(
            n_operators=rng.randint(8, 20), alpha=1.2, seed=spec_seed
        ),
        seed=spec_seed,
        label=f"r{k}",
    )
    return k, tenant, request


def wire_view(result: dict) -> dict:
    return {key: result[key] for key in COMPARED_FIELDS}


def _read_port(proc: subprocess.Popen, timeout_s: float) -> int:
    ready, _, _ = select.select([proc.stdout], [], [], timeout_s)
    line = proc.stdout.readline() if ready else ""
    match = re.search(r"http://[\w.\-]+:(\d+)", line)
    if not match:
        raise RuntimeError(f"server did not announce its port: {line!r}")
    return int(match.group(1))


class Fleet:
    """Router + two HTTP shards as subprocesses of this process."""

    def __init__(self, root, traced: bool, log_dir) -> None:
        self.root = root
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(root / "src")
        self.env["REPRO_TRACE"] = "1" if traced else "0"
        self.log_dir = log_dir
        self.procs: list[subprocess.Popen] = []
        self.url = ""

    def _spawn(self, argv: list[str], name: str) -> subprocess.Popen:
        self.log_dir.mkdir(parents=True, exist_ok=True)
        with open(self.log_dir / f"{name}.log", "ab") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 *argv],
                stdout=subprocess.PIPE, stderr=err, text=True,
                env=self.env, cwd=str(self.root),
            )
        self.procs.append(proc)
        return proc

    def start(self, timeout_s: float = 60.0) -> None:
        from repro.service import HttpServiceClient, ServiceError

        shards = [self._spawn([], f"shard-{i}") for i in range(2)]
        ports = [_read_port(proc, timeout_s) for proc in shards]
        router = self._spawn(
            [arg for port in ports
             for arg in ("--shard", f"127.0.0.1:{port}")],
            "router",
        )
        self.url = f"http://127.0.0.1:{_read_port(router, timeout_s)}"
        client = HttpServiceClient(self.url, timeout=5.0)
        deadline = time.monotonic() + timeout_s
        while True:
            try:
                client.health()
                return
            except (ServiceError, OSError):
                if time.monotonic() > deadline:
                    raise RuntimeError("router never became healthy")
                time.sleep(0.01)

    def peak_rss_mb(self) -> float:
        """Sum of the server processes' peak resident set (VmHWM)."""
        total_kb = 0
        for proc in self.procs:
            try:
                with open(f"/proc/{proc.pid}/status") as status:
                    for line in status:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
            except OSError:
                pass
        return total_kb / 1024.0

    def stop(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in self.procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        self.procs = []


class Outcome:
    """One request as the client saw it."""

    __slots__ = ("k", "key", "due", "sent", "done", "wall_start",
                 "wall_end", "status", "result", "trace_id", "spans")

    def __init__(self, k, key):
        self.k, self.key = k, key
        self.due = self.sent = self.done = 0.0
        self.wall_start = self.wall_end = 0.0
        self.status = 0
        self.result = None
        self.trace_id = None
        self.spans = None


def _send(client, outcome: Outcome, tenant: str, request) -> None:
    from repro.service import ServiceError

    outcome.sent = time.perf_counter()
    outcome.wall_start = time.time()
    try:
        response = client.submit(request, tenant=tenant)
        outcome.status = 200
        outcome.result = wire_view(response["result"])
    except ServiceError as err:
        outcome.status = err.status
    except (OSError, http.client.HTTPException):
        outcome.status = -1
    outcome.done = time.perf_counter()
    outcome.wall_end = time.time()


def _fetch_trace(client, outcome: Outcome) -> None:
    from repro.service import ServiceError

    try:
        outcome.spans = client.trace(outcome.trace_id).get("spans") or []
    except (ServiceError, OSError, http.client.HTTPException):
        outcome.spans = []


def open_loop(url: str, seed: int, first_k: int, count: int,
              rate: float) -> list[Outcome]:
    """Send ``count`` stream requests from ``first_k`` on a fixed
    schedule at ``rate`` per second."""
    from repro.service import HttpServiceClient

    items = [stream_item(seed, first_k + i) for i in range(count)]
    outcomes = [Outcome(first_k + i, items[i][0]) for i in range(count)]
    lock = threading.Lock()
    cursor = iter(range(count))
    t0 = time.perf_counter() + 0.05

    def client_loop():
        client = HttpServiceClient(url, timeout=REQUEST_TIMEOUT_S)
        while True:
            with lock:
                i = next(cursor, None)
            if i is None:
                return
            outcome = outcomes[i]
            outcome.due = t0 + i / rate
            pause = outcome.due - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            _, tenant, request = items[i]
            _send(client, outcome, tenant, request)

    _run_threads(client_loop)
    return outcomes


def closed_loop(url: str, seed: int, first_k: int, *,
                count: int | None = None, seconds: float | None = None,
                traced: bool = False) -> list[Outcome]:
    """Two clients send stream requests from ``first_k`` back to back,
    ``count`` of them or for ``seconds``.  Traced: each request carries
    a fresh trace id and its spans are fetched right after it returns
    (the service keeps only the most recent traces)."""
    from dataclasses import replace

    from repro.service import HttpServiceClient
    from repro.telemetry import new_trace_id

    lock = threading.Lock()
    outcomes: list[Outcome] = []
    last_k = first_k + count if count is not None else 10**9
    counter = iter(range(first_k, last_k))
    deadline = (time.perf_counter() + seconds if seconds is not None
                else math.inf)

    def client_loop():
        client = HttpServiceClient(url, timeout=REQUEST_TIMEOUT_S)
        while time.perf_counter() < deadline:
            with lock:
                k = next(counter, None)
            if k is None:
                return
            key, tenant, request = stream_item(seed, k)
            outcome = Outcome(k, key)
            if traced:
                outcome.trace_id = new_trace_id()
                request = replace(request, trace_id=outcome.trace_id)
            outcome.due = time.perf_counter()
            _send(client, outcome, tenant, request)
            if traced:
                _fetch_trace(client, outcome)
            with lock:
                outcomes.append(outcome)

    _run_threads(client_loop)
    return outcomes


def _run_threads(target) -> None:
    errors = []

    def guarded():
        try:
            target()
        except Exception as err:  # noqa: BLE001 — reported by the caller
            errors.append(err)

    threads = [threading.Thread(target=guarded) for _ in range(N_CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def warm_up(url: str) -> None:
    """One untimed solve per tenant, outside the seeded stream, so the
    shards have imported their solver code before anything is timed."""
    from repro.api import InstanceSpec, SolveRequest
    from repro.service import HttpServiceClient

    client = HttpServiceClient(url, timeout=REQUEST_TIMEOUT_S)
    for i, tenant in enumerate(TENANTS):
        spec = InstanceSpec(n_operators=10, alpha=1.2, seed=10**6 + i)
        client.submit(SolveRequest(spec=spec, seed=10**6 + i,
                                   label="warm-up"), tenant=tenant)


def references(seed: int, keys) -> dict:
    """Direct ``solve()`` wire views of the distinct requests sent."""
    from repro.api import solve

    return {
        key: wire_view(solve(stream_item(seed, key)[2]).to_dict())
        for key in sorted(set(keys))
    }
