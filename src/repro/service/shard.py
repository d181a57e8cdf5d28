"""Sharded service: a global front tier over per-shard enforcers.

The single-process :class:`~repro.service.broker.AllocationService`
owns every tenant's queue, account, cache, and executor — one asyncio
broker is eventually the bottleneck.  This module splits the stack in
two, the global-enforcer/local-enforcer shape of the multi-application
regime:

* **shard-local enforcer** — one ``AllocationService`` (admission,
  :class:`~repro.service.queueing.FairQueue`, accounts, result cache,
  executor) behind the :class:`ShardBackend` interface, addressable
  either in-process (:class:`LocalShard`, the app layer of
  :class:`~repro.service.http.ServiceHTTPServer` with no socket) or
  over the existing JSON-over-HTTP wire unchanged (:class:`HttpShard`,
  a running ``repro serve``, over pooled keep-alive connections);
* **global front tier** — :class:`ShardRouter` owns the tenant→shard
  map (rendezvous hashing with explicit pins), proxies ``/v1/submit``
  (sync and async tickets), ``/v1/cancel``, ``/v1/result``, and
  ``/v1/tenants`` to the owning shard, aggregates ``/stats`` and
  ``/metrics`` across shards, and enforces *global* admission: the
  cross-shard queue bound, and bid-priced preemption that picks the
  cheapest victim across **all** shards — the bidder is charged on its
  shard, the victim compensated on its own.

Tickets: shard-local ids are rewritten into a router namespace by pure
arithmetic — ``global = local * n_shards + shard_index`` — so
``/v1/cancel`` and ``/v1/result/<id>`` route statelessly (the id *is*
the shard address) and keep resolving after the router restarts and
rebuilds its tenant map.  With one shard the mapping is the identity,
which is what makes a 1-shard deployment byte-identical to today's
single ``AllocationService``: every route is then forwarded verbatim,
no aggregation, no rewrite.

Global admission: every answer of a shard reports its queue depth (the
``X-Repro-Queued`` response header; a :class:`LocalShard` reads its
service's live count).  The router's view of a shard is that latest
report plus the router's own submits to it that have not been answered
yet, and a submit whose fleet view is below the bound is forwarded with
no other shard request.  Rejection and preemption are always decided on
a fresh ``/v1/shard/load`` probe of every shard.  Traffic that reaches
a shard without this router (direct clients, a second router) enters
the view at that shard's next answer; concurrent submits are not
serialised against each other.

Fleet view: per scrape the router sends each shard one shard-control
request, ``/v1/shard/metrics``.  The answer carries the shard's service
registry (and its process registry, from a shard outside the router's
process) and its snapshot.  The router folds the registries into one
fresh :class:`~repro.telemetry.metrics.MetricsRegistry` with its own
(under a leading ``shard`` label).  ``/metrics`` renders it; ``/stats``
reads every count, level, spend and queue wait from it, and only the
tenant rows, limits and per-shard blocks from the snapshots.

Tracing: the router records a ``router.route`` span per proxied
submit under the request's trace id, so ``repro trace <id>`` stitches
the extra hop next to the shard's admission/queue/execute spans.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import time
import urllib.parse
from typing import Callable, Mapping, Sequence

from ..api.requests import FailureRecord
from ..telemetry import get_logger, record_span, scrape
from ..telemetry.metrics import MetricsRegistry
from ..telemetry.trace import TRACE_STORE, span_to_dict
from .broker import AllocationService, stats_totals
from .http import (
    QUEUED_HEADER,
    BaseHTTPServer,
    ServiceHTTPServer,
    _no_route,
    _PlainText,
)
from .tenants import TenantConfig

__all__ = [
    "HttpShard",
    "LocalShard",
    "RouterHTTPServer",
    "ShardBackend",
    "ShardRouter",
    "parse_shard_map",
    "rendezvous_shard",
]

_log = get_logger("service.shard")

#: Idle keep-alive connections an :class:`HttpShard` keeps to its shard
#: (a connection beyond this is closed when its response is read).
MAX_IDLE_SHARD_CONNECTIONS = 16

_Stream = tuple[asyncio.StreamReader, asyncio.StreamWriter]


# ----------------------------------------------------------------------
# tenant → shard map
# ----------------------------------------------------------------------

def rendezvous_shard(tenant: str, shard_names: Sequence[str]) -> int:
    """Index of the tenant's owning shard by rendezvous (highest
    random weight) hashing: score every ``(tenant, shard)`` pair with
    a keyed hash, take the argmax.  Deterministic across processes
    (``hashlib``, not ``hash()``), and adding or removing one shard
    only remaps the tenants that scored highest on it."""
    if not shard_names:
        raise ValueError("rendezvous_shard needs at least one shard")
    import hashlib

    best = 0
    best_score: "bytes | None" = None
    for index, name in enumerate(shard_names):
        score = hashlib.blake2b(
            f"{tenant}\x00{name}".encode("utf8"), digest_size=8
        ).digest()
        if best_score is None or score > best_score:
            best, best_score = index, score
    return best


def parse_shard_map(spec: "str | None") -> "dict[str, str]":
    """Parse the CLI's ``--shard-map`` pins:
    ``"tenant=shard,tenant=shard"`` where ``shard`` is a shard index
    or shard name.  Empty/None → no pins."""
    out: dict[str, str] = {}
    if not spec:
        return out
    for item in spec.split(","):
        tenant, eq, shard = item.partition("=")
        tenant = tenant.strip()
        if not eq or not tenant or not shard.strip():
            raise ValueError(
                f"bad shard-map entry {item!r} (expected tenant=shard)"
            )
        out[tenant] = shard.strip()
    return out


# ----------------------------------------------------------------------
# shard backends
# ----------------------------------------------------------------------

class ShardBackend:
    """One addressable shard-local enforcer.

    The contract is the JSON-over-HTTP route surface itself:
    :meth:`request` takes ``(method, path, raw_body)`` and returns
    ``(status, payload)`` exactly as the shard's HTTP server would —
    which is what lets the router forward request bodies *verbatim*
    (bit-identical responses) whether the shard lives in-process or
    behind a socket."""

    name: str = "shard"
    #: True when this shard records into the process-wide trace store
    #: and metrics registry (no trace fetch needed for it, and its
    #: process-level families are the router's own).
    shares_process_state: bool = False
    #: The shard's queue depth as of its latest answer; ``None`` while
    #: unknown (no answer yet, or the latest exchange failed).
    queued: "int | None" = None

    async def start(self) -> None:
        """Bring the shard up (no-op for externally managed shards)."""

    async def aclose(self) -> None:
        """Tear the shard down (no-op for externally managed shards)."""

    async def request(
        self, method: str, path: str, raw: bytes
    ) -> "tuple[int, object]":
        raise NotImplementedError

    async def request_json(
        self, method: str, path: str, body: "dict | None" = None
    ) -> "tuple[int, object]":
        raw = b"" if body is None else json.dumps(body).encode("utf8")
        return await self.request(method, path, raw)


class LocalShard(ShardBackend):
    """An in-process shard: one :class:`AllocationService` addressed
    through the socketless app layer of its
    :class:`~repro.service.http.ServiceHTTPServer`.  The async-ticket
    table lives on the shard (not the router), so tickets survive a
    router restart."""

    shares_process_state = True

    def __init__(
        self,
        service: "AllocationService | None" = None,
        *,
        name: str = "shard-0",
        **service_kwargs,
    ) -> None:
        self.name = name
        self.service = (
            service if service is not None
            else AllocationService(**service_kwargs)
        )
        self.app = ServiceHTTPServer(self.service)

    @property
    def queued(self) -> int:
        """The service's live queue depth."""
        return self.service.queued

    async def start(self) -> None:
        await self.service.start()

    async def aclose(self) -> None:
        # the app never bound a socket; this settles the service and
        # any pending async-ticket tasks
        await self.app.aclose()

    async def request(
        self, method: str, path: str, raw: bytes
    ) -> "tuple[int, object]":
        return await self.app.dispatch(method, path, raw)


class HttpShard(ShardBackend):
    """A shard reached over the existing JSON-over-HTTP wire — any
    running ``repro serve`` instance, completely unchanged.

    Requests ride a pool of persistent asyncio connections: a request
    takes the most recently used idle connection (or opens one), and
    the connection goes back to the pool when the shard keeps it open,
    at most :data:`MAX_IDLE_SHARD_CONNECTIONS` of them.  A request on a
    reused connection that fails before any status line arrives is
    retried once on a fresh connection — the shard closed that idle
    connection, so it never read the request.  Any other failure, and
    every failure on a fresh connection, is a 503 ``unreachable``; a
    request whose response had started is never retried.

    Each answer's ``X-Repro-Queued`` header becomes :attr:`queued`; a
    failed request resets it to ``None``."""

    def __init__(self, base_url: str, *, timeout: float = 120.0) -> None:
        parsed = urllib.parse.urlsplit(
            base_url if "//" in base_url else f"http://{base_url}"
        )
        if parsed.scheme not in ("http", ""):
            raise ValueError(
                f"unsupported shard URL scheme {parsed.scheme!r}"
                f" (only http)"
            )
        if parsed.hostname is None or parsed.port is None:
            raise ValueError(
                f"bad shard address {base_url!r} (expected HOST:PORT)"
            )
        self.host = parsed.hostname
        self.port = parsed.port
        self.timeout = timeout
        self.name = f"{self.host}:{self.port}"
        #: idle keep-alive connections, most recently used last
        self._idle: list[_Stream] = []

    async def aclose(self) -> None:
        """Close the pooled connections (the shard itself is managed
        elsewhere)."""
        while self._idle:
            self._idle.pop()[1].close()

    async def request(
        self, method: str, path: str, raw: bytes
    ) -> "tuple[int, object]":
        try:
            return await asyncio.wait_for(
                self._request(method, path, raw), self.timeout
            )
        except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError,
                ValueError) as err:
            self.queued = None
            return 503, {
                "error": f"shard {self.name} unreachable:"
                         f" {type(err).__name__}: {err}"
            }

    async def _request(
        self, method: str, path: str, raw: bytes
    ) -> "tuple[int, object]":
        if self._idle:
            response = await self._exchange(
                self._idle.pop(), method, path, raw
            )
            if response is not None:
                return response
        stream = await asyncio.open_connection(self.host, self.port)
        response = await self._exchange(stream, method, path, raw)
        if response is None:
            raise ConnectionError("closed before answering")
        return response

    async def _exchange(
        self, stream: _Stream, method: str, path: str, raw: bytes
    ) -> "tuple[int, object] | None":
        """One request/response on ``stream``; ``None`` when the
        connection failed before any status line arrived.  The stream
        goes back to the pool if the shard keeps it open, and is closed
        otherwise."""
        reader, writer = stream
        headers: dict[str, str] = {}
        try:
            head = (
                f"{method} {path} HTTP/1.1\r\nHost: {self.name}\r\n"
                f"Content-Length: {len(raw)}\r\n"
            )
            if raw:
                head += "Content-Type: application/json\r\n"
            try:
                writer.write(head.encode("latin1") + b"\r\n" + raw)
                await writer.drain()
                status_line = await reader.readline()
            except ConnectionError:
                status_line = b""
            if not status_line:
                writer.close()
                return None
            status = int(status_line.partition(b" ")[2][:3])
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin1").partition(":")
                headers[name.strip().lower()] = value.strip()
            length = headers.get("content-length")
            body = (
                await reader.readexactly(int(length))
                if length is not None else await reader.read()
            )
        except BaseException:
            writer.close()
            raise
        if (
            length is not None
            and headers.get("connection", "").lower() != "close"
            and len(self._idle) < MAX_IDLE_SHARD_CONNECTIONS
        ):
            self._idle.append(stream)
        else:
            writer.close()
        reported = headers.get(QUEUED_HEADER.lower(), "")
        self.queued = int(reported) if reported.isdecimal() else None
        if headers.get("content-type", "").startswith("text/plain"):
            return status, _PlainText(body.decode("utf8"))
        try:
            payload = json.loads(body) if body else {}
        except ValueError:
            payload = {"error": f"shard {self.name} returned a"
                                f" non-JSON body"}
        return status, payload


# ----------------------------------------------------------------------
# the router
# ----------------------------------------------------------------------

def _peek_json(raw: bytes) -> object:
    """A body's JSON for routing decisions, ``None`` when it does not
    decode — the owning shard then answers the canonical 400."""
    try:
        return json.loads(raw) if raw else None
    except (ValueError, RecursionError):
        return None


class ShardRouter:
    """The global front tier: tenant→shard routing, global admission,
    cross-shard preemption, and stats/metrics/trace aggregation.

    The router is deliberately stateless about requests — every ticket
    id encodes its owning shard (``global = local * n + index``), the
    tenant map is a pure function (rendezvous hash + pins), and async
    tickets live on the shards — so a restarted router resumes routing
    for in-flight work immediately.

    ``global_queue_depth`` is the *cross-shard* queued-request bound:
    when the sum of shard queue depths reaches it, submits are
    rejected (``service-queue-full``) unless a positive ``bid`` from a
    high-tier tenant can preempt the cheapest strictly-lower-tier
    queued request on **any** shard.  ``None`` (default) delegates
    admission entirely to the per-shard bounds — the 1-shard identity
    deployment."""

    def __init__(
        self,
        shards: "Sequence[ShardBackend]",
        *,
        shard_map: "Mapping[str, str] | None" = None,
        tenants: "Sequence[TenantConfig]" = (),
        global_queue_depth: "int | None" = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.shards = list(shards)
        if not self.shards:
            raise ValueError("ShardRouter needs at least one shard")
        self.n_shards = len(self.shards)
        self._names = [shard.name for shard in self.shards]
        if len(set(self._names)) != self.n_shards:
            raise ValueError(
                f"shard names must be unique, got {self._names}"
            )
        if global_queue_depth is not None and global_queue_depth < 1:
            raise ValueError(
                f"global_queue_depth must be >= 1,"
                f" got {global_queue_depth}"
            )
        self.global_queue_depth = global_queue_depth
        self.tenants = tuple(tenants)
        self._pins: dict[str, int] = {}
        for tenant, shard in (shard_map or {}).items():
            self._pins[tenant] = self._resolve_shard(shard)
        self._clock = clock
        self._started_at: "float | None" = None
        #: the router's own counts, folded into the fleet registry that
        #: /stats and /metrics read
        self.metrics = MetricsRegistry()
        self._rejections = self.metrics.counter(
            "repro_router_rejections_total",
            "Submits rejected at the router, by stage.", ("stage",))
        self._preemptions = self.metrics.counter(
            "repro_router_preemptions_total",
            "Cross-shard preemptions executed by the router.")
        probes = self.metrics.counter(
            "repro_router_load_probes_total",
            "Load probes sent to a shard by global admission.", ("shard",))
        #: per shard, its load-probe count (shown from 0 on)
        self._probes = [probes.labels(shard=name) for name in self._names]
        self._probe_failures = self.metrics.counter(
            "repro_router_load_probe_failures_total",
            "Failed load probes (the shard counted 0 queued).", ("shard",))
        #: per shard, the submits forwarded to it and not answered yet
        self._unanswered = [0] * self.n_shards

    def _resolve_shard(self, shard: str) -> int:
        if shard in self._names:
            return self._names.index(shard)
        try:
            index = int(shard)
        except ValueError:
            raise ValueError(
                f"unknown shard {shard!r} in shard map"
                f" (shards: {', '.join(self._names)})"
            ) from None
        if not 0 <= index < self.n_shards:
            raise ValueError(
                f"shard index {index} out of range"
                f" (have {self.n_shards} shards)"
            )
        return index

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        for shard in self.shards:
            await shard.start()
        for config in self.tenants:
            index = self.shard_of(config.name)
            status, payload = await self.shards[index].request_json(
                "POST", "/v1/tenants", dataclasses.asdict(config)
            )
            if status != 200:
                raise RuntimeError(
                    f"failed to register tenant {config.name!r} on"
                    f" shard {self._names[index]}: {payload}"
                )
        self._started_at = self._clock()

    async def aclose(self) -> None:
        for shard in self.shards:
            await shard.aclose()

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------

    def shard_of(self, tenant: str) -> int:
        """The tenant's owning shard index: explicit pin if present,
        rendezvous hash otherwise."""
        pin = self._pins.get(tenant)
        if pin is not None:
            return pin
        return rendezvous_shard(tenant, self._names)

    def _encode_ticket(self, local_id: int, shard_index: int) -> int:
        return local_id * self.n_shards + shard_index

    def _decode_ticket(self, global_id: int) -> "tuple[int, int]":
        return global_id // self.n_shards, global_id % self.n_shards

    def _rewrite_ticket(
        self, payload: object, shard_index: int
    ) -> object:
        """Rewrite a shard response's ``ticket`` (and poll path) into
        the router namespace.  Copies before mutating — shard-side
        dicts (async ticket records) must not be corrupted."""
        if self.n_shards == 1:
            return payload  # the identity mapping
        if not isinstance(payload, dict):
            return payload
        ticket = payload.get("ticket")
        if not isinstance(ticket, int):
            return payload
        payload = dict(payload)
        global_id = self._encode_ticket(ticket, shard_index)
        payload["ticket"] = global_id
        if "poll" in payload:
            payload["poll"] = f"/v1/result/{global_id}"
        return payload

    async def _forward(
        self, shard_index: int, method: str, path: str, raw: bytes
    ) -> "tuple[int, object]":
        return await self.shards[shard_index].request(method, path, raw)

    # ------------------------------------------------------------------
    # the route table
    # ------------------------------------------------------------------

    async def dispatch(
        self, method: str, path: str, raw: bytes
    ) -> "tuple[int, object]":
        full_path = path
        path, _, query_text = path.partition("?")
        query = urllib.parse.parse_qs(query_text)
        if path == "/healthz" and method == "GET":
            return await self._health()
        if path == "/stats" and method == "GET":
            return await self._stats()
        if path == "/metrics" and method == "GET":
            return 200, _PlainText(scrape((await self._gather())[0]))
        if path.startswith("/v1/trace/") and method == "GET":
            return await self._trace(path[len("/v1/trace/"):])
        if path == "/v1/submit" and method == "POST":
            return await self._submit(full_path, raw, query)
        if path.startswith("/v1/result/") and method == "GET":
            return await self._poll(path[len("/v1/result/"):])
        if path == "/v1/cancel" and method == "POST":
            return await self._cancel(raw)
        if path == "/v1/tenants" and method == "POST":
            return await self._register(raw)
        return _no_route(method, path)

    async def _health(self) -> "tuple[int, object]":
        results = await asyncio.gather(
            *(shard.request("GET", "/healthz", b"")
              for shard in self.shards)
        )
        healthy = {
            name: status == 200
            and isinstance(payload, dict) and bool(payload.get("ok"))
            for name, (status, payload) in zip(self._names, results)
        }
        if all(healthy.values()):
            return 200, {"ok": True}
        return 503, {"ok": False, "shards": healthy}

    async def _submit(
        self, full_path: str, raw: bytes, query: Mapping[str, list]
    ) -> "tuple[int, object]":
        tenant = "default"
        trace_id = None
        bid = None
        body = _peek_json(raw)
        if isinstance(body, dict):
            if isinstance(body.get("tenant"), str):
                tenant = body["tenant"]
            if isinstance(body.get("bid"), (int, float)):
                bid = float(body["bid"])
            request = body.get("request")
            if isinstance(request, dict):
                trace_id = request.get("trace_id")
        # malformed bodies still go to a shard: its app layer produces
        # the canonical 400, byte-identical to a single-service answer
        shard_index = self.shard_of(tenant)
        wall = time.time()
        verdict = await self._admit_global(shard_index, tenant, bid)
        if verdict is not None:
            record_span(
                "router.route", trace_id,
                start=wall, duration_s=time.time() - wall,
                status="error", error="rejected at the router",
                tenant=tenant, shard=self._names[shard_index],
                http_status=verdict[0],
            )
            return verdict
        # a fast-path admit reaches this line without an await, so the
        # next submit's view already counts this one
        self._unanswered[shard_index] += 1
        try:
            status, payload = await self._forward(
                shard_index, "POST", full_path, raw
            )
        finally:
            self._unanswered[shard_index] -= 1
        record_span(
            "router.route", trace_id,
            start=wall, duration_s=time.time() - wall,
            tenant=tenant, shard=self._names[shard_index],
            http_status=status,
        )
        return status, self._rewrite_ticket(payload, shard_index)

    async def _poll(self, ticket_text: str) -> "tuple[int, object]":
        try:
            global_id = int(ticket_text)
        except ValueError:
            # the shard renders the canonical bad-ticket 400
            return await self._forward(
                0, "GET", f"/v1/result/{ticket_text}", b""
            )
        local_id, shard_index = self._decode_ticket(global_id)
        status, payload = await self._forward(
            shard_index, "GET", f"/v1/result/{local_id}", b""
        )
        return status, self._rewrite_ticket(payload, shard_index)

    async def _cancel(self, raw: bytes) -> "tuple[int, object]":
        if self.n_shards == 1:
            return await self._forward(0, "POST", "/v1/cancel", raw)
        body = _peek_json(raw)
        if not isinstance(body, dict) or not isinstance(
            body.get("ticket"), int
        ):
            # shard 0 renders the canonical 400 for malformed bodies
            return await self._forward(0, "POST", "/v1/cancel", raw)
        local_id, shard_index = self._decode_ticket(body["ticket"])
        rewritten = json.dumps({**body, "ticket": local_id})
        return await self._forward(
            shard_index, "POST", "/v1/cancel", rewritten.encode("utf8")
        )

    async def _register(self, raw: bytes) -> "tuple[int, object]":
        body = _peek_json(raw)
        name = (
            body.get("name") if isinstance(body, dict) else None
        )
        shard_index = (
            self.shard_of(name) if isinstance(name, str) and name else 0
        )
        return await self._forward(
            shard_index, "POST", "/v1/tenants", raw
        )

    # ------------------------------------------------------------------
    # global admission + cross-shard preemption
    # ------------------------------------------------------------------

    async def _admit_global(
        self, shard_index: int, tenant: str, bid: "float | None"
    ) -> "tuple[int, object] | None":
        """``None`` admits (forward to the shard); a ``(429, payload)``
        rejects at the router with the same structured failure shape a
        shard emits.

        The router's view of a shard is the queue depth the shard
        reported on its latest answer (:attr:`ShardBackend.queued`)
        plus this router's submits to it that have not been answered
        yet.  When every shard's view is known and their sum is below
        ``global_queue_depth``, the submit is admitted with no shard
        request.  Otherwise every shard is probed on
        ``/v1/shard/load`` (each probe counted in
        ``repro_router_load_probes_total``), and only that fresh probe
        rejects or preempts.  Traffic that reaches a shard without this
        router (direct clients, a second router) enters the view at
        that shard's next answer; as before, concurrent submits are not
        serialised against each other.

        A shard whose probe fails counts as 0 queued, so one dead shard
        does not stop every tenant's submits; each such failure bumps
        ``repro_router_load_probe_failures_total`` for that shard and
        logs a warning, because the global bound no longer covers what
        that shard has queued."""
        if self.global_queue_depth is None:
            return None
        view = 0
        for shard, unanswered in zip(self.shards, self._unanswered):
            if shard.queued is None:
                break
            view += shard.queued + unanswered
        else:
            if view < self.global_queue_depth:
                return None
        for probes in self._probes:
            probes.inc()
        loads = await asyncio.gather(
            *(shard.request("GET", "/v1/shard/load", b"")
              for shard in self.shards)
        )
        total_queued = 0
        for name, (status, payload) in zip(self._names, loads):
            if status == 200 and isinstance(payload, dict):
                total_queued += payload.get("queued", 0)
            else:
                self._probe_failures.labels(shard=name).inc()
                _log.warning(
                    "load probe of shard %s failed (HTTP %d); the global"
                    " queue bound counts it as 0 queued", name, status,
                )
        if total_queued < self.global_queue_depth:
            return None
        if bid is not None and bid > 0:
            if await self._preempt_global(shard_index, tenant, bid):
                return None
        stage = "service-queue-full"
        self._rejections.labels(stage=stage).inc()
        record = FailureRecord(
            strategy=f"tenant:{tenant}",
            stage=stage,
            error_type="AdmissionError",
            message=(
                f"service queue is full across {self.n_shards}"
                f" shard(s) ({total_queued} of"
                f" {self.global_queue_depth})"
            ),
            detail={
                "queued": total_queued,
                "max_queue_depth": self.global_queue_depth,
                "shards": self.n_shards,
            },
        )
        return 429, {
            "error": record.message,
            "failure": dataclasses.asdict(record),
        }

    async def _preempt_global(
        self, shard_index: int, tenant: str, bid: float
    ) -> bool:
        """Cross-shard bid-priced preemption: quote the bidder on its
        own shard, collect the cheapest victim candidate from *every*
        shard, evict the globally cheapest (compensating it on its
        shard), then charge the bidder on its shard."""
        status, quote = await self.shards[shard_index].request_json(
            "POST", "/v1/shard/quote", {"tenant": tenant, "bid": bid}
        )
        if (
            status != 200
            or not isinstance(quote, dict)
            or quote.get("rank") is None
            or not quote.get("affordable")
        ):
            return False
        rank = int(quote["rank"])
        candidates = await asyncio.gather(
            *(shard.request_json(
                "POST", "/v1/shard/victim", {"below_rank": rank}
            ) for shard in self.shards)
        )
        best = None
        for index, (c_status, victim) in enumerate(candidates):
            if (
                c_status != 200
                or not isinstance(victim, dict)
                or not isinstance(victim.get("ticket"), int)
            ):
                continue
            # same victim ordering as a single shard — lowest tier,
            # lowest priority, youngest — with the shard index as the
            # deterministic cross-shard tie-break
            key = (
                victim.get("rank", 0), victim.get("priority", 0),
                index, -victim["ticket"],
            )
            if best is None or key < best[0]:
                best = (key, index, victim)
        if best is None:
            return False
        _key, victim_index, victim = best
        status, outcome = await self.shards[victim_index].request_json(
            "POST", "/v1/shard/preempt",
            {"ticket": victim["ticket"], "by": tenant, "bid": bid},
        )
        if (
            status != 200
            or not isinstance(outcome, dict)
            or not outcome.get("ok")
        ):
            return False  # the victim raced away; fall through to 429
        await self.shards[shard_index].request_json(
            "POST", "/v1/shard/charge",
            {
                "tenant": tenant, "bid": bid,
                "victim": outcome.get("tenant"),
                "victim_ticket": victim["ticket"],
            },
        )
        self._preemptions.inc()
        _log.info(
            "cross-shard preemption: %s (shard %s) evicted ticket #%d"
            " of %s (shard %s) for a bid of %g",
            tenant, self._names[shard_index], victim["ticket"],
            outcome.get("tenant"), self._names[victim_index], bid,
        )
        return True

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------

    async def _gather(self) -> "tuple[MetricsRegistry, dict]":
        """One shard-control request per shard: a fresh fleet registry
        (the router's own families, every answering shard's under its
        ``shard`` label — process-level ones only from shards outside
        the router's process) and each answering shard's snapshot."""
        answers = await asyncio.gather(
            *(shard.request("GET", "/v1/shard/metrics", b"")
              for shard in self.shards)
        )
        fleet = MetricsRegistry()
        fleet.fold(self.metrics.export())
        snaps = {}
        for name, (status, answer) in zip(self._names, answers):
            if status == 200 and isinstance(answer, dict):
                fleet.fold(answer.get("process", ()), shard=name)
                fleet.fold(answer["service"], shard=name)
                snaps[name] = answer["stats"]
        return fleet, snaps

    async def _stats(self) -> "tuple[int, object]":
        """The fleet ``/stats``: a view over the fleet registry — every
        count, level, spend and queue wait — plus the tenant rows, the
        limits and the ``shards`` blocks from each shard's snapshot."""
        if self.n_shards == 1:
            # byte-identical to the single-service deployment: the one
            # shard's snapshot passes through verbatim
            return await self._forward(0, "GET", "/stats", b"")
        fleet, snaps = await self._gather()
        # shard order, then each shard's tenant-registration order: spend
        # and the merged raw queue-wait windows (per-shard percentiles
        # do not compose) are summed in it
        order = [(name, tenant) for name, snap in snaps.items()
                 for tenant in snap["tenants"]]
        totals, unattributed, cache, queue_wait = stats_totals(fleet, order)

        def level(name: str) -> int:
            gauge = fleet.gauge(name, "", ("shard",))
            return int(sum(c.value for c in gauge.children().values()))

        blocks = [snap["service"] for snap in snaps.values()]
        service = {
            "backend": "router", "shards": self.n_shards,
            **{key: sum(b.get(key) or 0 for b in blocks) for key in (
                "jobs", "max_in_flight", "max_queue_depth",
            )},
            "queued": level("repro_service_queued"),
            "in_flight": level("repro_service_in_flight"),
            "cache": {
                "capacity": sum(b["cache"]["capacity"] for b in blocks),
                "size": level("repro_service_cache_entries"),
                **cache,
            },
            "uptime_s": (
                round(self._clock() - self._started_at, 3)
                if self._started_at is not None else None
            ),
        }
        if queue_wait is not None:
            service["queue_wait_s"] = queue_wait
        tenants: dict[str, dict] = {}
        shards_out: dict[str, object] = {}
        for index, name in enumerate(self._names):
            snap = snaps.get(name)
            if snap is None:
                shards_out[name] = {"error": "unreachable"}
                continue
            for tenant, row in snap["tenants"].items():
                # a tenant registered on several shards (shared
                # --tenant flags) still *lives* on exactly one — keep
                # the owning shard's row, not whichever came last
                if tenant not in tenants or self.shard_of(tenant) == index:
                    tenants[tenant] = row
            shards_out[name] = {
                "service": snap["service"], "totals": snap["totals"],
            }
        return 200, {
            "service": service,
            "totals": totals,
            "unattributed_rejections": unattributed,
            "tenants": tenants,
            "shards": shards_out,
        }

    async def _trace(self, trace_id: str) -> "tuple[int, object]":
        spans = [span_to_dict(s) for s in TRACE_STORE.get(trace_id)]
        seen = {span.get("span_id") for span in spans}
        for shard in self.shards:
            if shard.shares_process_state:
                continue  # already in the local store
            status, payload = await shard.request(
                "GET", f"/v1/trace/{trace_id}", b""
            )
            if status != 200 or not isinstance(payload, dict):
                continue
            for span in payload.get("spans") or ():
                if span.get("span_id") not in seen:
                    seen.add(span.get("span_id"))
                    spans.append(span)
        if not spans:
            return 404, {"error": f"no trace {trace_id!r}"}
        return 200, {"trace_id": trace_id, "spans": spans}


class RouterHTTPServer(BaseHTTPServer):
    """Bind a :class:`ShardRouter` to a TCP port — same transport as
    one shard's server, so :class:`~repro.service.client.
    HttpServiceClient` (and ``repro submit``) speak to a router and a
    single service interchangeably."""

    def __init__(
        self,
        router: ShardRouter,
        *,
        host: str = "127.0.0.1",
        port: int = 8642,
        read_timeout: float = 30.0,
    ) -> None:
        super().__init__(host=host, port=port, read_timeout=read_timeout)
        self.router = router

    async def _on_start(self) -> None:
        await self.router.start()

    async def _on_close(self) -> None:
        await self.router.aclose()

    async def dispatch(
        self, method: str, path: str, raw: bytes
    ) -> "tuple[int, object]":
        try:
            return await self.router.dispatch(method, path, raw)
        except Exception as err:  # noqa: BLE001 — a 500, not a crash
            return 500, {"error": f"{type(err).__name__}: {err}"}
