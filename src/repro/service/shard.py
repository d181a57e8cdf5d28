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
from collections import OrderedDict
from typing import Callable, Mapping, Sequence

from ..api.requests import FailureRecord
from ..telemetry import get_logger, get_registry, record_span
from ..telemetry.metrics import _escape_label, summarize
from ..telemetry.trace import TRACE_STORE, span_to_dict
from .broker import AllocationService
from .http import BaseHTTPServer, ServiceHTTPServer, _PlainText
from .tenants import TenantConfig

__all__ = [
    "HttpShard",
    "LocalShard",
    "RouterHTTPServer",
    "ShardBackend",
    "ShardRouter",
    "merge_metrics_texts",
    "parse_shard_map",
    "rendezvous_shard",
]

_log = get_logger("service.shard")

#: Idle keep-alive connections an :class:`HttpShard` keeps to its shard
#: (a connection beyond this is closed when its response is read).
MAX_IDLE_SHARD_CONNECTIONS = 16

_Stream = tuple[asyncio.StreamReader, asyncio.StreamWriter]

#: Mirrors the single-shard server's route list so a router's 404/405
#: prose matches what one shard would have said.
_KNOWN_ROUTES = (
    "GET /healthz, GET /stats, GET /metrics,"
    " POST /v1/submit[?mode=async], GET /v1/result/<id>,"
    " GET /v1/trace/<id>, POST /v1/cancel, POST /v1/tenants"
)


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
    #: (no trace fetch needed for it).
    shares_process_state: bool = False

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

    async def scrape_metrics(self) -> "str | None":
        """This shard's Prometheus exposition for the router to label
        and merge (``None`` when unreachable): the shard process's
        whole ``/metrics`` scrape."""
        status, payload = await self.request("GET", "/metrics", b"")
        if status == 200 and isinstance(payload, _PlainText):
            return payload.text
        return None


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

    async def scrape_metrics(self) -> str:
        """The service's own registry only: this process's process-level
        families belong to the router's scrape, rendered there once."""
        return self.service.metrics.render()


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
    request whose response had started is never retried."""

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
        if headers.get("content-type", "").startswith("text/plain"):
            return status, _PlainText(body.decode("utf8"))
        try:
            payload = json.loads(body) if body else {}
        except ValueError:
            payload = {"error": f"shard {self.name} returned a"
                                f" non-JSON body"}
        return status, payload


# ----------------------------------------------------------------------
# /metrics merging
# ----------------------------------------------------------------------

def _label_sample(line: str, shard: str) -> str:
    """Inject a ``shard="..."`` label into one exposition sample."""
    name_part, _, value = line.rpartition(" ")
    shard_label = f'shard="{_escape_label(shard)}"'
    if "{" in name_part:
        name, _, rest = name_part.partition("{")
        return f"{name}{{{shard_label},{rest} {value}"
    return f"{name_part}{{{shard_label}}} {value}"


def _parse_exposition(text: str) -> "OrderedDict[str, dict]":
    """Prometheus text exposition → ordered ``family → {help, type,
    samples}``.  Samples whose name extends the current family's (the
    ``_bucket``/``_sum``/``_count`` histogram series) stay grouped
    under it."""
    families: "OrderedDict[str, dict]" = OrderedDict()
    current: "str | None" = None
    for line in text.splitlines():
        if line.startswith("# HELP "):
            name, _, help_text = line[len("# HELP "):].partition(" ")
            entry = families.setdefault(
                name, {"help": None, "type": None, "samples": []}
            )
            entry["help"] = help_text
            current = name
        elif line.startswith("# TYPE "):
            name, _, kind = line[len("# TYPE "):].partition(" ")
            entry = families.setdefault(
                name, {"help": None, "type": None, "samples": []}
            )
            entry["type"] = kind
            current = name
        elif line and not line.startswith("#"):
            name_part, _, _value = line.rpartition(" ")
            name = name_part.partition("{")[0]
            family = (
                current
                if current is not None and name.startswith(current)
                else name
            )
            families.setdefault(
                family, {"help": None, "type": None, "samples": []}
            )["samples"].append(line)
    return families


def merge_metrics_texts(
    shard_texts: "Sequence[tuple[str, str]]", local_text: str = ""
) -> str:
    """Merge per-shard Prometheus expositions into one scrape: every
    shard sample gains a ``shard="<name>"`` label, families are
    deduplicated (first HELP/TYPE wins), and the router's own
    process-local exposition rides along unlabelled."""
    merged: "OrderedDict[str, dict]" = OrderedDict()

    def _fold(families: "OrderedDict[str, dict]",
              shard: "str | None") -> None:
        for name, entry in families.items():
            out = merged.setdefault(
                name, {"help": None, "type": None, "samples": []}
            )
            if out["help"] is None:
                out["help"] = entry["help"]
            if out["type"] is None:
                out["type"] = entry["type"]
            for sample in entry["samples"]:
                out["samples"].append(
                    sample if shard is None
                    else _label_sample(sample, shard)
                )

    for shard_name, text in shard_texts:
        _fold(_parse_exposition(text), shard_name)
    if local_text:
        _fold(_parse_exposition(local_text), None)
    lines: list[str] = []
    for name, entry in merged.items():
        if entry["help"] is not None:
            lines.append(f"# HELP {name} {entry['help']}")
        if entry["type"] is not None:
            lines.append(f"# TYPE {name} {entry['type']}")
        lines.extend(entry["samples"])
    return "\n".join(lines) + ("\n" if lines else "")


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
        #: router-level admission rejections by stage (merged into the
        #: aggregated /stats totals)
        self._rejections: dict[str, int] = {}
        self._preemptions = 0

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
            return await self._metrics()
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
        if path in ("/healthz", "/stats", "/metrics", "/v1/submit",
                    "/v1/cancel", "/v1/tenants"):
            return 405, {"error": f"wrong method for {path}"
                                  f" (routes: {_KNOWN_ROUTES})"}
        return 404, {"error": f"no route {method} {path}"
                              f" (routes: {_KNOWN_ROUTES})"}

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
        status, payload = await self._forward(
            shard_index, "POST", full_path, raw
        )
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
        shard emits."""
        if self.global_queue_depth is None:
            return None
        loads = await asyncio.gather(
            *(shard.request("GET", "/v1/shard/load", b"")
              for shard in self.shards)
        )
        total_queued = sum(
            payload.get("queued", 0)
            for status, payload in loads
            if status == 200 and isinstance(payload, dict)
        )
        if total_queued < self.global_queue_depth:
            return None
        if bid is not None and bid > 0:
            if await self._preempt_global(shard_index, tenant, bid):
                return None
        stage = "service-queue-full"
        self._rejections[stage] = self._rejections.get(stage, 0) + 1
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
        self._preemptions += 1
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

    async def _stats(self) -> "tuple[int, object]":
        if self.n_shards == 1:
            # byte-identical to the single-service deployment: the one
            # shard's snapshot passes through verbatim
            return await self._forward(0, "GET", "/stats", b"")
        stats = await asyncio.gather(
            *(shard.request("GET", "/stats", b"")
              for shard in self.shards)
        )
        samples = await asyncio.gather(
            *(shard.request("GET", "/v1/shard/samples", b"")
              for shard in self.shards)
        )
        snapshots: "list[dict | None]" = [
            payload if status == 200 and isinstance(payload, dict)
            else None
            for status, payload in stats
        ]
        service = {
            "backend": "router",
            "shards": self.n_shards,
            "jobs": 0,
            "max_in_flight": 0,
            "max_queue_depth": 0,
            "queued": 0,
            "in_flight": 0,
            "cache": {"capacity": 0, "size": 0, "hits": 0, "misses": 0},
            "uptime_s": (
                round(self._clock() - self._started_at, 3)
                if self._started_at is not None else None
            ),
        }
        totals: dict[str, float] = {
            "admitted": 0, "completed": 0, "failed": 0,
            "cancelled": 0, "expired": 0, "rejected": 0,
        }
        unattributed: dict[str, int] = dict(self._rejections)
        tenants: dict[str, dict] = {}
        shards_out: dict[str, object] = {}
        for index, (name, snap) in enumerate(
            zip(self._names, snapshots)
        ):
            if snap is None:
                shards_out[name] = {"error": "unreachable"}
                continue
            svc = snap.get("service", {})
            for key in ("jobs", "max_in_flight", "max_queue_depth",
                        "queued", "in_flight"):
                service[key] += svc.get(key, 0) or 0
            for key, value in (svc.get("cache") or {}).items():
                if key in service["cache"]:
                    service["cache"][key] += value
            for key, value in (snap.get("totals") or {}).items():
                totals[key] = totals.get(key, 0) + value
            for stage, count in (
                snap.get("unattributed_rejections") or {}
            ).items():
                unattributed[stage] = unattributed.get(stage, 0) + count
            for tenant, row in (snap.get("tenants") or {}).items():
                # a tenant registered on several shards (shared
                # --tenant flags) still *lives* on exactly one — keep
                # the owning shard's row, not whichever came last
                if (
                    tenant not in tenants
                    or self.shard_of(tenant) == index
                ):
                    tenants[tenant] = row
            shards_out[name] = {
                "service": svc, "totals": snap.get("totals", {})
            }
        totals["rejected"] += sum(self._rejections.values())
        if "spent" in totals:
            totals["spent"] = round(totals["spent"], 6)
        # fleet-level queue-wait percentiles from the *merged* raw
        # windows — per-shard percentiles do not compose
        waits: list[float] = []
        waits_total = 0
        for status, payload in samples:
            if status == 200 and isinstance(payload, dict):
                waits.extend(payload.get("queue_wait") or ())
                waits_total += payload.get("queue_wait_total", 0)
        out = {
            "service": service,
            "totals": totals,
            "unattributed_rejections": dict(sorted(unattributed.items())),
            "tenants": tenants,
            "shards": shards_out,
        }
        queue_wait = summarize(waits, waits_total)
        if queue_wait is not None:
            out["service"]["queue_wait_s"] = queue_wait
        return 200, out

    async def _metrics(self) -> "tuple[int, object]":
        texts = await asyncio.gather(
            *(shard.scrape_metrics() for shard in self.shards)
        )
        return 200, _PlainText(merge_metrics_texts(
            [(name, text) for name, text in zip(self._names, texts)
             if text is not None],
            get_registry().render(),
        ))

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

    def snapshot(self) -> dict:
        """Router-local state (for debugging; /stats aggregates the
        shards)."""
        return {
            "shards": list(self._names),
            "pins": dict(self._pins),
            "global_queue_depth": self.global_queue_depth,
            "rejections": dict(self._rejections),
            "preemptions": self._preemptions,
        }


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
