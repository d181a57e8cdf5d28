"""JSON-over-HTTP front door (pure ``asyncio.start_server``, no deps).

A deliberately small HTTP/1.1 implementation — request line, headers,
``Content-Length`` body, persistent connections — because the service
needs a handful of routes and zero framework.  A connection carries
requests one after another until the client sends ``Connection:
close`` or speaks HTTP/1.0, a request cannot be framed (400, 408, 413,
431, 501 — the connection is closed after the answer), or it sits idle
for ``read_timeout`` (closed quietly).  Routes:

========  ================  ================================================
method    path              body → response
========  ================  ================================================
GET       /healthz          → ``{"ok": true}``
GET       /stats            → the service snapshot (per-tenant counters,
                              queue-wait/solve-latency percentiles,
                              result-cache hit rates)
POST      /v1/submit        ``{"tenant", "priority", "deadline_s",
                              "request": <wire>}`` → the completed result
                              (the connection is held open while the
                              request queues and solves)
POST      /v1/submit        with ``?mode=async``: → **202** with
                              ``{"ticket", "status": "pending",
                              "poll": "/v1/result/<id>"}`` — the
                              connection is released immediately and the
                              result is fetched by polling
POST      /v1/cancel        ``{"ticket": id}`` → ``{"cancelled": bool}``
GET       /v1/result/<id>   → the async ticket's state: ``status`` is
                              ``pending`` | ``done`` | ``failed`` |
                              ``cancelled``, with the result payload
                              inline once done; 404 for unknown (or
                              long-since-evicted) tickets
POST      /v1/tenants       a :class:`~repro.service.tenants.TenantConfig`
                              as JSON → registers/reconfigures a tenant
GET       /metrics          → the process-wide
                              :mod:`repro.telemetry` families followed
                              by this service's own registry, in
                              Prometheus text exposition format (the
                              one non-JSON route)
GET       /v1/trace/<id>    → ``{"trace_id", "spans": [...]}`` — every
                              span of one trace from the in-process
                              store (worker spans included once their
                              results came back); 404 for unknown ids
========  ================  ================================================

Request payloads ride the :mod:`repro.api.wire` format; malformed
bodies are 400s with the wire error message, admission rejections are
429s carrying the structured failure record, so a client can tell "you
typo'd a field" from "slow down" without parsing prose.  Every response
of a service's server carries its queue depth in one header,
``X-Repro-Queued: <n>``; a router keeps its global-admission view from
it.

Async tickets are kept in memory: pending ones for as long as they
run, finished ones until :data:`MAX_ASYNC_RESULTS` newer ones have
finished (bounded eviction — a poller that sleeps for a week gets a
404, not an unbounded server).
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import urllib.parse
from collections import OrderedDict
from types import SimpleNamespace
from typing import Any, Mapping

from ..api.requests import ReplayRequest, SolveRequest, SweepRequest
from ..api.wire import (
    WireFormatError,
    _reject_unknown,
    request_from_wire,
)
from ..checks import _at_least, _finite
from ..telemetry import get_registry, scrape, span_to_dict
from ..telemetry.trace import TRACE_STORE
from .broker import AdmissionRejected, AllocationService
from .tenants import TenantConfig, tier_rank

__all__ = ["BaseHTTPServer", "ServiceHTTPServer"]

#: Largest accepted request body (a full ProblemInstance is ~100 KB;
#: this bound is about refusing absurdity, not capacity planning).
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Most header lines one request may carry (431 beyond).
MAX_HEADERS = 100

#: Finished async tickets retained for ``GET /v1/result/<id>`` before
#: the oldest are evicted (pending tickets are never evicted).
MAX_ASYNC_RESULTS = 1024

_STATUS_TEXT = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout",
    413: "Payload Too Large", 429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error", 501: "Not Implemented",
    503: "Service Unavailable",
}

_SUBMIT_FIELDS = ("tenant", "priority", "deadline_s", "bid", "request")

#: Response header on every answer of a :class:`ServiceHTTPServer`: the
#: service's queue depth when the answer was written, which a router
#: reads as that shard's load instead of probing ``/v1/shard/load``.
QUEUED_HEADER = "X-Repro-Queued"

#: The public routes, named in a shard's and a router's 404/405 alike.
KNOWN_ROUTES = (
    "GET /healthz, GET /stats, GET /metrics,"
    " POST /v1/submit[?mode=async], GET /v1/result/<id>,"
    " GET /v1/trace/<id>, POST /v1/cancel, POST /v1/tenants"
)


class _HTTPError(Exception):
    def __init__(self, status: int, payload: dict):
        super().__init__(payload.get("error", _STATUS_TEXT.get(status)))
        self.status = status
        self.payload = payload


def _bad(message: str) -> _HTTPError:
    return _HTTPError(400, {"error": message})


class _PlainText:
    """Marker for the one route that is not JSON: ``/metrics`` serves
    the Prometheus text exposition format verbatim."""

    content_type = "text/plain; version=0.0.4; charset=utf-8"

    def __init__(self, text: str):
        self.text = text


def _check_fields(
    data: Mapping[str, Any], allowed: tuple[str, ...], what: str
) -> None:
    """Unknown-field rejection with the wire layer's did-you-mean
    messages, translated to a 400."""
    try:
        _reject_unknown(data, allowed, what)
    except WireFormatError as err:
        raise _bad(str(err)) from err


def _coerce(value: Any, kind, what: str):
    """Numeric coercion whose failure is the client's fault (400)."""
    try:
        return kind(value)
    except (TypeError, ValueError) as err:
        raise _bad(f"bad {what}: {err}") from err


def _bid(body: Mapping[str, Any]) -> float:
    """A body's ``bid``: a finite amount >= 0 like a request's, checked
    before the service is touched (400 naming ``bid`` otherwise)."""
    bid = _coerce(body.get("bid", 0.0), float, "'bid'")
    try:
        return _at_least(SimpleNamespace(bid=bid), "bid", 0, _finite)
    except ValueError as err:
        raise _bad(f"bad 'bid': {err}") from err


async def _readline(reader: asyncio.StreamReader, status: int) -> bytes:
    """One line of a request; ``status`` answers a line longer than the
    stream's limit (64 KiB)."""
    try:
        return await reader.readline()
    except ValueError as err:
        raise _HTTPError(
            status, {"error": "request line or header line too long"}
        ) from err


def _no_route(method: str, path: str) -> tuple[int, dict]:
    """The 405 (known path) or 404 answer for an unrouted request."""
    if path in ("/healthz", "/stats", "/metrics", "/v1/submit",
                "/v1/cancel", "/v1/tenants"):
        return 405, {"error": f"wrong method for {path}"
                              f" (routes: {KNOWN_ROUTES})"}
    return 404, {"error": f"no route {method} {path}"
                          f" (routes: {KNOWN_ROUTES})"}


def _result_payload(request, result) -> dict:
    """Encode a completed request's result for the wire."""
    if isinstance(request, SolveRequest):
        return {"kind": "solve", "result": result.to_dict()}
    if isinstance(request, ReplayRequest):
        return {"kind": "replay", "result": result.to_dict()}
    if isinstance(request, SweepRequest):
        from ..experiments.report import sweep_to_csv

        return {
            "kind": "sweep",
            "result": {
                "name": result.name,
                "parameter": result.parameter,
                "x_values": list(result.x_values),
                "heuristics": list(result.heuristics),
                "csv": sweep_to_csv(result),
            },
        }
    raise _HTTPError(500, {"error": f"unencodable result for {request!r}"})


class BaseHTTPServer:
    """The transport half of the front door: a minimal HTTP/1.1 server
    on ``asyncio.start_server`` that reads the requests of a persistent
    connection one after another and hands each ``(method, path,
    body)`` to :meth:`dispatch`.  A connection stays open after a
    response unless the request was HTTP/1.0, asked for ``Connection:
    close`` or could not be framed; an idle one is closed after
    ``read_timeout``, and :meth:`aclose` closes the idle ones at once.

    Subclasses provide :meth:`dispatch` (the *app layer*, returning
    ``(status, payload)`` and never raising) plus optional
    :meth:`_on_start` / :meth:`_on_close` lifecycle hooks and a
    :meth:`_head_lines` response-head hook — the single-shard
    :class:`ServiceHTTPServer` and the front-tier
    :class:`~repro.service.shard.RouterHTTPServer` share everything
    else.  ``port=0`` picks a free port; read it back from
    :attr:`port` after :meth:`start`."""

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 8642,
        read_timeout: float = 30.0,
    ) -> None:
        self.host = host
        self.port = port
        #: Budget for *reading* one request (line + headers + body), and
        #: for waiting on the next one of an idle connection; a client
        #: that connects and stalls must not pin a handler forever.
        #: Processing time is unbounded by design — submit holds the
        #: connection while the request queues and solves.
        self.read_timeout = read_timeout
        self._server: asyncio.AbstractServer | None = None
        #: writers of connections waiting for their next request
        self._idle: set[asyncio.StreamWriter] = set()
        self._closing = False

    async def dispatch(
        self, method: str, path: str, raw: bytes
    ) -> tuple[int, object]:
        """Route one parsed request; must return ``(status, payload)``
        rather than raise — it is also the programmatic entry point an
        in-process shard uses without any socket."""
        raise NotImplementedError

    async def _on_start(self) -> None:
        """Hook: bring up the app layer before the socket binds."""

    async def _on_close(self) -> None:
        """Hook: tear down the app layer after the socket closed."""

    def _head_lines(self) -> str:
        """Hook: extra header lines (each ending in CRLF) written into
        every response head, read when the response is written."""
        return ""

    async def start(self) -> None:
        await self._on_start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        """Serve until cancelled, then leave the shutdown to
        :meth:`aclose` (``Server.serve_forever`` would wait for every
        idle keep-alive connection on Python 3.12)."""
        if self._server is None:
            await self.start()
        await asyncio.get_running_loop().create_future()

    async def aclose(self) -> None:
        if self._server is not None:
            self._closing = True
            self._server.close()
            # busy connections close after their response; idle ones
            # are closed here, or wait_closed() waits out read_timeout
            for writer in self._idle:
                writer.close()
            await self._server.wait_closed()
            self._server = None
        await self._on_close()

    # ------------------------------------------------------------------
    # protocol plumbing
    # ------------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        keep_alive = True
        try:
            while keep_alive and not self._closing:
                self._idle.add(writer)
                try:
                    first = await asyncio.wait_for(
                        reader.read(1), self.read_timeout
                    )
                except (asyncio.TimeoutError, ConnectionError):
                    return  # idle past read_timeout: close quietly
                finally:
                    self._idle.discard(writer)
                if not first:
                    return  # the peer closed between requests
                keep_alive = False  # until the request frames cleanly
                try:
                    try:
                        method, path, raw, keep_alive = await asyncio.wait_for(
                            self._read_request(first, reader),
                            self.read_timeout,
                        )
                    except (asyncio.TimeoutError, asyncio.IncompleteReadError,
                            ConnectionError):
                        status, payload = 408, {
                            "error": "timed out (or disconnected) while"
                                     " reading the request"
                        }
                    else:
                        status, payload = await self.dispatch(
                            method, path, raw
                        )
                except _HTTPError as err:
                    status, payload = err.status, err.payload
                except Exception as err:  # noqa: BLE001 — a 500, not a crash
                    status, payload = 500, {
                        "error": f"{type(err).__name__}: {err}"
                    }
                keep_alive = keep_alive and not self._closing
                if isinstance(payload, _PlainText):
                    body = payload.text.encode("utf8")
                    content_type = payload.content_type
                else:
                    body = json.dumps(payload, sort_keys=True).encode("utf8")
                    content_type = "application/json"
                head = (
                    f"HTTP/1.1 {status}"
                    f" {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
                    f"Content-Type: {content_type}\r\n"
                    f"Content-Length: {len(body)}\r\n"
                    f"Connection: {'keep-alive' if keep_alive else 'close'}"
                    f"\r\n{self._head_lines()}\r\n"
                ).encode("ascii")
                writer.write(head + body)
                await writer.drain()
        except (ConnectionError, RuntimeError):
            pass  # client went away mid-response
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(
        self, first: bytes, reader: asyncio.StreamReader
    ) -> tuple[str, str, bytes, bool]:
        """Read the rest of one request whose first byte is ``first``:
        ``(method, path, body, keep_alive)``.  A request that cannot be
        framed raises :class:`_HTTPError`, and its connection closes."""
        request_line = (
            first + await _readline(reader, 400)
        ).decode("latin1").strip()
        if not request_line:
            raise _bad("empty request")
        parts = request_line.split()
        if len(parts) != 3:
            raise _bad(f"malformed request line {request_line!r}")
        method, path, version = parts
        headers: dict[str, str] = {}
        for _ in range(MAX_HEADERS + 1):
            line = await _readline(reader, 431)
            if line in (b"\r\n", b"\n", b""):
                break
            name, colon, value = line.decode("latin1").partition(":")
            name = name.strip().lower()
            if not colon or not name:
                raise _bad(f"malformed header line {line!r}")
            if name == "content-length" and name in headers:
                raise _bad("duplicate Content-Length header")
            headers[name] = value.strip()
        else:
            raise _HTTPError(
                431, {"error": f"more than {MAX_HEADERS} header lines"}
            )
        if "transfer-encoding" in headers:
            raise _HTTPError(
                501, {"error": "Transfer-Encoding is not supported;"
                               " send the body with a Content-Length"}
            )
        length_text = headers.get("content-length", "0")
        if not (length_text.isascii() and length_text.isdigit()):
            raise _bad(
                f"bad Content-Length header {length_text!r}: expected a"
                f" non-negative integer"
            )
        length = int(length_text)
        if length > MAX_BODY_BYTES:
            raise _HTTPError(
                413,
                {"error": f"body of {length} bytes exceeds the"
                          f" {MAX_BODY_BYTES}-byte limit"},
            )
        raw = await reader.readexactly(length) if length else b""
        tokens = headers.get("connection", "").lower().split(",")
        keep_alive = version == "HTTP/1.1" and not any(
            token.strip() == "close" for token in tokens
        )
        return method, path, raw, keep_alive

    def _json_body(self, raw: bytes, what: str) -> dict:
        if not raw:
            raise _bad(f"{what} needs a JSON body")
        try:
            data = json.loads(raw)
        except ValueError as err:  # JSONDecodeError, UnicodeDecodeError
            raise _bad(f"invalid JSON body: {err}") from err
        except RecursionError as err:
            raise _bad("invalid JSON body: nested too deeply") from err
        if not isinstance(data, dict):
            raise _bad(f"{what} body must be a JSON object")
        return data


class ServiceHTTPServer(BaseHTTPServer):
    """One shard's front door: bind an
    :class:`~repro.service.broker.AllocationService` to a TCP port —
    or use it socketless through :meth:`dispatch`, which is how a
    :class:`~repro.service.shard.LocalShard` addresses the same app
    layer in-process."""

    def __init__(
        self,
        service: AllocationService,
        *,
        host: str = "127.0.0.1",
        port: int = 8642,
        read_timeout: float = 30.0,
    ) -> None:
        super().__init__(host=host, port=port, read_timeout=read_timeout)
        self.service = service
        #: async-submit ticket states, insertion-ordered for eviction
        self._async: "OrderedDict[int, dict]" = OrderedDict()
        self._async_tasks: set[asyncio.Task] = set()

    async def _on_start(self) -> None:
        await self.service.start()

    async def _on_close(self) -> None:
        await self.service.aclose()
        if self._async_tasks:  # settle pending async tickets
            await asyncio.gather(
                *self._async_tasks, return_exceptions=True
            )

    def _head_lines(self) -> str:
        return f"{QUEUED_HEADER}: {self.service.queued}\r\n"

    # ------------------------------------------------------------------
    # routes
    # ------------------------------------------------------------------

    async def dispatch(
        self, method: str, path: str, raw: bytes
    ) -> tuple[int, object]:
        try:
            return await self._route(method, path, raw)
        except _HTTPError as err:
            return err.status, err.payload
        except Exception as err:  # noqa: BLE001 — a 500, not a crash
            return 500, {"error": f"{type(err).__name__}: {err}"}

    async def _route(
        self, method: str, path: str, raw: bytes
    ) -> tuple[int, dict]:
        path, _, query_text = path.partition("?")
        query = urllib.parse.parse_qs(query_text)
        if path == "/healthz" and method == "GET":
            return 200, {"ok": True}
        if path == "/stats" and method == "GET":
            return 200, self.service.snapshot()
        if path == "/metrics" and method == "GET":
            return 200, _PlainText(scrape(self.service.metrics))
        if path.startswith("/v1/trace/") and method == "GET":
            trace_id = path[len("/v1/trace/"):]
            spans = TRACE_STORE.get(trace_id)
            if not spans:
                return 404, {"error": f"no trace {trace_id!r}"}
            return 200, {
                "trace_id": trace_id,
                "spans": [span_to_dict(s) for s in spans],
            }
        if path == "/v1/submit" and method == "POST":
            return await self._submit(raw, query)
        if path.startswith("/v1/result/") and method == "GET":
            return self._poll(path[len("/v1/result/"):])
        if path == "/v1/cancel" and method == "POST":
            body = self._json_body(raw, "cancel")
            _check_fields(body, ("ticket",), "cancel body")
            if "ticket" not in body:
                raise _bad("cancel body needs a 'ticket' id")
            return 200, {
                "cancelled": self.service.cancel(
                    _coerce(body["ticket"], int, "'ticket' id")
                )
            }
        if path == "/v1/tenants" and method == "POST":
            body = self._json_body(raw, "tenant registration")
            fields = tuple(
                f.name for f in dataclasses.fields(TenantConfig)
            )
            _check_fields(body, fields, "tenant registration")
            if "name" not in body:
                raise _bad("tenant registration needs a 'name'")
            try:
                config = TenantConfig(**body)
            except (TypeError, ValueError) as err:
                raise _bad(f"bad tenant config: {err}") from err
            self.service.registry.register(config)
            return 200, {"registered": config.name}
        # shard-control plane (router → shard; additive, undocumented
        # in the public route list): load for global admission, one
        # answer with all a router's /stats and /metrics read (the
        # exported registries it folds into its fleet view, and the
        # snapshot with the tenant rows), plus the split halves of a
        # cross-shard preemption
        if path == "/v1/shard/load" and method == "GET":
            return 200, {
                "queued": self.service.queued,
                "in_flight": self.service.in_flight,
                "max_queue_depth": self.service.max_queue_depth,
                "max_in_flight": self.service.max_in_flight,
            }
        if path == "/v1/shard/metrics" and method == "GET":
            answer = {
                "service": self.service.metrics.export(),
                "stats": self.service.snapshot(),
            }
            # a socketless app (a LocalShard) answers in its caller's
            # process, whose registry the caller already holds
            if self._server is not None:
                answer["process"] = get_registry().export()
            return 200, answer
        if path == "/v1/shard/quote" and method == "POST":
            body = self._json_body(raw, "preemption quote")
            _check_fields(body, ("tenant", "bid"), "preemption quote")
            quote = self.service.preemption_quote(
                str(body.get("tenant", "default")), _bid(body),
            )
            return 200, (
                quote if quote is not None
                else {"rank": None, "affordable": False}
            )
        if path == "/v1/shard/victim" and method == "POST":
            body = self._json_body(raw, "victim query")
            _check_fields(body, ("below_rank",), "victim query")
            victim = self.service.cheapest_victim(
                _coerce(body.get("below_rank", 0), int, "'below_rank'")
            )
            if victim is None:
                return 200, {}
            state = self.service.registry.get(victim.tenant)
            return 200, {
                "ticket": victim.id,
                "tenant": victim.tenant,
                "priority": victim.priority,
                "rank": tier_rank(state.config.tier),
            }
        if path == "/v1/shard/preempt" and method == "POST":
            body = self._json_body(raw, "preempt")
            _check_fields(body, ("ticket", "by", "bid"), "preempt")
            victim_tenant = self.service.preempt_ticket(
                _coerce(body.get("ticket", 0), int, "'ticket'"),
                by=str(body.get("by", "")),
                bid=_bid(body),
            )
            return 200, {
                "ok": victim_tenant is not None,
                "tenant": victim_tenant,
            }
        if path == "/v1/shard/charge" and method == "POST":
            body = self._json_body(raw, "preemption charge")
            _check_fields(
                body, ("tenant", "bid", "victim", "victim_ticket"),
                "preemption charge",
            )
            self.service.charge_preemption(
                str(body.get("tenant", "")),
                _bid(body),
                victim=str(body.get("victim", "")),
                victim_ticket=_coerce(
                    body.get("victim_ticket", 0), int, "'victim_ticket'"
                ),
            )
            return 200, {"ok": True}
        return _no_route(method, path)

    async def _submit(
        self, raw: bytes, query: Mapping[str, list]
    ) -> tuple[int, dict]:
        mode = (query.get("mode") or ["sync"])[-1]
        if mode not in ("sync", "async"):
            raise _bad(
                f"unknown submit mode {mode!r} (use 'sync' or 'async')"
            )
        body = self._json_body(raw, "submit")
        _check_fields(body, _SUBMIT_FIELDS, "submit body")
        if "request" not in body:
            raise _bad("submit body needs a 'request' payload")
        try:
            request = request_from_wire(body["request"])
        except WireFormatError as err:
            raise _bad(str(err)) from err
        tenant = body.get("tenant", "default")
        priority = _coerce(body.get("priority", 0), int, "'priority'")
        deadline_s = body.get("deadline_s")
        if deadline_s is not None:
            deadline_s = _coerce(deadline_s, float, "'deadline_s'")
        bid = None if body.get("bid") is None else _bid(body)
        try:
            ticket = await self.service.submit(
                request,
                tenant=tenant,
                priority=priority,
                deadline_s=deadline_s,
                bid=bid,
            )
        except AdmissionRejected as err:
            return 429, {
                "error": str(err),
                "failure": dataclasses.asdict(err.record),
            }
        if mode == "async":
            return self._submit_async(ticket, request, tenant)
        try:
            result = await self.service.result(ticket)
        except AdmissionRejected as err:  # soft deadline expired in queue
            return 429, {
                "error": str(err),
                "failure": dataclasses.asdict(err.record),
                "ticket": ticket.id,
            }
        except asyncio.CancelledError:
            if ticket.future.cancelled():  # cancelled server-side
                return 200, {"ticket": ticket.id, "tenant": tenant,
                             "cancelled": True}
            raise  # the handler itself was cancelled — propagate
        payload = _result_payload(request, result)
        payload["ticket"] = ticket.id
        payload["tenant"] = tenant
        return 200, payload

    # ------------------------------------------------------------------
    # async-submit tickets
    # ------------------------------------------------------------------

    def _submit_async(self, ticket, request, tenant: str) -> tuple[int, dict]:
        """Detach an admitted ticket: record it as pending, resolve it
        in a background task, and release the connection with a 202."""
        self._async[ticket.id] = {
            "ticket": ticket.id, "tenant": tenant, "status": "pending",
        }
        task = asyncio.get_running_loop().create_task(
            self._await_result(ticket, request, tenant)
        )
        self._async_tasks.add(task)
        task.add_done_callback(self._async_tasks.discard)
        return 202, {
            "ticket": ticket.id,
            "tenant": tenant,
            "status": "pending",
            "poll": f"/v1/result/{ticket.id}",
        }

    async def _await_result(self, ticket, request, tenant: str) -> None:
        try:
            result = await self.service.result(ticket)
        except AdmissionRejected as err:  # soft deadline expired in queue
            record = {
                "status": "failed",
                "error": str(err),
                "failure": dataclasses.asdict(err.record),
            }
        except asyncio.CancelledError:
            if not ticket.future.cancelled():
                raise  # this task was cancelled, not the ticket
            record = {"status": "cancelled"}
        except Exception as err:  # noqa: BLE001 — relayed to the poller
            record = {
                "status": "failed",
                "error": f"{type(err).__name__}: {err}",
            }
        else:
            record = {"status": "done", **_result_payload(request, result)}
        record["ticket"] = ticket.id
        record["tenant"] = tenant
        self._async[ticket.id] = record
        self._async.move_to_end(ticket.id)
        self._evict_async()

    def _evict_async(self) -> None:
        finished = [
            tid for tid, rec in self._async.items()
            if rec["status"] != "pending"
        ]
        excess = len(finished) - MAX_ASYNC_RESULTS
        if excess > 0:
            for tid in finished[:excess]:
                del self._async[tid]

    def _poll(self, ticket_text: str) -> tuple[int, dict]:
        try:
            ticket_id = int(ticket_text)
        except ValueError:
            raise _bad(
                f"bad ticket id {ticket_text!r}: expected an integer"
            ) from None
        record = self._async.get(ticket_id)
        if record is None:
            return 404, {
                "error": f"no async ticket #{ticket_id} (unknown,"
                         f" submitted without mode=async, or evicted)"
            }
        return 200, record
