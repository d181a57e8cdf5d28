"""Clients of the allocation service.

Two of them, sharing request/response vocabulary:

* :class:`ServiceClient` — **in-process**: hosts the
  :class:`~repro.service.broker.AllocationService` on a background
  event-loop thread and exposes a synchronous facade.  This is what
  tests, benchmarks, and embedded callers use — results come back as
  the real typed objects (:class:`~repro.api.requests.SolveResult`,
  :class:`~repro.dynamic.replay.ReplayResult`), not wire dicts, so
  bit-identity with direct :func:`repro.api.solve` calls is assertable
  object-for-object.
* :class:`HttpServiceClient` — **over the network**: a stdlib
  ``http.client`` wrapper over the JSON routes of
  :mod:`repro.service.http`, one keep-alive connection per thread,
  used by ``repro submit`` and the CI smoke check.  Responses are the
  wire-level dicts.

Both raise :class:`~repro.service.broker.AdmissionRejected` (in-process)
or :class:`ServiceError` with the structured failure payload (HTTP)
when admission control says no.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import threading
import time
import urllib.parse
from typing import Any

from ..api.wire import request_to_wire
from .broker import AllocationService, Ticket

__all__ = ["HttpServiceClient", "PendingResult", "ServiceClient",
           "ServiceError"]


class PendingResult:
    """Handle to one in-flight in-process submission."""

    def __init__(self, client: "ServiceClient", ticket: Ticket,
                 future) -> None:
        self._client = client
        self.ticket = ticket
        self._future = future  # concurrent.futures.Future

    @property
    def ticket_id(self) -> int:
        return self.ticket.id

    def done(self) -> bool:
        return self._future.done()

    def result(self, timeout: float | None = None):
        """Block for the outcome.  Raises
        :class:`~repro.service.broker.AdmissionRejected` when the
        request's soft deadline expired in queue, and
        ``concurrent.futures.CancelledError`` when it was cancelled."""
        return self._future.result(timeout)

    def cancel(self) -> bool:
        """Cancel while still queued (lazy; running solves finish)."""
        return self._client._call(
            self._client._cancel_on_loop(self.ticket)
        )


class ServiceClient:
    """Synchronous facade over an event-loop-threaded service.

    Usable as a context manager::

        with ServiceClient(jobs=2) as client:
            result = client.solve(request, tenant="acme")
    """

    def __init__(self, service: AllocationService | None = None,
                 **service_kwargs) -> None:
        if service is not None and service_kwargs:
            raise ValueError(
                "pass either a pre-built service or its kwargs, not both"
            )
        self.service = service or AllocationService(**service_kwargs)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "ServiceClient":
        if self._loop is not None:
            return self
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever,
            name="repro-service",
            daemon=True,
        )
        self._thread.start()
        self._call(self.service.start())
        return self

    def close(self) -> None:
        if self._loop is None:
            return
        self._call(self.service.aclose())
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join()
        self._loop.close()
        self._loop = None
        self._thread = None

    def __enter__(self) -> "ServiceClient":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    def _call(self, coro):
        if self._loop is None:
            coro.close()
            raise RuntimeError(
                "ServiceClient is not started (use it as a context"
                " manager, or call start())"
            )
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result()

    async def _cancel_on_loop(self, ticket: Ticket) -> bool:
        return self.service.cancel(ticket)

    # -- requests -------------------------------------------------------

    def submit(
        self,
        request,
        *,
        tenant: str = "default",
        priority: int = 0,
        deadline_s: float | None = None,
        bid: float | None = None,
    ) -> PendingResult:
        """Admit one request without waiting for it.  Raises
        :class:`~repro.service.broker.AdmissionRejected` immediately
        when a quota refuses it.  ``bid`` offers a price for a queue
        slot during overload (see the broker's preemption rules)."""
        ticket = self._call(
            self.service.submit(
                request, tenant=tenant, priority=priority,
                deadline_s=deadline_s, bid=bid,
            )
        )
        future = asyncio.run_coroutine_threadsafe(
            self.service.result(ticket), self._loop
        )
        return PendingResult(self, ticket, future)

    def solve(self, request, *, tenant: str = "default",
              priority: int = 0, deadline_s: float | None = None,
              bid: float | None = None, timeout: float | None = None):
        """Submit and block for the typed result."""
        return self.submit(
            request, tenant=tenant, priority=priority,
            deadline_s=deadline_s, bid=bid,
        ).result(timeout)

    def stats(self) -> dict:
        return self._call(self._snapshot_on_loop())

    async def _snapshot_on_loop(self) -> dict:
        return self.service.snapshot()


class ServiceError(Exception):
    """A non-200 HTTP response; ``payload`` holds the structured body
    (including the failure record on 429s)."""

    def __init__(self, status: int, payload: dict):
        super().__init__(
            payload.get("error", f"service returned HTTP {status}")
        )
        self.status = status
        self.payload = payload

    @property
    def rejected(self) -> bool:
        return self.status == 429


class HttpServiceClient:
    """Stdlib HTTP client for a remote ``repro serve`` instance.

    Each thread keeps one persistent connection to the service.  A
    request on a reused connection that fails before any status line
    arrives is retried once on a fresh connection (the service closed
    that idle connection, so it never read the request); any other
    failure raises."""

    def __init__(self, url: str = "http://127.0.0.1:8642",
                 timeout: float = 600.0) -> None:
        parsed = urllib.parse.urlsplit(url)
        if parsed.scheme not in ("http", ""):
            raise ValueError(
                f"only http:// service URLs are supported, got {url!r}"
            )
        netloc = parsed.netloc or parsed.path  # tolerate "host:port"
        host, _, port = netloc.partition(":")
        self.host = host or "127.0.0.1"
        self.port = int(port) if port else 8642
        self.timeout = timeout
        self._local = threading.local()

    def close(self) -> None:
        """Close the calling thread's connection (a later request
        opens a new one)."""
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            conn.close()

    def _request(self, method: str, path: str,
                 payload: "dict | None" = None) -> "dict | str":
        """One round trip: the decoded JSON body, or the text of a
        ``text/plain`` one (``/metrics``)."""
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._local.conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        body = None
        headers = {}
        if payload is not None:
            body = json.dumps(payload).encode("utf8")
            headers["Content-Type"] = "application/json"
        try:
            while True:
                reused = conn.sock is not None
                try:
                    conn.request(method, path, body=body, headers=headers)
                    response = conn.getresponse()
                    break
                except ConnectionError:
                    conn.close()
                    if not reused:
                        raise
            raw = response.read()
        except BaseException:
            conn.close()
            raise
        content_type = response.getheader("Content-Type") or ""
        if response.status == 200 and content_type.startswith("text/plain"):
            return raw.decode("utf8")
        try:
            data = json.loads(raw) if raw else {}
        except json.JSONDecodeError:
            data = {"error": raw.decode("utf8", "replace")}
        if response.status not in (200, 202):
            raise ServiceError(response.status, data)
        return data

    def health(self) -> dict:
        return self._request("GET", "/healthz")

    def stats(self) -> dict:
        return self._request("GET", "/stats")

    def metrics(self) -> str:
        """``GET /metrics`` — the raw Prometheus text exposition (the
        one route that is not JSON)."""
        return self._request("GET", "/metrics")

    def trace(self, trace_id: str) -> dict:
        """``GET /v1/trace/<id>`` — ``{"trace_id", "spans": [...]}``.
        Raises :class:`ServiceError` (404) for unknown trace ids."""
        return self._request(
            "GET", f"/v1/trace/{urllib.parse.quote(str(trace_id))}"
        )

    def register_tenant(self, name: str, **config: Any) -> dict:
        return self._request(
            "POST", "/v1/tenants", {"name": name, **config}
        )

    def cancel(self, ticket: int) -> bool:
        return bool(
            self._request("POST", "/v1/cancel", {"ticket": ticket})
            .get("cancelled", False)
        )

    def _submit_payload(
        self,
        request,
        tenant: str,
        priority: int,
        deadline_s: float | None,
        bid: float | None,
    ) -> dict:
        payload: dict = {
            "tenant": tenant,
            "priority": priority,
            "request": request_to_wire(request),
        }
        if deadline_s is not None:
            payload["deadline_s"] = deadline_s
        if bid is not None:
            payload["bid"] = bid
        return payload

    def submit(
        self,
        request,
        *,
        tenant: str = "default",
        priority: int = 0,
        deadline_s: float | None = None,
        bid: float | None = None,
    ) -> dict:
        """Submit a typed request; blocks until the service answers.
        Returns the wire-level response dict (``{"kind", "ticket",
        "result": {...}}``)."""
        return self._request(
            "POST", "/v1/submit",
            self._submit_payload(request, tenant, priority, deadline_s,
                                 bid),
        )

    def submit_async(
        self,
        request,
        *,
        tenant: str = "default",
        priority: int = 0,
        deadline_s: float | None = None,
        bid: float | None = None,
    ) -> dict:
        """Submit without holding the connection: returns the 202
        ticket dict (``{"ticket", "status": "pending", "poll"}``)
        immediately.  Poll with :meth:`result` or block with
        :meth:`wait`."""
        return self._request(
            "POST", "/v1/submit?mode=async",
            self._submit_payload(request, tenant, priority, deadline_s,
                                 bid),
        )

    def result(self, ticket: int) -> dict:
        """One poll of an async ticket: the state dict whose
        ``status`` is ``pending``/``done``/``failed``/``cancelled``.
        Raises :class:`ServiceError` (404) for unknown tickets."""
        return self._request("GET", f"/v1/result/{int(ticket)}")

    def wait(self, ticket: int, *, timeout: float = 600.0,
             poll_s: float = 0.05) -> dict:
        """Poll an async ticket until it leaves ``pending``; returns
        the final state dict.  Raises :class:`TimeoutError` when the
        budget runs out first."""
        deadline = time.monotonic() + timeout
        while True:
            state = self.result(ticket)
            if state.get("status") != "pending":
                return state
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"async ticket #{ticket} still pending after"
                    f" {timeout:g}s"
                )
            time.sleep(poll_s)
