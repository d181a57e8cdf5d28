#!/usr/bin/env python
"""The observability surface end to end: one traced solve over HTTP.

Every entry point (``solve()``, the service broker, ``repro submit``)
can carry a **trace id**; spans produced while the request travels
admission → queue → executor → solver all share it, and the service
serves the stitched tree back at ``GET /v1/trace/<id>``.  Counters,
gauges, and latency histograms live in the service's own metrics
registry, rendered in Prometheus text form at ``GET /metrics``.

This tour:

1. starts the HTTP front door on a free port (in-process, no CLI);
2. submits one solve with a fresh trace id, exactly like
   ``repro submit`` does;
3. fetches and prints the stitched span tree — what
   ``repro trace <id> --url ...`` renders;
4. scrapes ``/metrics`` and prints the service's own families.

Run:  python examples/telemetry_tour.py
"""

from __future__ import annotations

import asyncio
import threading

from repro.api import InstanceSpec, SolveRequest
from repro.service import AllocationService, HttpServiceClient, ServiceHTTPServer
from repro.telemetry import new_trace_id, render_trace, span_from_dict


def main() -> None:
    # -- 1: the front door on a background event loop ------------------
    loop = asyncio.new_event_loop()
    threading.Thread(target=loop.run_forever, daemon=True).start()
    server = ServiceHTTPServer(AllocationService(), port=0)
    asyncio.run_coroutine_threadsafe(server.start(), loop).result(30)
    client = HttpServiceClient(f"http://127.0.0.1:{server.port}")

    try:
        # -- 2: one traced solve ---------------------------------------
        trace_id = new_trace_id()
        request = SolveRequest(
            spec=InstanceSpec(n_operators=14, alpha=1.4, seed=42),
            seed=42,
            trace_id=trace_id,
        )
        response = client.submit(request, tenant="tour")
        result = response["result"]
        print(
            f"solved: ${result['cost']:,.0f} with {result['heuristic']}"
            f" (trace {result['trace_id']})"
        )

        # -- 3: the stitched span tree ---------------------------------
        spans = [
            span_from_dict(s) for s in client.trace(trace_id)["spans"]
        ]
        print()
        print(render_trace(spans))

        # -- 4: the Prometheus scrape ----------------------------------
        print("\nservice metrics families (from GET /metrics):")
        for line in client.metrics().splitlines():
            if line.startswith("# TYPE repro_service"):
                _, _, name, kind = line.split()
                print(f"  {name} ({kind})")
    finally:
        asyncio.run_coroutine_threadsafe(server.aclose(), loop).result(30)
        loop.call_soon_threadsafe(loop.stop)


if __name__ == "__main__":
    main()
