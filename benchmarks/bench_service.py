"""Allocation-service benchmark: sustained throughput + queue latency.

The service subsystem's perf artefact: three tenants (one carrying a
fair-share weight of 2) push a mixed-size batch of solve requests
through the in-process :class:`~repro.service.ServiceClient`; the
bench records sustained request throughput and the queue-wait /
service-time percentiles the broker's metrics expose.  Running the
script (``python benchmarks/bench_service.py``) records them in the
machine-readable ``BENCH_service.json`` at the repository root; the
pytest entry point only asserts and writes its text artefact, so a
test run never rewrites the committed record.

Like every ≥4-core-gated record in this repo, the artefact embeds
``os.cpu_count()`` and the executor backend name so the numbers are
interpretable without knowing which machine produced them (this
container's CPU count explains a ~1× process-pool "speedup" exactly
the way BENCH_dynamic.json's does).

Correctness rides along: every service result must be bit-identical
(fingerprint including the effective seed) to calling
:func:`repro.api.solve` directly, and the run must finish with zero
rejections — the quotas are sized for the offered load.
"""

from __future__ import annotations

import asyncio
import json
import os
import pathlib
import time

from repro.api import InstanceSpec, SolveRequest, solve
from repro.api.wire import request_to_wire
from repro.service import (
    AllocationService,
    HttpShard,
    LocalShard,
    ServiceClient,
    ServiceHTTPServer,
    ShardRouter,
    TenantConfig,
)

from conftest import SEED, write_artefact

BENCH_JSON = (
    pathlib.Path(__file__).resolve().parent.parent / "BENCH_service.json"
)

#: Requests per tenant (3 tenants → 3× this in total).
REQUESTS_PER_TENANT = 15
#: Concurrent requests in execution.
MAX_IN_FLIGHT = 4

#: Timed passes per setting of the global-admission row (each setting
#: keeps its fastest pass).
ADMISSION_PASSES = 15
#: Largest routed-submit time with the global queue bound on, over the
#: same submits with it off: below the bound a submit costs no extra
#: shard round trip.  Fires on every core count.
ADMISSION_RATIO_GATE = 1.15

TENANTS = (
    TenantConfig("gold", weight=2),
    TenantConfig("silver", weight=1),
    TenantConfig("bronze", weight=1),
)


def _fingerprint(sr):
    if not sr.ok:
        return ("failed", sr.failures, sr.seed)
    alloc = sr.result.allocation
    return (
        sr.result.cost,
        sr.result.heuristic,
        tuple(sorted(alloc.assignment.items())),
        tuple(sorted((u, k, s) for (u, k), s in alloc.downloads.items())),
        sr.seed,
    )


def _requests() -> list[tuple[str, SolveRequest]]:
    out = []
    for t_index, tenant in enumerate(TENANTS):
        for i in range(REQUESTS_PER_TENANT):
            seed = SEED + 97 * t_index + i
            out.append(
                (
                    tenant.name,
                    SolveRequest(
                        spec=InstanceSpec(
                            n_operators=8 + (i % 3) * 4,
                            alpha=1.2,
                            seed=seed,
                        ),
                        seed=seed,
                        label=f"{tenant.name}-{i}",
                    ),
                )
            )
    return out


def regenerate() -> dict:
    batch = _requests()
    direct = {
        request.label: _fingerprint(solve(request))
        for _, request in batch
    }

    with ServiceClient(
        tenants=TENANTS, max_in_flight=MAX_IN_FLIGHT
    ) as client:
        start = time.perf_counter()
        pending = [
            (request.label,
             client.submit(request, tenant=tenant, priority=i % 3))
            for i, (tenant, request) in enumerate(batch)
        ]
        via_service = {
            label: _fingerprint(handle.result(timeout=600))
            for label, handle in pending
        }
        wall_s = time.perf_counter() - start
        stats = client.stats()
        backend = client.service.executor.name
        jobs = client.service.executor.jobs

    service_block = stats["service"]
    totals = stats["totals"]
    data = {
        "seed": SEED,
        "cpu_count": os.cpu_count(),
        "backend": backend,
        "jobs": jobs,
        "max_in_flight": MAX_IN_FLIGHT,
        "n_tenants": len(TENANTS),
        "n_requests": len(batch),
        "wall_s": round(wall_s, 4),
        "throughput_rps": round(len(batch) / wall_s, 2),
        "queue_wait_s": service_block.get("queue_wait_s"),
        "rejected": totals["rejected"],
        "expired": totals["expired"],
        "bit_identical": via_service == direct,
        "per_tenant": {
            t.name: {
                # each row names the executor backend that served it,
                # so rows stay interpretable when merged across runs
                "backend": backend,
                "completed": stats["tenants"][t.name]["completed"],
                "weight": t.weight,
                "queue_wait_s": stats["tenants"][t.name].get(
                    "queue_wait_s"
                ),
                "service_time_s": stats["tenants"][t.name].get(
                    "service_time_s"
                ),
            }
            for t in TENANTS
        },
    }
    data["sharded"] = regenerate_sharded()
    return data


def _shard_batch() -> list[tuple[str, bytes]]:
    """The sharded rows' offered load, as raw wire bodies (what the
    router actually proxies)."""
    out = []
    for t_index, tenant in enumerate(TENANTS):
        for i in range(REQUESTS_PER_TENANT):
            seed = SEED + 211 * t_index + i
            request = SolveRequest(
                spec=InstanceSpec(
                    n_operators=8 + (i % 3) * 4, alpha=1.2, seed=seed
                ),
                seed=seed,
                label=f"{tenant.name}-shardbench-{i}",
            )
            body = json.dumps(
                {"tenant": tenant.name,
                 "request": request_to_wire(request)},
                sort_keys=True,
            ).encode("utf8")
            out.append((tenant.name, body))
    return out


def _sharded_row(n_shards: int) -> dict:
    """Sustained throughput of the same offered load through a router
    over ``n_shards`` in-process shards, each with its own
    single-worker process pool."""
    batch = _shard_batch()

    async def run() -> tuple[float, dict]:
        shards = [
            LocalShard(
                name=f"shard-{i}", jobs=1,
                max_in_flight=MAX_IN_FLIGHT,
            )
            for i in range(n_shards)
        ]
        router = ShardRouter(shards, tenants=TENANTS)
        await router.start()
        try:
            start = time.perf_counter()
            responses = await asyncio.gather(*(
                router.dispatch("POST", "/v1/submit", body)
                for _, body in batch
            ))
            wall_s = time.perf_counter() - start
            assert all(status == 200 for status, _ in responses), (
                "sharded bench saw a non-200 submit"
            )
            _, stats = await router.dispatch("GET", "/stats", b"")
            return wall_s, stats
        finally:
            await router.aclose()

    wall_s, stats = asyncio.run(run())
    totals = stats["totals"]
    return {
        "n_shards": n_shards,
        "jobs_per_shard": 1,
        "n_requests": len(batch),
        "wall_s": round(wall_s, 4),
        "throughput_rps": round(len(batch) / wall_s, 2),
        "completed": totals["completed"],
        "rejected": totals["rejected"],
    }


def _admission_row() -> dict:
    """Routed-submit time with global admission on (bound 256) and off,
    through a router over two in-process
    :class:`~repro.service.ServiceHTTPServer`s reached as
    :class:`~repro.service.HttpShard`s.  An untimed pass fills the
    shards' result caches, so the timed sync submits are cache hits and
    the router's shard round trips are most of their cost; the two
    settings' passes are interleaved and each keeps its fastest."""
    batch = _shard_batch()
    pins = {t.name: str(i % 2) for i, t in enumerate(TENANTS)}

    async def run() -> "dict[str, float]":
        servers = [
            ServiceHTTPServer(AllocationService(tenants=TENANTS), port=0)
            for _ in range(2)
        ]
        for server in servers:
            await server.start()
        routers = {
            setting: ShardRouter(
                [HttpShard(f"127.0.0.1:{s.port}") for s in servers],
                shard_map=pins, global_queue_depth=depth,
            )
            for setting, depth in (("off", None), ("on", 256))
        }
        for router in routers.values():
            await router.start()

        async def one_pass(router) -> float:
            start = time.perf_counter()
            for _, body in batch:
                status, _ = await router.dispatch("POST", "/v1/submit", body)
                assert status == 200, "admission bench saw a non-200"
            return time.perf_counter() - start

        best = dict.fromkeys(routers, float("inf"))
        try:
            for router in routers.values():
                await one_pass(router)  # fills the caches, opens links
            for i in range(ADMISSION_PASSES):
                order = list(routers) if i % 2 else list(routers)[::-1]
                for setting in order:
                    best[setting] = min(
                        best[setting], await one_pass(routers[setting])
                    )
        finally:
            for router in routers.values():
                await router.aclose()
            for server in servers:
                await server.aclose()
        return best

    best = asyncio.run(run())
    return {
        "n_shards": 2,
        "n_requests": len(batch),
        "passes": ADMISSION_PASSES,
        "off_s": round(best["off"], 5),
        "on_s": round(best["on"], 5),
        "ratio_on_off": round(best["on"] / best["off"], 3),
    }


def regenerate_sharded() -> dict:
    """1-shard vs 2-shard sustained throughput through the router.

    The speedup claim is honest only with real parallel capacity, so
    (like every timing gate in this repo) it is asserted on ≥4 cores
    and recorded everywhere.
    """
    one = _sharded_row(1)
    two = _sharded_row(2)
    return {
        "cpu_count": os.cpu_count(),
        "rows": [one, two],
        "speedup_2_shards": round(one["wall_s"] / two["wall_s"], 3),
        "global_admission": _admission_row(),
    }


def test_service_throughput(benchmark, artefact_dir):
    data = benchmark.pedantic(regenerate, rounds=1, iterations=1)

    queue_wait = data["queue_wait_s"]
    lines = [
        f"allocation service: {data['n_requests']} requests from"
        f" {data['n_tenants']} tenants",
        f"  backend {data['backend']} (jobs {data['jobs']},"
        f" max_in_flight {data['max_in_flight']},"
        f" cpu_count {data['cpu_count']})",
        f"  sustained throughput: {data['throughput_rps']:.2f} req/s"
        f" ({data['wall_s']:.2f}s wall)",
        f"  queue wait: p50 {queue_wait['p50']*1e3:.1f}ms"
        f"  p99 {queue_wait['p99']*1e3:.1f}ms"
        f"  max {queue_wait['max']*1e3:.1f}ms",
        f"  rejected {data['rejected']}, expired {data['expired']},"
        f" bit-identical {data['bit_identical']}",
    ]
    for name, row in data["per_tenant"].items():
        lines.append(
            f"  tenant {name:>7} (weight {row['weight']}):"
            f" {row['completed']} completed"
        )
    sharded = data["sharded"]
    for row in sharded["rows"]:
        lines.append(
            f"  router over {row['n_shards']} shard(s)"
            f" (jobs {row['jobs_per_shard']} each):"
            f" {row['throughput_rps']:.2f} req/s"
            f" ({row['wall_s']:.2f}s wall,"
            f" {row['completed']} completed)"
        )
    lines.append(
        f"  2-shard speedup: {sharded['speedup_2_shards']:.2f}x"
        f" (gated on >=4 cores; cpu_count {sharded['cpu_count']})"
    )
    admission = sharded["global_admission"]
    lines.append(
        f"  global admission on/off over 2 HTTP shards:"
        f" {admission['ratio_on_off']:.3f}x"
        f" ({admission['on_s']*1e3:.1f} vs {admission['off_s']*1e3:.1f} ms"
        f" per {admission['n_requests']} cached sync submits;"
        f" gate <= {ADMISSION_RATIO_GATE})"
    )
    write_artefact(artefact_dir, "service_throughput", "\n".join(lines))

    # -- the headline claims -------------------------------------------
    assert data["bit_identical"], (
        "service results diverged from direct solve() calls"
    )
    assert data["rejected"] == 0 and data["expired"] == 0
    assert data["throughput_rps"] > 0
    for name, row in data["per_tenant"].items():
        assert row["completed"] == REQUESTS_PER_TENANT, (
            f"tenant {name} starved:"
            f" {row['completed']}/{REQUESTS_PER_TENANT}"
        )
    for row in sharded["rows"]:
        assert row["completed"] == row["n_requests"]
        assert row["rejected"] == 0
    assert admission["ratio_on_off"] <= ADMISSION_RATIO_GATE, (
        f"global admission made routed submits"
        f" {admission['ratio_on_off']}x slower"
    )
    if (os.cpu_count() or 1) >= 4:
        # two single-worker shards must beat one on real cores
        assert sharded["speedup_2_shards"] > 1.2, (
            f"2-shard router speedup"
            f" {sharded['speedup_2_shards']}x on"
            f" {os.cpu_count()} cores"
        )
    benchmark.extra_info["data"] = data


def main() -> int:
    data = regenerate()
    BENCH_JSON.write_text(
        json.dumps(data, sort_keys=True, indent=2) + "\n",
        encoding="utf8",
    )
    print(json.dumps(
        {k: v for k, v in data.items() if k != "per_tenant"},
        indent=2, sort_keys=True,
    ))
    if not data["bit_identical"] or data["rejected"]:
        print("FAIL: divergence or rejections in the service run")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
