#!/usr/bin/env python3
"""The repository benchmark: four workloads, end to end and per layer.

Run one workload from the repository root::

    python3 perfbench/run.py --workload solve-grid --seed 2009 \\
        --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with the program's
tracing off (``REPRO_TRACE=0`` here and in every server started).
``--trace 1`` is the separate traced run that gives the per-layer
metrics.  The command prints one line per metric with its unit, a
provenance line, and as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Every output is
checked; on a mismatch the command exits with code 1.  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import resource
import signal
import statistics
import subprocess
import sys
import time

from reference import ReferenceClock
from workloads import digest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REFERENCES = HERE / "references.json"

WORKLOADS = ("solve-grid", "replay-churn", "replay-transitions",
             "serve-router")
#: Seed of the in-process workloads' input population (the trace seed of
#: the repository's validated replay traces).
DEFAULT_POPULATION_SEED = 2009
#: Set-up is repeated this many times per run and its median reported.
SETUP_REPS = 3
FLEET_SETUP_REPS = 3
#: In-process timings take each input's median repetition in the run,
#: scaled to a quiet host's speed (see ``reference.py``).  A run makes at
#: least this many passes.
MIN_PASSES = 3
#: Seconds of in-process work between two reference samples.  After a
#: long operation the job runs once per such interval, at most
#: ``REFERENCE_BURST`` times, so a 2 s replay is not scaled by one
#: 9 ms sample.
REFERENCE_EVERY_S = 0.25
REFERENCE_BURST = 5

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "latency_p50_ms": "ms",
    "latency_tail_ms": "ms", "capacity_rps": "1/s", "cost_usd": "usd",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    **{f"{layer}_{kind}": unit
       for layer in ("core.instance_build", "core.placement",
                     "core.refine", "core.server_selection",
                     "core.downgrade", "core.verify", "core.throughput")
       for kind, unit in (("s", "s"), ("calls", "count"))},
    "core.member_ok_ratio": "ratio",
    "dynamic.policy_s": "s", "dynamic.policy_calls": "count",
    "dynamic.reconcile_s": "s", "dynamic.settle_s": "s",
    "dynamic.epochs": "count",
    "simulator.steady_s": "s", "simulator.steady_calls": "count",
    "simulator.events": "count", "simulator.events_per_s": "1/s",
    "simulator.transition_s": "s", "simulator.transition_calls": "count",
    "simulator.warm_hit_ratio": "ratio",
    "service.outside_router_ms": "ms", "service.router_hop_ms": "ms",
    "service.admission_ms": "ms", "service.queue_wait_ms": "ms",
    "service.execute_ms": "ms", "service.executor_hop_ms": "ms",
    "service.solve_ms": "ms", "service.cache_hit_ratio": "ratio",
    "service.rejected": "count",
    "loadgen.late_p99_ms": "ms",
    "bench.other_s": "s", "bench.trace_overhead_ratio": "ratio",
}
#: serve-router tail percentile, taken per open-loop segment (200
#: requests at 80/s, so 20 beyond it).  p90, not p99: on a shared 2-core
#: host the p99 of five runs spread by half its median.
ROUTER_TAIL_PCT = 90
#: serve-router runs its open loop in segments of this length and times
#: the reference job this many times between segments, so its timings
#: can be scaled by the host's speed like the in-process ones.
SEGMENT_S = 2.5
REFERENCE_SAMPLES = 5
#: Requests in one closed-loop segment, per size: a fixed batch, so that
#: the time to complete it is the program's to move.  The closed loop
#: runs one batch per ``CLOSED_SEGMENT_S`` of its share of the run.
CLOSED_BATCH = {"full": 300, "small": 40}
CLOSED_SEGMENT_S = 1.25


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile (``pct >= 100`` is the maximum)."""
    ordered = sorted(values)
    if pct >= 100:
        return ordered[-1]
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def _p50(values) -> float:
    return statistics.median(values) if values else 0.0


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_commit() -> str:
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel"],
            capture_output=True, text=True, timeout=10,
        )
        if (top.returncode == 0
                and pathlib.Path(top.stdout.strip()).resolve() == ROOT):
            head = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10,
            )
            if head.returncode == 0:
                return head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def provenance(extra: dict) -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "commit": git_commit(),
        **extra,
    }


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------

def setup_probe(args) -> None:
    """What a set-up repetition does in a fresh interpreter: import
    the program and make the workload's inputs."""
    if args.workload == "serve-router":
        import repro.service  # noqa: F401 — the import is the work
        from fleet import stream_item

        per_segment, n_open, batch, n_closed = router_plan(args)
        for k in range(per_segment * n_open + batch * n_closed):
            stream_item(args.seed, k)
    else:
        from workloads import IN_PROCESS

        IN_PROCESS[args.workload].make_inputs(
            args.seed, args.size, args.population_seed
        )


def time_setup_probe(args) -> float:
    argv = [sys.executable, str(HERE / "run.py"), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--rate", str(args.rate),
            "--size", args.size,
            "--population-seed", str(args.population_seed)]
    start = time.perf_counter()
    subprocess.run(argv, check=True, stdout=subprocess.DEVNULL, cwd=ROOT,
                   timeout=120)
    return time.perf_counter() - start


def scaled_setups(args, clock) -> tuple[list[float], list[float]]:
    """Raw and scaled times of ``SETUP_REPS`` set-up probes."""
    raw, scaled = [], []
    before = clock.sample_all(2)
    for _ in range(SETUP_REPS):
        raw.append(time_setup_probe(args))
        after = clock.sample_all(2)
        scaled.append(raw[-1] * clock.scale_all(before, after))
        before = after
    return raw, scaled


# ----------------------------------------------------------------------
# in-process workloads
# ----------------------------------------------------------------------

class Pass:
    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.references: list[float] = []
        self.cost = 0.0
        self.errors = 0

    def sample(self, clock, repeat: int = 1) -> None:
        self.references.extend(clock.sample() for _ in range(repeat))

    def scaled(self, clock) -> list[float]:
        """Operation times at the quiet host's speed."""
        scale = clock.scale(self.references)
        return [x * scale for x in self.latencies]


class OutputCheck:
    """Compares each pass with the first as soon as it finishes.

    Only the first pass's digest, its per-operation digests and a
    mismatch count are kept, so the benchmark's memory does not grow
    with the number of passes that fit into a run.
    """

    def __init__(self, workload) -> None:
        self.workload = workload
        self.first_ops: list[str] | None = None
        self.pass_digest = ""
        self.mismatches = 0

    def add_pass(self, fingerprints: list) -> None:
        ops = [digest(f) for f in fingerprints]
        if self.first_ops is None:
            self.first_ops = ops
            self.pass_digest = self.workload.pass_digest(fingerprints)
        else:
            self.mismatches += sum(
                1 for a, b in zip(ops, self.first_ops) if a != b
            )


def run_passes(workload, inputs, seconds: float, min_passes: int, clock,
               check: OutputCheck, log=None,
               first_pass: int = 0) -> list[Pass]:
    """Repeat the inputs for ``seconds``: at least ``min_passes`` times,
    and then only while another pass of the mean length fits."""
    passes: list[Pass] = []
    start = time.perf_counter()
    while (len(passes) < min_passes
           or (time.perf_counter() - start) * (len(passes) + 1)
           / len(passes) <= seconds):
        current = Pass()
        fingerprints: list = []
        current.sample(clock)
        since_reference = 0.0
        for i, request in enumerate(inputs):
            t0 = time.perf_counter()
            try:
                if log is None:
                    result = workload.run_one(request)
                else:
                    with log.span(
                        f"bench.{workload.name}",
                        trace_id=f"{first_pass + len(passes)}-{i}",
                    ) as record:
                        result = workload.run_one(request)
                        record["attributes"].update(
                            workload.span_attributes(request, result)
                        )
            except Exception as err:  # noqa: BLE001 — counted as failed
                current.latencies.append(time.perf_counter() - t0)
                current.errors += 1
                fingerprints.append({"error": repr(err)})
                print(f"error in {workload.name} op {i}: {err!r}",
                      file=sys.stderr)
            else:
                current.latencies.append(time.perf_counter() - t0)
                if not workload.valid(result):
                    current.errors += 1
                fingerprints.append(workload.fingerprint(result))
                current.cost += workload.cost(result)
            since_reference += current.latencies[-1]
            burst = min(REFERENCE_BURST,
                        int(since_reference / REFERENCE_EVERY_S))
            if burst:
                current.sample(clock, burst)
                since_reference = 0.0
        current.sample(clock)
        check.add_pass(fingerprints)
        passes.append(current)
    return passes


def load_references(path: pathlib.Path) -> dict:
    return json.loads(path.read_text()) if path.exists() else {}


def check_passes(check: OutputCheck, passes: list[Pass],
                 args) -> tuple[int, str]:
    """Failed-operation count and a note on what the digest was checked
    against.  Passes must agree with the first op by op, and the first
    must match the recorded digest when one exists for this input."""
    workload = check.workload
    failed = sum(p.errors for p in passes) + check.mismatches
    key = str(args.population_seed)
    got = check.pass_digest
    refs = load_references(args.references)
    if args.record:
        if failed == 0:
            refs.setdefault(workload.name, {}).setdefault(
                args.size, {})[key] = got
            args.references.write_text(
                json.dumps(refs, indent=1, sort_keys=True) + "\n"
            )
        return failed, f"recorded {got[:12]}"
    want = refs.get(workload.name, {}).get(args.size, {}).get(key)
    if want is None:
        return failed, "no recorded digest; passes agree" if not failed \
            else "no recorded digest; passes disagree"
    if got != want:
        print(f"MISMATCH {workload.name}: digest {got} != recorded {want}",
              file=sys.stderr)
        return sum(len(p.latencies) for p in passes), "digest MISMATCH"
    return failed, f"digest matches recorded {want[:12]}"


def in_process_times(workload, n_inputs: int, setups: list[float],
                     per_input: list[float]) -> dict:
    """The time metrics from each input's time in seconds."""
    per_input_ms = [x * 1e3 for x in per_input]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": sum(per_input),
        "latency_p50_ms": percentile(per_input_ms, 50),
        "latency_tail_ms": percentile(per_input_ms, workload.tail_pct),
        "capacity_rps": n_inputs / sum(per_input),
    }


def run_in_process(args, clock) -> tuple[dict, dict]:
    from workloads import IN_PROCESS

    workload = IN_PROCESS[args.workload]
    raw_setups, setups = scaled_setups(args, clock)
    inputs = workload.make_inputs(args.seed, args.size, args.population_seed)
    workload.run_one(inputs[0])  # lazy imports and registries, untimed
    check = OutputCheck(workload)

    if not args.trace:
        passes = run_passes(workload, inputs, args.seconds, MIN_PASSES,
                            clock, check)
        failed, note = check_passes(check, passes, args)

        def per_input(times):
            return [statistics.median(t[i] for t in times)
                    for i in range(len(inputs))]

        metrics = {
            **in_process_times(workload, len(inputs), setups,
                               per_input([p.scaled(clock) for p in passes])),
            "cost_usd": passes[0].cost,
            "peak_rss_mb": own_peak_rss_mb(),
        }
        raw = in_process_times(workload, len(inputs), raw_setups,
                               per_input([p.latencies for p in passes]))
        run = {
            "attempted": len(inputs) * len(passes), "failed": failed,
            "passes": len(passes), "check": note,
            "tail": _tail_note(workload.tail_pct, len(inputs)),
            "unscaled": raw,
        }
        return metrics, run

    from layers import SpanLog, instrumented, layer_totals, load_spans
    from repro.telemetry import set_enabled

    base = run_passes(workload, inputs, args.seconds / 2, MIN_PASSES,
                      clock, check)
    log = SpanLog()
    previous = set_enabled(True)
    try:
        with instrumented(log):
            traced = run_passes(workload, inputs, args.seconds / 2,
                                MIN_PASSES, clock, check, log=log,
                                first_pass=len(base))
    finally:
        set_enabled(previous)
    passes = base + traced
    failed, note = check_passes(check, passes, args)
    path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    log.write(path, workload=args.workload, seed=args.seed)
    totals = layer_totals(load_spans(path))
    metrics = in_process_layers(totals, len(traced), workload.name)
    metrics["bench.trace_overhead_ratio"] = (
        statistics.median(sum(p.scaled(clock)) for p in traced)
        / statistics.median(sum(p.scaled(clock)) for p in base)
    )
    kernels = sorted({
        kernel for entry in totals.values()
        for kernel in entry.get("kernel", ())
    })
    run = {
        "attempted": sum(len(p.latencies) for p in passes),
        "failed": failed, "passes": len(passes), "check": note,
        "spans": str(path.relative_to(ROOT)), "flow_kernel": kernels,
    }
    return metrics, run


def _tail_note(pct: float, n: int) -> str:
    if pct >= 100:
        return f"max of {n} samples"
    index = max(0, math.ceil(pct / 100 * n) - 1)
    return f"p{pct:g} of {n} samples ({n - 1 - index} beyond)"


def in_process_layers(totals: dict, n_passes: int, workload: str) -> dict:
    """Per-layer metrics of an in-process run, per pass."""
    def entry(name):
        return totals.get(name, {"self_s": 0.0, "calls": 0})

    metrics = {name: 0.0 for name in PER_LAYER}
    for name in ("core.instance_build", "core.placement", "core.refine",
                 "core.server_selection", "core.downgrade", "core.verify",
                 "core.throughput", "dynamic.policy",
                 "simulator.steady", "simulator.transition"):
        metrics[f"{name}_s"] = entry(name)["self_s"] / n_passes
        metrics[f"{name}_calls"] = entry(name)["calls"] / n_passes
    for name in ("dynamic.reconcile", "dynamic.settle"):
        metrics[f"{name}_s"] = entry(name)["self_s"] / n_passes
    root = entry(f"bench.{workload}")
    metrics["bench.other_s"] = root["self_s"] / n_passes
    members = root.get("members", 0)
    metrics["core.member_ok_ratio"] = (
        root.get("ok_members", 0) / members if members else 0.0
    )
    metrics["dynamic.epochs"] = root.get("epochs", 0) / n_passes
    sims = [entry("simulator.steady"), entry("simulator.transition")]
    events = sum(s.get("n_events", 0) for s in sims)
    sim_s = sum(s["self_s"] for s in sims)
    hits = sum(s.get("warm_hits", 0) for s in sims)
    fills = hits + sum(s.get("warm_fallbacks", 0) for s in sims)
    metrics["simulator.events"] = events / n_passes
    metrics["simulator.events_per_s"] = events / sim_s if sim_s else 0.0
    metrics["simulator.warm_hit_ratio"] = hits / fills if fills else 0.0
    return metrics


# ----------------------------------------------------------------------
# serve-router
# ----------------------------------------------------------------------

#: Parent of each service span in one request's trace: the service
#: records them in three processes, and each process roots its own.
SERVICE_PARENT = {
    "router.route": "client.submit",
    "service.admission": "router.route",
    "service.queue": "router.route",
    "service.execute": "router.route",
    "api.solve": "service.execute",
}


def check_outcomes(outcomes, seed: int) -> int:
    """Failed requests: non-2xx, transport errors, and responses that
    differ from a direct ``solve()`` of the same request."""
    from fleet import references

    want = references(seed, [o.key for o in outcomes if o.status == 200])
    failed = 0
    for o in outcomes:
        if o.status != 200 or o.result != want[o.key]:
            failed += 1
            print(f"request {o.k} failed: HTTP {o.status}", file=sys.stderr)
    return failed


def in_segments(run_segment, n_segments: int,
                clock) -> list[tuple[list, float]]:
    """Run ``n_segments`` load segments with the load paused between
    them to time the reference job on every CPU (the servers and clients
    use them all); each segment's outcomes come with the host scale of
    the reference times just before and after it."""
    before = clock.sample_all(REFERENCE_SAMPLES)
    segments = []
    for index in range(n_segments):
        outcomes = run_segment(index)
        after = clock.sample_all(REFERENCE_SAMPLES)
        segments.append((outcomes, clock.scale_all(before, after)))
        before = after
    return segments


def start_fleet(args, traced: bool):
    from fleet import Fleet, warm_up

    fleet = Fleet(ROOT, traced=traced, log_dir=OUT / "logs")
    try:
        fleet.start()
        warm_up(fleet.url)
    except BaseException:
        fleet.stop()
        raise
    return fleet


def stats_provenance(stats: dict) -> dict:
    service = stats.get("service", {})
    return {
        "topology": {
            "front": service.get("backend"),
            "shards": service.get("shards"),
            "shard_backends": sorted(
                (entry.get("service") or {}).get("backend", "?")
                for entry in (stats.get("shards") or {}).values()
            ),
        }
    }


def router_plan(args) -> tuple[int, int, int, int]:
    """Open-loop requests per segment and segments, then closed-loop
    requests per batch and batches: 60 % and 40 % of the run."""
    per_segment = round(args.rate * SEGMENT_S)
    n_open = max(1, round(0.6 * args.seconds / SEGMENT_S))
    n_closed = max(2, round(0.4 * args.seconds / CLOSED_SEGMENT_S))
    return per_segment, n_open, CLOSED_BATCH[args.size], n_closed


def router_times(phase1, phase2, setups, scaled: bool) -> dict:
    """The time metrics of serve-router, each the median over segments
    (one slow spell of the host moves one segment, not the metric):
    phase 1's open-loop latency percentiles, and the time to complete
    one of phase 2's fixed closed-loop batches, times the number of
    batches, and their completion rate.  Each segment is scaled by its
    host scale."""
    def factor(scale):
        return scale if scaled else 1.0

    latencies_ms = [[(o.done - o.due) * 1e3 * factor(scale)
                     for o in outcomes] for outcomes, scale in phase1]
    batches = [((max(o.done for o in outcomes)
                 - min(o.sent for o in outcomes)) * factor(scale),
                sum(1 for o in outcomes if o.status == 200))
               for outcomes, scale in phase2]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": len(batches) * statistics.median(
            seconds for seconds, _ in batches
        ),
        "latency_p50_ms": statistics.median(
            percentile(segment, 50) for segment in latencies_ms
        ),
        "latency_tail_ms": statistics.median(
            percentile(segment, ROUTER_TAIL_PCT) for segment in latencies_ms
        ),
        "capacity_rps": statistics.median(
            done / seconds for seconds, done in batches
        ),
    }


def run_serve_router(args, clock) -> tuple[dict, dict]:
    from fleet import Fleet, closed_loop, open_loop, warm_up
    from repro.service import HttpServiceClient

    if not args.trace:
        raw_setups, setups = [], []
        fleet = None
        try:
            before = clock.sample_all(2)
            for _ in range(FLEET_SETUP_REPS):
                if fleet is not None:
                    fleet.stop()
                start = time.perf_counter()
                time_setup_probe(args)
                fleet = Fleet(ROOT, traced=False, log_dir=OUT / "logs")
                fleet.start()
                raw_setups.append(time.perf_counter() - start)
                after = clock.sample_all(2)
                setups.append(raw_setups[-1] * clock.scale_all(before, after))
                before = after
            warm_up(fleet.url)
            per_segment, n_open, batch, n_closed = router_plan(args)
            count = n_open * per_segment
            phase1 = in_segments(
                lambda i: open_loop(fleet.url, args.seed, i * per_segment,
                                    per_segment, args.rate),
                n_open, clock,
            )
            phase2 = in_segments(
                lambda i: closed_loop(fleet.url, args.seed,
                                      count + i * batch, count=batch),
                n_closed, clock,
            )
            stats = HttpServiceClient(fleet.url).stats()
            rss = own_peak_rss_mb() + fleet.peak_rss_mb()
        finally:
            if fleet is not None:
                fleet.stop()
        opened = [o for outcomes, _ in phase1 for o in outcomes]
        closed = [o for outcomes, _ in phase2 for o in outcomes]
        metrics = {
            **router_times(phase1, phase2, setups, scaled=True),
            "cost_usd": sum(
                o.result["cost"] for o in opened
                if o.status == 200 and o.result["ok"]
            ),
            "peak_rss_mb": rss,
        }
        run = {
            "attempted": len(opened) + len(closed),
            "failed": check_outcomes(opened + closed, args.seed),
            "open_loop": f"{count} requests at {args.rate:g}/s",
            "closed_loop": f"{len(phase2)} batches of {batch} requests"
                           f" from 2 clients",
            "tail": _tail_note(ROUTER_TAIL_PCT, per_segment)
                    + f" per segment, median over {n_open} segments",
            "unscaled": router_times(phase1, phase2, raw_setups,
                                     scaled=False),
            **stats_provenance(stats),
        }
        return metrics, run

    from layers import SpanLog, load_spans, self_times

    quarter = args.seconds / 4
    fleet = start_fleet(args, traced=False)
    try:
        count = max(50, round(args.rate * quarter))
        phase1 = open_loop(fleet.url, args.seed, 0, count, args.rate)
        base = closed_loop(fleet.url, args.seed, count, seconds=quarter)
    finally:
        fleet.stop()
    fleet = start_fleet(args, traced=True)
    try:
        traced = closed_loop(
            fleet.url, args.seed, count + len(base), seconds=2 * quarter,
            traced=True,
        )
        stats = HttpServiceClient(fleet.url).stats()
    finally:
        fleet.stop()

    log = SpanLog()
    for o in traced:
        if o.status == 200:
            ingest_trace(log, o)
    path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    log.write(path, workload=args.workload, seed=args.seed)
    spans = load_spans(path)
    selfs = self_times(spans)
    by_name: dict = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(
            ((s["end"] - s["start"]) * 1e3, selfs[s["span_id"]] * 1e3)
        )

    def p50(name, which):
        return _p50([pair[which] for pair in by_name.get(name, ())])

    cache = stats["service"]["cache"]
    lookups = cache["hits"] + cache["misses"]
    metrics = {name: 0.0 for name in PER_LAYER}
    metrics.update({
        "service.outside_router_ms": p50("client.submit", 1),
        "service.router_hop_ms": p50("router.route", 1),
        "service.admission_ms": p50("service.admission", 0),
        "service.queue_wait_ms": p50("service.queue", 0),
        "service.execute_ms": p50("service.execute", 0),
        "service.executor_hop_ms": p50("service.execute", 1),
        "service.solve_ms": p50("api.solve", 0),
        "service.cache_hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "service.rejected": stats["totals"]["rejected"],
        "loadgen.late_p99_ms": percentile(
            [(o.sent - o.due) * 1e3 for o in phase1], 99
        ),
        "bench.trace_overhead_ratio": (
            _p50([o.done - o.sent for o in traced])
            / _p50([o.done - o.sent for o in base])
        ),
    })
    outcomes = phase1 + base + traced
    run = {
        "attempted": len(outcomes),
        "failed": check_outcomes(outcomes, args.seed),
        "traced_requests": len(traced),
        "spans": str(path.relative_to(ROOT)),
        **stats_provenance(stats),
    }
    return metrics, run


def ingest_trace(log, outcome) -> None:
    """Add one traced request to ``log``: the client's span plus the
    service's spans, each linked to its parent."""
    client = log.add("client.submit", outcome.trace_id,
                     outcome.wall_start, outcome.wall_end)
    ids = {"client.submit": client["span_id"]}
    fetched = {s.get("span_id") for s in outcome.spans}
    order = list(SERVICE_PARENT)
    for s in sorted(outcome.spans, key=lambda s: (
            order.index(s["name"]) if s["name"] in order else len(order))):
        parent = s.get("parent_id")
        if parent not in fetched:
            parent = ids.get(SERVICE_PARENT.get(s["name"], ""))
        record = log.add(
            s["name"], outcome.trace_id, s["start"],
            s["start"] + s["duration_s"], span_id=s.get("span_id"),
            parent_id=parent,
        )
        ids.setdefault(s["name"], record["span_id"])


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def run_all(args) -> int:
    """Run every workload in its own interpreter, in turn; the last line
    combines their results, metric names prefixed by the workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rest = ["--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--rate", str(args.rate),
            "--population-seed", str(args.population_seed),
            "--size", args.size,
            "--references", str(args.references)]
    for workload in WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             *rest], capture_output=True, text=True, cwd=ROOT,
        )
        sys.stderr.write(child.stderr)
        lines = child.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 0, "failed": 0,
                      "metrics": {}}
        combined["correct"] &= result["correct"] and child.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, value in result["metrics"].items():
            combined["metrics"][f"{workload}:{name}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=2009,
                        help="workload seed: the inputs are made from it")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="how long one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run (per-layer metrics)")
    parser.add_argument("--rate", type=float, default=80.0,
                        help="serve-router open-loop rate, requests/s")
    parser.add_argument("--population-seed", type=int,
                        default=DEFAULT_POPULATION_SEED,
                        help="seed of the in-process workloads' instances"
                             " and traces (the workload seed orders them)")
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="small: the reduced inputs of the smoke test")
    parser.add_argument("--references", type=pathlib.Path,
                        default=REFERENCES,
                        help="recorded output digests (JSON)")
    parser.add_argument("--record", action="store_true",
                        help="record this run's output digest as the"
                             " reference for its input")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    # a terminated run still stops the servers it started (finally blocks)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    # read by the telemetry module at import, and inherited by children
    os.environ["REPRO_TRACE"] = "0"
    os.environ["PYTHONPATH"] = str(ROOT / "src")
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_probe:
        setup_probe(args)
        return 0
    if args.workload == "all":
        return run_all(args)

    from workloads import IN_PROCESS

    kind = (IN_PROCESS[args.workload].reference
            if args.workload in IN_PROCESS else "python")
    with ReferenceClock(kind) as clock:
        if args.workload == "serve-router":
            metrics, run = run_serve_router(args, clock)
        else:
            metrics, run = run_in_process(args, clock)
        if clock.samples:
            run["reference_ms_median"] = (
                statistics.median(clock.samples) * 1e3
            )
    units = PER_LAYER if args.trace else END_TO_END
    correct = run["failed"] == 0 and run["attempted"] > 0
    print(f"perfbench {args.workload} seed={args.seed}"
          f" trace={args.trace} seconds={args.seconds:g}")
    for name, value in metrics.items():
        print(f"  {name:<32} {value:>14.6g} {units[name]}")
    print(f"  failed_ratio {run['failed']}/{run['attempted']}"
          f" = {run['failed'] / max(1, run['attempted']):.4f}")
    print("provenance " + json.dumps(provenance({
        "workload": args.workload, "seed": args.seed,
        "population_seed": args.population_seed, "size": args.size, **run,
    }), sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    raise SystemExit(main())
