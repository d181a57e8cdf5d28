"""Command-line interface: ``repro-streams`` / ``python -m repro``.

Subcommands
-----------
``table1``
    Print the purchase catalog (paper Table 1) with cost ratios.
``solve``
    Allocate one random methodology instance with chosen heuristics and
    print the resulting platforms.
``figure <id>``
    Re-run a §5 figure campaign (fig2a, fig2b, fig3, fig3_n20,
    large_objects, rate_sweep) and print the table + ranking summary;
    ``--csv PATH`` exports machine-readable data.
``optimal``
    The heuristics-vs-exact-optimum comparison (homogeneous, small N).
``lowfreq``
    High- vs low-frequency mapping comparison.
``ilpsize``
    ILP model growth statistics.
``simulate``
    Allocate then validate in the discrete-event simulator.
``dynamic``
    Replay a changing workload trace (ρ ramps, diurnal cycles, object
    frequency shifts, server churn, application arrival/departure)
    under one or more online re-allocation policies (static / resolve /
    harvest / trade), pricing every reconfiguration.  Migration
    pricing is selectable (``--migration-model state-size`` charges by
    displaced operator state instead of a flat fee) and
    ``--transitions`` simulates each reallocation's drain +
    state-transfer traffic, reporting the mid-transition SLA dip.
``serve``
    Run the standing multi-tenant allocation service: JSON-over-HTTP
    front door with per-tenant quotas, priorities, and fair-share
    scheduling (see :mod:`repro.service`).
``submit``
    Submit one solve request to a running ``serve`` instance (or print
    its ``/stats`` with ``--stats``).
``worker``
    Join a distributed solve fleet: connect to a coordinator
    (``repro worker --connect HOST:PORT``), pull tasks, heartbeat, and
    stream results back (see :mod:`repro.distributed`).  SIGTERM
    drains gracefully — in-flight work finishes before the worker
    deregisters.
``trace``
    Render one request's stitched span tree (``repro trace <id>``)
    from a running service's ``/v1/trace/<id>`` route, or from a JSON
    span dump with ``--file`` (see :mod:`repro.telemetry`).

The global ``--log-level`` flag (or the ``REPRO_LOG`` environment
variable, which spawned workers inherit) turns on structured stderr
logging for the whole ``repro`` logger tree; the default is silent.

``solve``, ``figure``, ``dynamic``, and ``serve`` accept ``--jobs N``
to fan their independent work items (heuristics, campaign grid cells,
policies) out over ``N`` worker processes via :mod:`repro.api`, or
``--jobs remote:HOST:PORT`` to bind a coordinator on that address and
fan out over ``repro worker`` processes instead; results are
bit-identical to the serial run either way.

Invoked with no subcommand, prints usage and exits 0.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__

__all__ = ["main", "build_parser"]


def _jobs_arg(value: str) -> "int | str":
    """``--jobs`` parser: a worker count, or ``remote:HOST:PORT``."""
    try:
        return int(value)
    except ValueError:
        pass
    if value.startswith("remote:"):
        return value
    raise argparse.ArgumentTypeError(
        f"expected a worker count or remote:HOST:PORT, got {value!r}"
    )

_JOBS_HELP_SUFFIX = ", or remote:HOST:PORT to coordinate repro workers"


def _open_executor(jobs: "int | str"):
    """Materialise a ``--jobs`` value.  For remote specs, announce the
    coordinator address and block until a worker joins (the campaign
    cannot start without one)."""
    from .api.executors import get_executor

    executor = get_executor(jobs)
    if isinstance(jobs, str):
        print(
            f"coordinator listening on {executor.address} — waiting for"
            f" workers (start some with:"
            f" repro worker --connect {executor.address})",
            flush=True,
        )
        executor.wait_for_workers(1)
        print(f"{executor.jobs} worker(s) connected", flush=True)
    return executor


def _close_executor(executor) -> None:
    close = getattr(executor, "close", None)
    if close is not None:
        close()


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro-streams",
        description=(
            "Reproduction of 'Resource Allocation Strategies for"
            " Constructive In-Network Stream Processing' (IPDPS 2009)"
        ),
    )
    p.add_argument("--version", action="version", version=__version__)
    p.add_argument(
        "--log-level", default=None, metavar="LEVEL",
        help="enable stderr logging for the repro logger tree (DEBUG,"
             " INFO, WARNING, ERROR; default: the REPRO_LOG environment"
             " variable, or silent)",
    )
    sub = p.add_subparsers(dest="command", required=False)

    sub.add_parser("table1", help="print the purchase catalog (Table 1)")

    ps = sub.add_parser("solve", help="allocate one random instance")
    ps.add_argument("-n", "--operators", type=int, default=30)
    ps.add_argument("-a", "--alpha", type=float, default=1.5)
    ps.add_argument("-s", "--seed", type=int, default=2009)
    ps.add_argument(
        "-H", "--heuristic", action="append", default=None,
        help="heuristic name (repeatable; default: all six)",
    )
    ps.add_argument("--describe", action="store_true",
                    help="print the full allocation, not just the cost")
    ps.add_argument("-j", "--jobs", type=_jobs_arg, default=1,
                    help="worker processes (heuristics run in parallel)"
                         + _JOBS_HELP_SUFFIX)

    pf = sub.add_parser("figure", help="re-run a §5 figure campaign")
    pf.add_argument("figure_id", choices=sorted(
        ("fig2a", "fig2b", "fig3", "fig3_n20", "large_objects",
         "rate_sweep", "replication_sweep")
    ))
    pf.add_argument("-i", "--instances", type=int, default=5)
    pf.add_argument("-s", "--seed", type=int, default=2009)
    pf.add_argument("--csv", type=str, default=None,
                    help="also write CSV to this path")
    pf.add_argument("-j", "--jobs", type=_jobs_arg, default=1,
                    help="worker processes for the campaign grid"
                         + _JOBS_HELP_SUFFIX)

    po = sub.add_parser("optimal", help="heuristics vs exact optimum")
    po.add_argument("-n", "--operators", type=int, default=12)
    po.add_argument("-i", "--instances", type=int, default=5)
    po.add_argument("-a", "--alpha", type=float, default=1.8)
    po.add_argument("-s", "--seed", type=int, default=2009)

    pl = sub.add_parser("lowfreq", help="high- vs low-frequency mappings")
    pl.add_argument("-n", "--operators", type=int, default=60)
    pl.add_argument("-i", "--instances", type=int, default=5)
    pl.add_argument("-s", "--seed", type=int, default=2009)

    pi = sub.add_parser("ilpsize", help="ILP model growth statistics")
    pi.add_argument("-n", "--sizes", type=int, nargs="+",
                    default=[5, 10, 20, 30])

    pm = sub.add_parser("simulate",
                        help="allocate, then validate in the simulator")
    pm.add_argument("-n", "--operators", type=int, default=30)
    pm.add_argument("-a", "--alpha", type=float, default=1.6)
    pm.add_argument("-s", "--seed", type=int, default=2009)
    pm.add_argument("-H", "--heuristic", default="subtree-bottom-up")
    pm.add_argument("-r", "--results", type=int, default=50)

    pe = sub.add_parser(
        "exact", help="solve one instance to proven optimality (small N)"
    )
    pe.add_argument("-n", "--operators", type=int, default=10)
    pe.add_argument("-a", "--alpha", type=float, default=1.7)
    pe.add_argument("-s", "--seed", type=int, default=2009)
    pe.add_argument("--homogeneous", action="store_true")
    pe.add_argument("--node-budget", type=int, default=2_000_000)

    pb = sub.add_parser(
        "bounds", help="print the polynomial cost lower bound"
    )
    pb.add_argument("-n", "--operators", type=int, default=30)
    pb.add_argument("-a", "--alpha", type=float, default=1.6)
    pb.add_argument("-s", "--seed", type=int, default=2009)

    from .dynamic.policies import POLICY_ORDER
    from .dynamic.traces import TRACE_ORDER

    pd = sub.add_parser(
        "dynamic",
        help="replay a workload trace under re-allocation policies",
    )
    pd.add_argument("--trace", choices=TRACE_ORDER, default="ramp")
    pd.add_argument(
        "-P", "--policy", action="append",
        choices=POLICY_ORDER + ("market",),
        default=None,
        help="policy name (repeatable; default: all four)",
    )
    pd.add_argument("-s", "--seed", type=int, default=2009)
    pd.add_argument("-j", "--jobs", type=_jobs_arg, default=1,
                    help="worker processes (policies replay in parallel)"
                         + _JOBS_HELP_SUFFIX)
    pd.add_argument("--validate", action="store_true",
                    help="validate every epoch in the simulator")
    pd.add_argument("--no-warmup", action="store_true",
                    help="validate with the legacy fixed measurement"
                         " window instead of the warm-up-aware one")
    pd.add_argument("--sim-kernel", default="warm",
                    choices=("warm", "naive"),
                    help="max-min flow kernel for validated epochs"
                         " (bit-identical; default warm, the fast one;"
                         " naive is the reference oracle)")
    pd.add_argument("--migration-model",
                    choices=("flat", "state-size"), default="flat",
                    help="migration pricing: flat $/operator (default)"
                         " or state-size $/MB of subtree leaf mass")
    pd.add_argument("--migration-cost-per-mb", type=float, default=None,
                    metavar="USD",
                    help="$ per MB of displaced state (state-size model)")
    pd.add_argument("--transitions", action="store_true",
                    help="simulate each reallocation transition (drain +"
                         " state-transfer flows) and report the SLA dip")
    pd.add_argument("--budget", action="append", default=None,
                    metavar="APP=USD",
                    help="per-application budget for the market policy"
                         " (repeatable, e.g. --budget app0=50000)")
    pd.add_argument("--pricing", default=None,
                    choices=("proportional", "fixed"),
                    help="auction mechanism for contended machines"
                         " (market policy; default proportional)")
    pd.add_argument("--table", action="store_true",
                    help="print the per-epoch table per policy")
    pd.add_argument("--json", type=str, default=None,
                    help="write the replay results as JSON to this path")

    pv = sub.add_parser(
        "serve",
        help="run the multi-tenant allocation service (HTTP front door)",
    )
    pv.add_argument("--host", default="127.0.0.1")
    pv.add_argument("--port", type=int, default=8642,
                    help="TCP port (0 picks a free one)")
    pv.add_argument("-j", "--jobs", type=_jobs_arg, default=1,
                    help="executor backend: 1 = serial, N = process pool"
                         + _JOBS_HELP_SUFFIX)
    pv.add_argument("--max-in-flight", type=int, default=None,
                    help="concurrent requests in execution"
                         " (default: --jobs)")
    pv.add_argument("--queue-depth", type=int, default=256,
                    help="global queued-request bound")
    pv.add_argument(
        "--tenant", action="append", default=None, metavar="SPEC",
        help="register a tenant: NAME[,weight=W,rate=R,burst=B,"
             "max_in_flight=M,max_queued=Q,tier=gold|silver|standard|"
             "bronze,budget=USD,refill=USD/s,price=USD] (repeatable)",
    )
    pv.add_argument("--no-auto-register", action="store_true",
                    help="reject tenants not named by --tenant")
    pv.add_argument("--shards", type=int, default=None, metavar="N",
                    help="run N in-process shards behind a router"
                         " front tier (tenant->shard by rendezvous"
                         " hashing)")
    pv.add_argument("--shard", action="append", default=None,
                    metavar="HOST:PORT",
                    help="route to an already-running shard service"
                         " (repeatable; builds the router front tier"
                         " over remote shards)")
    pv.add_argument("--shard-map", default=None, metavar="T=S,...",
                    help="pin tenants to shards:"
                         " tenant=shard-index-or-name, comma separated")

    pu = sub.add_parser(
        "submit", help="submit one solve request to a running service"
    )
    pu.add_argument("--url", default="http://127.0.0.1:8642")
    pu.add_argument("--tenant", default="default")
    pu.add_argument("--priority", type=int, default=0)
    pu.add_argument("--deadline", type=float, default=None, metavar="S",
                    help="soft queueing deadline in seconds")
    pu.add_argument("--bid", type=float, default=None, metavar="USD",
                    help="price offered for a queue slot during"
                         " overload (may preempt lower-tier work;"
                         " the victim is credited)")
    pu.add_argument("-n", "--operators", type=int, default=30)
    pu.add_argument("-a", "--alpha", type=float, default=1.5)
    pu.add_argument("-s", "--seed", type=int, default=2009)
    pu.add_argument(
        "-H", "--heuristic", action="append", default=None,
        help="heuristic name (repeatable → portfolio; default:"
             " subtree-bottom-up)",
    )
    pu.add_argument("--file", type=str, default=None,
                    help="submit this wire-format JSON request instead")
    pu.add_argument("--stats", action="store_true",
                    help="print the service /stats snapshot and exit")
    pu.add_argument("--async", dest="async_mode", action="store_true",
                    help="submit asynchronously (202 + ticket) and poll"
                         " /v1/result/<id> until done")

    pt = sub.add_parser(
        "trace", help="render one request's stitched span tree"
    )
    pt.add_argument("trace_id", help="the telemetry trace id to render")
    pt.add_argument("--url", default="http://127.0.0.1:8642",
                    help="running service to fetch the trace from"
                         " (GET /v1/trace/<id>)")
    pt.add_argument("--file", type=str, default=None,
                    help="read spans from this JSON dump instead of a"
                         " service (a span list, or an object with a"
                         " 'spans' key)")
    pt.add_argument("--json", dest="as_json", action="store_true",
                    help="print the raw span records as JSON instead"
                         " of the indented tree")

    pw = sub.add_parser(
        "worker",
        help="join a distributed solve fleet (repro.distributed)",
    )
    pw.add_argument("--connect", required=True, metavar="HOST:PORT",
                    help="coordinator address to register with")
    pw.add_argument("--name", default=None,
                    help="worker name (default: worker-<pid>)")
    pw.add_argument("--window", type=int, default=2,
                    help="max tasks in flight on this worker")
    pw.add_argument("--max-tasks", type=int, default=None,
                    help="drain gracefully after this many tasks")
    pw.add_argument("--secret", default=None,
                    help="shared secret for the mutual HMAC handshake"
                         " (default: the REPRO_SECRET environment"
                         " variable; unauthenticated coordinators are"
                         " refused when set)")
    return p


def _cmd_table1() -> int:
    from .platform.catalog import dell_catalog

    print(dell_catalog().table())
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    from . import quick_instance
    from .api import SolveRequest, solve_many
    from .core import HEURISTIC_ORDER

    inst = quick_instance(
        args.operators, alpha=args.alpha, seed=args.seed
    )
    print(f"instance: {inst.name} ({len(inst.tree)} operators,"
          f" {len(inst.tree.used_objects)} objects in use)")
    names = args.heuristic or list(HEURISTIC_ORDER)
    requests = [
        SolveRequest(instance=inst, strategy=name, seed=args.seed)
        for name in names
    ]
    executor = _open_executor(args.jobs)
    try:
        results = solve_many(requests, executor=executor)
    finally:
        _close_executor(executor)
    for name, sr in zip(names, results):
        if not sr.ok:
            for failure in sr.failures:
                print(f"{name:22s} FAILED ({failure.error_type}):"
                      f" {failure.message}")
            continue
        result = sr.result
        print(
            f"{name:22s} ${result.cost:>10,.0f}"
            f"  {result.n_processors:>3} processors"
            f"  rho*={result.throughput.rho_max:.3g}"
            f" [{result.throughput.bottleneck}]"
        )
        if args.describe:
            print(result.allocation.describe())
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    from .experiments import (
        FIGURE_REGISTRY,
        format_sweep_table,
        ranking_summary,
        sweep_to_csv,
    )

    fn = FIGURE_REGISTRY[args.figure_id]
    executor = _open_executor(args.jobs)
    try:
        sweep = fn(n_instances=args.instances, master_seed=args.seed,
                   executor=executor)
    finally:
        _close_executor(executor)
    print(format_sweep_table(sweep))
    print(ranking_summary(sweep))
    if args.csv:
        with open(args.csv, "w", encoding="utf8") as fh:
            fh.write(sweep_to_csv(sweep))
        print(f"\nCSV written to {args.csv}")
    return 0


def _cmd_optimal(args: argparse.Namespace) -> int:
    from .experiments import optimal_comparison

    cmp_ = optimal_comparison(
        n_operators=args.operators,
        n_instances=args.instances,
        alpha=args.alpha,
        master_seed=args.seed,
    )
    print(cmp_.render())
    return 0


def _cmd_lowfreq(args: argparse.Namespace) -> int:
    from .experiments import low_frequency

    for row in low_frequency(
        n_operators=args.operators,
        n_instances=args.instances,
        master_seed=args.seed,
    ):
        print(row.render())
    return 0


def _cmd_ilpsize(args: argparse.Namespace) -> int:
    from .experiments import ilp_size

    print(ilp_size(n_values=args.sizes).render())
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from . import quick_instance
    from .core import allocate
    from .errors import ReproError
    from .simulator import simulate_allocation

    inst = quick_instance(args.operators, alpha=args.alpha, seed=args.seed)
    try:
        result = allocate(inst, args.heuristic, rng=args.seed)
    except ReproError as err:
        print(f"allocation failed: {err}")
        return 1
    print(
        f"allocated with {args.heuristic}: ${result.cost:,.0f},"
        f" {result.n_processors} processors,"
        f" analytic rho* = {result.throughput.rho_max:.4g}"
    )
    sim = simulate_allocation(result.allocation, n_results=args.results)
    print(
        f"simulated {sim.n_root_results} results:"
        f" achieved rate {sim.achieved_rate:.4f}/s at offered"
        f" {sim.offered_rate:.4f}/s, {sim.download_misses} download"
        f" deadline misses, {sim.n_events} events"
    )
    reasons = []
    if sim.saturated:
        reasons.append(
            f"platform saturated: achieved rate {sim.achieved_rate:.4f}/s"
            f" fell behind the offered {sim.offered_rate:.4f}/s"
        )
    if sim.download_misses:
        reasons.append(
            f"{sim.download_misses} object download(s) missed their"
            " freshness deadline"
        )
    if reasons:
        print("FAILED: " + "; ".join(reasons))
        return 1
    print("OK: platform sustains the target throughput")
    return 0


def _cmd_exact(args: argparse.Namespace) -> int:
    from . import quick_instance
    from .core import solve_exact
    from .errors import SolverError
    from .units import format_cost

    inst = quick_instance(args.operators, alpha=args.alpha, seed=args.seed)
    if args.homogeneous:
        inst = inst.with_catalog(inst.catalog.homogeneous())
    try:
        sol = solve_exact(inst, node_budget=args.node_budget)
    except SolverError as err:
        print(f"exact solver gave up: {err}")
        return 1
    if not sol.feasible:
        print(
            f"instance proven infeasible"
            f" ({sol.nodes_explored:,} nodes explored)"
        )
        return 1
    print(
        f"optimal cost {format_cost(sol.cost)} with {sol.n_processors}"
        f" processors ({sol.nodes_explored:,} B&B nodes)"
    )
    for b, (block, spec) in enumerate(zip(sol.blocks, sol.specs)):
        ops = ", ".join(f"n{i}" for i in sorted(block))
        print(f"  machine {b} [{spec.describe()}]: {ops}")
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    from . import quick_instance
    from .core import cost_lower_bound
    from .units import format_cost

    inst = quick_instance(args.operators, alpha=args.alpha, seed=args.seed)
    lb = cost_lower_bound(inst)
    print(f"instance: {inst.name}")
    print(f"  trivial              {format_cost(lb.trivial)}")
    print(f"  compute-count        {format_cost(lb.compute_count)}")
    print(f"  compute-fractional   {format_cost(lb.compute_fractional)}")
    per_op = ("infeasible" if lb.per_operator == float("inf")
              else format_cost(lb.per_operator))
    print(f"  per-operator         {per_op}")
    print(f"  download-fractional  {format_cost(lb.download_fractional)}")
    print(f"  => lower bound       {format_cost(lb.value)} ({lb.binding})")
    return 0


def _cmd_dynamic(args: argparse.Namespace) -> int:
    from .api import ReplayRequest, replay_many
    from .dynamic import (
        DEFAULT_MIGRATION_COST_PER_MB,
        POLICY_ORDER,
        make_trace,
    )

    trace = make_trace(args.trace, seed=args.seed)
    print(
        f"trace {args.trace}: {len(trace)} epochs,"
        f" initial instance {trace.initial.name or repr(trace.initial)}"
    )
    names = args.policy or list(POLICY_ORDER)
    per_mb = (
        args.migration_cost_per_mb
        if args.migration_cost_per_mb is not None
        else DEFAULT_MIGRATION_COST_PER_MB
    )
    budgets = None
    if args.budget:
        budgets = {}
        for spec in args.budget:
            app, sep, amount = spec.partition("=")
            if not sep or not app:
                print(f"bad --budget {spec!r}: expected APP=USD",
                      file=sys.stderr)
                return 2
            try:
                budgets[app] = float(amount)
            except ValueError:
                print(f"bad --budget amount {amount!r}: expected a"
                      f" number", file=sys.stderr)
                return 2
        if "market" not in names:
            names.append("market")
    requests = [
        ReplayRequest(
            trace=trace, policy=name, validate=args.validate,
            sim_warmup=args.validate and not args.no_warmup,
            sim_kernel=args.sim_kernel,
            migration_model=args.migration_model,
            migration_cost_per_mb=per_mb,
            sim_transitions=args.transitions,
            pricing=args.pricing,
            tenant_budgets=budgets,
        )
        for name in names
    ]
    executor = _open_executor(args.jobs)
    try:
        results = replay_many(requests, executor=executor)
    finally:
        _close_executor(executor)
    for result in results:
        print(result.summary())
        if args.migration_model != "flat":
            print(
                f"         state moved"
                f" {result.total_state_moved_mb:,.0f} MB"
                f" ({result.total_heavy_migrations} heavy moves)"
            )
        if args.transitions:
            dips = [
                r.transition for r in result.records
                if r.transition is not None
            ]
            if dips:
                worst = max(t.throughput_dip for t in dips)
                sla = sum(t.sla_violation_s for t in dips)
                print(
                    f"         {len(dips)} simulated transition(s):"
                    f" worst dip {worst:.1%},"
                    f" {sla:.2f}s below SLA in total"
                )
        if result.market is not None:
            for app, account in sorted(
                result.market.get("tenants", {}).items()
            ):
                spent = account.get("spent", 0.0)
                line = f"         {app}: spent ${spent:,.0f}"
                if "budget" in account:
                    line += (
                        f" of ${account['budget']:,.0f} budget"
                        f" (balance ${account.get('balance', 0.0):,.0f})"
                    )
                print(line)
        if args.table:
            print(result.table())
    if args.json:
        import json

        payload = {r.policy: r.to_dict() for r in results}
        with open(args.json, "w", encoding="utf8") as fh:
            json.dump(payload, fh, sort_keys=True, indent=2)
        print(f"\nJSON written to {args.json}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .service import (
        AllocationService,
        HttpShard,
        LocalShard,
        RouterHTTPServer,
        ServiceHTTPServer,
        ShardRouter,
        parse_shard_map,
        parse_tenant_spec,
    )

    try:
        tenants = tuple(
            parse_tenant_spec(spec) for spec in (args.tenant or ())
        )
    except ValueError as err:
        print(f"bad --tenant: {err}", file=sys.stderr)
        return 2
    if args.shards is not None and args.shard:
        print("use --shards N (in-process) or --shard HOST:PORT"
              " (remote), not both", file=sys.stderr)
        return 2
    if args.shards is not None and args.shards < 1:
        print(f"--shards must be >= 1, got {args.shards}",
              file=sys.stderr)
        return 2
    try:
        shard_map = parse_shard_map(args.shard_map)
    except ValueError as err:
        print(f"bad --shard-map: {err}", file=sys.stderr)
        return 2
    if shard_map and args.shards is None and not args.shard:
        print("--shard-map needs a sharded deployment"
              " (--shards N or --shard HOST:PORT)", file=sys.stderr)
        return 2

    sharded = args.shards is not None or bool(args.shard)
    executors = []
    if not sharded:
        executor = _open_executor(args.jobs)
        executors.append(executor)
        service = AllocationService(
            tenants=tenants,
            auto_register=not args.no_auto_register,
            jobs=executor,
            max_in_flight=args.max_in_flight,
            max_queue_depth=args.queue_depth,
        )
        server = ServiceHTTPServer(
            service, host=args.host, port=args.port
        )
        banner = (
            f"repro allocation service listening on"
            f" http://{args.host}:{{port}}"
            f" (backend {service.executor.name}, jobs"
            f" {service.executor.jobs}, {len(tenants)} configured"
            f" tenant(s))"
        )
    else:
        if args.shard:
            try:
                shards = [HttpShard(spec) for spec in args.shard]
            except ValueError as err:
                print(f"bad --shard: {err}", file=sys.stderr)
                return 2
        else:
            shards = []
            for index in range(args.shards):
                executor = _open_executor(args.jobs)
                executors.append(executor)
                shards.append(LocalShard(
                    name=f"shard-{index}",
                    auto_register=not args.no_auto_register,
                    jobs=executor,
                    max_in_flight=args.max_in_flight,
                    max_queue_depth=args.queue_depth,
                ))
        try:
            router = ShardRouter(
                shards,
                shard_map=shard_map,
                tenants=tenants,
                # the cross-shard queued-request bound; per-shard
                # bounds still apply underneath
                global_queue_depth=args.queue_depth,
            )
        except ValueError as err:
            print(f"bad shard configuration: {err}", file=sys.stderr)
            return 2
        server = RouterHTTPServer(
            router, host=args.host, port=args.port
        )
        kind = "remote" if args.shard else "in-process"
        banner = (
            f"repro allocation router listening on"
            f" http://{args.host}:{{port}}"
            f" ({len(shards)} {kind} shard(s), {len(tenants)}"
            f" configured tenant(s))"
        )

    async def _serve() -> None:
        await server.start()
        print(banner.format(port=server.port), flush=True)
        try:
            await server.serve_forever()
        finally:
            await server.aclose()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("service stopped")
    finally:
        for executor in executors:
            _close_executor(executor)
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    import os

    from .distributed import run_worker

    secret = args.secret or os.environ.get("REPRO_SECRET") or None
    host, sep, port_text = args.connect.rpartition(":")
    if not sep or not host:
        print(f"bad --connect {args.connect!r}: expected HOST:PORT",
              file=sys.stderr)
        return 2
    try:
        port = int(port_text)
    except ValueError:
        print(f"bad --connect port {port_text!r}: expected an integer",
              file=sys.stderr)
        return 2
    try:
        n_done = run_worker(
            host, port,
            name=args.name,
            window=args.window,
            max_tasks=args.max_tasks,
            install_signal_handlers=True,
            secret=secret,
        )
    except (ConnectionError, OSError) as err:
        print(f"worker error: {err}", file=sys.stderr)
        return 1
    print(f"worker done: {n_done} task(s) executed", flush=True)
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    import dataclasses
    import json
    from http.client import HTTPException

    from .api import (
        InstanceSpec,
        SolveRequest,
        WireFormatError,
        request_from_wire,
    )
    from .service import HttpServiceClient, ServiceError
    from .telemetry import new_trace_id

    client = HttpServiceClient(args.url)
    if args.file:
        # read/decode before touching the network, so a bad file is
        # reported as a bad file — not as an unreachable service
        try:
            with open(args.file, encoding="utf8") as fh:
                request = request_from_wire(json.load(fh))
        except OSError as err:
            print(f"cannot read {args.file}: {err}", file=sys.stderr)
            return 2
        except (WireFormatError, json.JSONDecodeError) as err:
            print(f"bad request file {args.file}: {err}", file=sys.stderr)
            return 2
        # the submit entry point starts a trace unless the file brought
        # its own correlation id (sweeps have no trace_id field)
        if getattr(request, "trace_id", "absent") is None:
            request = dataclasses.replace(
                request, trace_id=new_trace_id()
            )
    try:
        if args.stats:
            print(json.dumps(client.stats(), indent=2, sort_keys=True))
            return 0
        if not args.file:
            heuristics = args.heuristic or None
            request = SolveRequest(
                spec=InstanceSpec(
                    n_operators=args.operators, alpha=args.alpha,
                    seed=args.seed,
                ),
                strategy=(heuristics or ["subtree-bottom-up"])[0],
                portfolio=(
                    tuple(heuristics)
                    if heuristics and len(heuristics) > 1 else None
                ),
                seed=args.seed,
                trace_id=new_trace_id(),
            )
        trace_id = getattr(request, "trace_id", None)
        if trace_id is not None:
            print(f"trace {trace_id} (repro trace {trace_id}"
                  f" --url {args.url})", flush=True)
        if args.async_mode:
            pending = client.submit_async(
                request, tenant=args.tenant, priority=args.priority,
                deadline_s=args.deadline, bid=args.bid,
            )
            print(f"ticket #{pending['ticket']} accepted (202) —"
                  f" polling {pending['poll']}", flush=True)
            response = client.wait(pending["ticket"])
            if response.get("status") != "done":
                print(
                    f"ticket #{pending['ticket']}"
                    f" {response.get('status')}:"
                    f" {response.get('error', 'no result')}",
                    file=sys.stderr,
                )
                return 1
        else:
            response = client.submit(
                request, tenant=args.tenant, priority=args.priority,
                deadline_s=args.deadline, bid=args.bid,
            )
    except ServiceError as err:
        label = "rejected" if err.rejected else f"HTTP {err.status}"
        print(f"{label}: {err}", file=sys.stderr)
        return 1
    except (OSError, HTTPException) as err:
        # refused, DNS failure, timeout, not-actually-HTTP, ...
        print(f"cannot reach {args.url}:"
              f" {err or type(err).__name__}", file=sys.stderr)
        return 1
    finally:
        client.close()
    result = response.get("result", {})
    if response.get("kind") == "solve":
        if result.get("ok"):
            print(
                f"ticket #{response['ticket']}: ${result['cost']:,.0f}"
                f" with {result['heuristic']}"
                f" ({result['n_processors']} processors,"
                f" seed {result['seed']})"
            )
        else:
            failures = "; ".join(
                f"{f['strategy']}: {f['message']}"
                for f in result.get("failures", ())
            )
            print(f"ticket #{response['ticket']} failed: {failures}")
            return 1
    else:
        print(json.dumps(response, indent=2, sort_keys=True))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import json
    from http.client import HTTPException

    from .telemetry import render_trace, span_from_dict, span_to_dict

    if args.file:
        try:
            with open(args.file, encoding="utf8") as fh:
                data = json.load(fh)
        except OSError as err:
            print(f"cannot read {args.file}: {err}", file=sys.stderr)
            return 2
        except json.JSONDecodeError as err:
            print(f"bad span dump {args.file}: {err}", file=sys.stderr)
            return 2
        records = data.get("spans", ()) if isinstance(data, dict) else data
        try:
            spans = [span_from_dict(r) for r in records]
        except (KeyError, TypeError, AttributeError) as err:
            print(f"bad span dump {args.file}: {err}", file=sys.stderr)
            return 2
        spans = [s for s in spans if s.trace_id == args.trace_id]
    else:
        from .service import HttpServiceClient, ServiceError

        client = HttpServiceClient(args.url)
        try:
            payload = client.trace(args.trace_id)
        except ServiceError as err:
            print(f"HTTP {err.status}: {err}", file=sys.stderr)
            return 1
        except (OSError, HTTPException) as err:
            print(f"cannot reach {args.url}:"
                  f" {err or type(err).__name__}", file=sys.stderr)
            return 1
        finally:
            client.close()
        spans = [span_from_dict(r) for r in payload.get("spans", ())]
    if not spans:
        print(f"no spans recorded for trace {args.trace_id}",
              file=sys.stderr)
        return 1
    if args.as_json:
        print(json.dumps(
            [span_to_dict(s) for s in spans], indent=2, sort_keys=True
        ))
    else:
        print(render_trace(spans))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        from .telemetry import configure_logging

        configure_logging(args.log_level)
    except ValueError as err:
        print(f"bad --log-level: {err}", file=sys.stderr)
        return 2
    if args.command is None:
        parser.print_help()
        return 0
    if args.command == "table1":
        return _cmd_table1()
    if args.command == "solve":
        return _cmd_solve(args)
    if args.command == "figure":
        return _cmd_figure(args)
    if args.command == "optimal":
        return _cmd_optimal(args)
    if args.command == "lowfreq":
        return _cmd_lowfreq(args)
    if args.command == "ilpsize":
        return _cmd_ilpsize(args)
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "exact":
        return _cmd_exact(args)
    if args.command == "bounds":
        return _cmd_bounds(args)
    if args.command == "dynamic":
        return _cmd_dynamic(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "worker":
        return _cmd_worker(args)
    if args.command == "submit":
        return _cmd_submit(args)
    if args.command == "trace":
        return _cmd_trace(args)
    raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
