#!/usr/bin/env python
"""Profile the simulator kernel over the churn policy loop.

The optimisation workflow behind the flow-kernel PRs: run the
simulator-validated churn replay (the campaign that motivated the
warm kernel) under cProfile and print the
top-20 functions by cumulative time, so kernel work is attacked where
the profile says the time goes, not where it feels like it goes.

Usage::

    PYTHONPATH=src python scripts/profile_kernel.py
    PYTHONPATH=src python scripts/profile_kernel.py \
        --kernel naive --policy resolve --json profile.json

``--json`` writes the rows as machine-readable JSON (one object per
function: file, line, name, ncalls, tottime, cumtime) next to the
printed table, so perf trajectories can be diffed across commits.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import json
import pstats
import sys


TOP_N = 20


def _replay_once(kernel: str, policy: str, trace: str, seed: int):
    from repro.api import ReplayRequest, replay
    from repro.dynamic import make_trace

    return replay(
        ReplayRequest(
            trace=make_trace(trace, seed=seed),
            policy=policy,
            validate=True,
            sim_kernel=kernel,
            sim_warmup=True,
        )
    )


def profile_rows(kernel: str, policy: str, trace: str, seed: int):
    """Run one validated replay under cProfile; return (rows, stats).

    Rows are the top-``TOP_N`` functions by cumulative time as plain
    dicts; ``stats`` is the underlying :class:`pstats.Stats` for
    callers that want the full picture.
    """
    profiler = cProfile.Profile()
    profiler.enable()
    _replay_once(kernel, policy, trace, seed)
    profiler.disable()
    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative")
    rows = []
    for func, (cc, nc, tottime, cumtime, _callers) in sorted(
        stats.stats.items(), key=lambda kv: kv[1][3], reverse=True
    )[:TOP_N]:
        filename, line, name = func
        rows.append(
            {
                "file": filename,
                "line": line,
                "function": name,
                "ncalls": nc,
                "primitive_calls": cc,
                "tottime_s": round(tottime, 4),
                "cumtime_s": round(cumtime, 4),
            }
        )
    return rows, stats


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kernel", default="warm",
                        choices=("warm", "naive"))
    parser.add_argument("--policy", default="harvest")
    parser.add_argument("--trace", default="churn")
    parser.add_argument("--seed", type=int, default=2009)
    parser.add_argument("--json", type=str, default=None, metavar="PATH",
                        help="also write the rows as JSON to PATH")
    args = parser.parse_args(argv)

    rows, stats = profile_rows(
        args.kernel, args.policy, args.trace, args.seed
    )
    total = stats.total_tt
    print(
        f"validated {args.trace}/{args.policy} replay,"
        f" kernel={args.kernel}: {total:.3f}s total,"
        f" top {len(rows)} by cumulative time"
    )
    print(f"{'cum s':>8} {'tot s':>8} {'calls':>9}  function")
    for row in rows:
        where = f"{row['file'].rsplit('/', 1)[-1]}:{row['line']}"
        print(
            f"{row['cumtime_s']:>8.3f} {row['tottime_s']:>8.3f}"
            f" {row['ncalls']:>9}  {row['function']} ({where})"
        )
    if args.json:
        payload = {
            "kernel": args.kernel,
            "policy": args.policy,
            "trace": args.trace,
            "seed": args.seed,
            "total_s": round(total, 4),
            "top": rows,
        }
        with open(args.json, "w", encoding="utf8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
