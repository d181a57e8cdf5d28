"""Reconfiguration transition engine — pricing sweep + kernel race.

Two jobs:

1. **Migration-cost-scale sweep** (the ROADMAP's migration-cost item):
   replay the ramp family under ``migration_model="state-size"`` at
   increasing ``$/MB`` scales.  As displaced state gets expensive the
   repair planner's economics gates refuse ever more consolidations,
   so harvest/trade move monotonically fewer *heavy* (high-leaf-mass)
   operators — strictly fewer at the top of the sweep than at the
   bottom — while never trading feasibility for money (violation
   epochs stay zero throughout).

2. **Transition kernel race** (the ROADMAP's elastic-flow validation
   item): the churn/resolve replay with per-step transition simulation
   (drain + state-transfer flows batched into the elastic flow
   network) runs on the production ``warm`` kernel and the naive
   reference oracle.  The two must be **bit-identical** on the full
   ReplayResult JSON — transition records included — and the warm
   kernel must be measurably faster (asserted ≥1.5× on every machine:
   both runs share one process, so the ratio does not depend on the
   core count).  The race also demonstrates the
   headline: at least one reallocation that steady-state validation
   scores *clean* shows a nonzero mid-transition throughput dip.

Besides the usual text artefact this bench writes a machine-readable
``BENCH_transition.json`` at the repository root (``cpu_count`` and
``backend`` recorded like the other BENCH files).

Run directly for the CI smoke check::

    python benchmarks/bench_transition.py --quick

which races one transition-simulated replay (divergence always fatal),
checks the dip exists, and asserts the warm/naive ratio.
"""

from __future__ import annotations

import json
import os
import pathlib
import time

from repro.api import ReplayRequest, get_executor
from repro.experiments import migration_scale_sweep

from conftest import SEED, observed_backend, replay_observed, write_artefact

BENCH_JSON = (
    pathlib.Path(__file__).resolve().parent.parent
    / "BENCH_transition.json"
)

#: The sweep trace: harvest consolidates as the ramp falls, so it is
#: the family where migration prices actually change behaviour.
SWEEP_TRACE = "ramp"
SWEEP_POLICIES = ("harvest", "trade")
SWEEP_SCALES = (0.25, 1.0, 4.0, 16.0, 64.0)

#: The race trace/policy: resolve on churn re-solves wholesale, so
#: every epoch is a real reallocation with state on the move.
RACE_TRACE = "churn"
RACE_POLICY = "resolve"
#: Required wall-time reduction of the warm kernel over the naive
#: oracle on the validated + transition-simulated replay.
MIN_SPEEDUP = 1.5


def _race_request(kernel: str) -> ReplayRequest:
    return ReplayRequest(
        trace=RACE_TRACE, policy=RACE_POLICY, seed=SEED,
        validate=True, sim_warmup=True, sim_transitions=True,
        sim_kernel=kernel,
    )


def _timed_race(kernel: str):
    """The race replay, its wall time, and :func:`replay_observed`'s
    record of what ran it."""
    start = time.perf_counter()
    observed = replay_observed(_race_request(kernel))
    return observed[0], time.perf_counter() - start, observed


def _transition_rows(result) -> list[dict]:
    rows = []
    for r in result.records:
        if r.transition is None:
            continue
        t = r.transition
        rows.append(
            {
                "epoch": r.epoch,
                "label": r.label,
                "n_moved": t.n_moved,
                "state_moved_mb": round(t.state_moved_mb, 2),
                "drain_s": round(t.drain_s, 4),
                "throughput_dip": round(t.throughput_dip, 4),
                "sla_violation_s": round(t.sla_violation_s, 4),
                "steady_state_ok": r.sim_ok,
            }
        )
    return rows


def regenerate():
    # -- migration-cost-scale sweep -------------------------------------
    sweep = migration_scale_sweep(
        SWEEP_TRACE,
        policies=SWEEP_POLICIES,
        scales=SWEEP_SCALES,
        seed=SEED,
    )
    sweep_data = {
        policy: [
            {
                "scale": c.scale,
                "cost_per_mb": c.cost_per_mb,
                "total_migrations": c.total_migrations,
                "heavy_migrations": c.heavy_migrations,
                "state_moved_mb": round(c.state_moved_mb, 2),
                "cumulative_cost": c.cumulative_cost,
                "violation_epochs": c.violation_epochs,
            }
            for c in sweep.series(policy)
        ]
        for policy in SWEEP_POLICIES
    }

    # -- transition kernel race -----------------------------------------
    r_warm, t_warm, warm_ran = _timed_race("warm")
    r_naive, t_naive, naive_ran = _timed_race("naive")
    identical = r_warm.to_json() == r_naive.to_json()
    assert identical, (
        "transition-simulated replay diverged between the warm kernel"
        " and the naive oracle"
    )
    transitions = _transition_rows(r_warm)
    clean_dips = [
        row for row in transitions
        if row["throughput_dip"] > 0 and row["steady_state_ok"]
    ]
    race = {
        "trace": RACE_TRACE,
        "policy": RACE_POLICY,
        "warm_wall_s": round(t_warm, 4),
        "naive_wall_s": round(t_naive, 4),
        "speedup": round(t_naive / t_warm, 4) if t_warm else None,
        "bit_identical": identical,
        "n_transitions": len(transitions),
        "n_clean_epoch_dips": len(clean_dips),
        "worst_dip": max(
            (row["throughput_dip"] for row in transitions), default=0.0
        ),
        "total_sla_violation_s": round(
            sum(row["sla_violation_s"] for row in transitions), 4
        ),
        "transitions": transitions,
    }
    return {
        "seed": SEED,
        # provenance: the race is single-process on this many cores,
        # and the backend is read from the pids that ran its replays
        "cpu_count": os.cpu_count(),
        "backend": observed_backend(get_executor(None),
                                    [warm_ran, naive_ran]),
        "sweep": {
            "trace": SWEEP_TRACE,
            "scales": list(SWEEP_SCALES),
            "policies": sweep_data,
        },
        "transition_race": race,
        "rendered_sweep": sweep.render(),
    }


def _assert_claims(data: dict) -> None:
    """The headline claims, shared by the pytest-benchmark path and
    the --quick CI smoke (correctness only — timing is gated)."""
    for policy, rows in data["sweep"]["policies"].items():
        heavies = [row["heavy_migrations"] for row in rows]
        states = [row["state_moved_mb"] for row in rows]
        # the economics gates bite monotonically …
        assert all(
            a >= b for a, b in zip(heavies, heavies[1:])
        ), f"{policy}: heavy moves not monotone over scales: {heavies}"
        # … and strictly between the sweep's endpoints
        assert heavies[-1] < heavies[0], (
            f"{policy}: heavy moves did not fall across the sweep"
        )
        assert states[-1] < states[0], (
            f"{policy}: displaced state did not fall across the sweep"
        )
        # feasibility is never traded for money
        assert all(row["violation_epochs"] == 0 for row in rows)
    race = data["transition_race"]
    assert race["bit_identical"]
    assert race["n_transitions"] >= 1
    # the dip steady-state validation cannot see
    assert race["n_clean_epoch_dips"] >= 1, (
        "no steady-state-clean epoch showed a transition dip"
    )
    assert race["worst_dip"] > 0.0


def test_transition_engine(benchmark, artefact_dir):
    data = benchmark.pedantic(regenerate, rounds=1, iterations=1)

    lines = [data["rendered_sweep"], ""]
    race = data["transition_race"]
    lines.append(
        f"transition race ({race['trace']}/{race['policy']},"
        f" validated + simulated transitions):"
    )
    lines.append(
        f"  warm {race['warm_wall_s']:.2f}s, naive"
        f" {race['naive_wall_s']:.2f}s, speedup {race['speedup']:.2f}x,"
        f" bit-identical {race['bit_identical']}"
    )
    lines.append(
        f"  {race['n_transitions']} transitions, worst dip"
        f" {race['worst_dip']:.1%},"
        f" {race['total_sla_violation_s']:.2f}s below SLA,"
        f" {race['n_clean_epoch_dips']} dip(s) on steady-state-clean"
        f" epochs"
    )
    write_artefact(artefact_dir, "transition_engine", "\n".join(lines))
    payload = dict(data)
    payload.pop("rendered_sweep")
    BENCH_JSON.write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n",
        encoding="utf8",
    )

    _assert_claims(data)
    assert race["speedup"] >= MIN_SPEEDUP, (
        f"warm kernel only {race['speedup']:.2f}x faster than naive on"
        f" the transition race (need ≥{MIN_SPEEDUP}x)"
    )
    benchmark.extra_info["data"] = payload


def main(quick: bool) -> int:
    """Script entry point: ``--quick`` is the CI smoke — the kernel
    race plus the clean-epoch-dip check, divergence always fatal, and
    the same-process warm/naive ratio."""
    if quick:
        r_warm, t_warm, _ = _timed_race("warm")
        r_naive, t_naive, _ = _timed_race("naive")
        identical = r_warm.to_json() == r_naive.to_json()
        speedup = t_naive / t_warm if t_warm else float("inf")
        transitions = _transition_rows(r_warm)
        clean_dips = [
            row for row in transitions
            if row["throughput_dip"] > 0 and row["steady_state_ok"]
        ]
        print(
            f"{RACE_TRACE}/{RACE_POLICY} transition replay: warm"
            f" {t_warm:.3f}s, naive {t_naive:.3f}s, speedup"
            f" {speedup:.2f}x, bit-identical {identical},"
            f" {len(transitions)} transitions,"
            f" {len(clean_dips)} clean-epoch dip(s)"
        )
        if not identical:
            print("FAIL: transition replay diverged between kernels")
            return 1
        if not clean_dips:
            print("FAIL: no transition dip on a steady-state-clean epoch")
            return 1
        if speedup < MIN_SPEEDUP:
            print(f"FAIL: warm/naive speedup below {MIN_SPEEDUP}x")
            return 1
        return 0
    data = regenerate()
    _assert_claims(data)
    payload = dict(data)
    payload.pop("rendered_sweep")
    BENCH_JSON.write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n",
        encoding="utf8",
    )
    print(data["rendered_sweep"])
    print(json.dumps(data["transition_race"], indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main(quick="--quick" in sys.argv[1:]))
