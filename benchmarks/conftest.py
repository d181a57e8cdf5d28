"""Shared benchmark configuration.

Every benchmark regenerates one table/figure of the paper's evaluation
(§5) — see DESIGN.md §3 for the experiment index.  Campaign sizes are
reduced relative to the paper's (3 instances per point instead of ~30)
so the whole harness completes in minutes; the *shapes* are stable at
this size and the rendered artefacts are written to
``benchmarks/output/<name>.txt`` for EXPERIMENTS.md.

Conventions:

* each bench times ONE full regeneration of its artefact
  (``benchmark.pedantic(..., rounds=1)``) — the interesting output is
  the artefact, not the nanoseconds;
* shape assertions (who wins, where cliffs fall) run on the produced
  data, so ``pytest benchmarks/ --benchmark-only`` doubles as the
  reproduction check.
"""

from __future__ import annotations

import os
import pathlib

import pytest

#: Instances per sweep point (the paper uses more; shapes are stable).
N_INSTANCES = 3
#: Master seed for all benchmark campaigns.
SEED = 2009

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"


@pytest.fixture(scope="session")
def artefact_dir() -> pathlib.Path:
    OUTPUT_DIR.mkdir(exist_ok=True)
    return OUTPUT_DIR


def write_artefact(path: pathlib.Path, name: str, text: str) -> None:
    (path / f"{name}.txt").write_text(text, encoding="utf8")


def sim_runs() -> dict[str, float]:
    """Simulator runs completed in this process so far, per flow kernel:
    the engine's own ``repro_sim_runs_total`` counter, labelled with
    each run's ``SimulationResult.kernel``."""
    from repro.telemetry import get_registry

    runs = get_registry().get("repro_sim_runs_total")
    if runs is None:
        return {}
    return {key[0]: total for key, total in runs.totals().items()}


def kernels_since(before: dict[str, float]) -> list[str]:
    """The flow kernels whose run count moved since ``before``
    (a :func:`sim_runs` reading)."""
    return sorted(k for k, n in sim_runs().items() if n > before.get(k, 0))


def replay_observed(request):
    """``replay(request)`` plus what ran it: ``(result, flow kernels of
    its simulator runs, pid of the process that ran it)``.  Module
    level, so an executor can ship it to worker processes."""
    from repro.api import replay

    before = sim_runs()
    result = replay(request)
    return result, kernels_since(before), os.getpid()


def observed_backend(executor, observed) -> str:
    """``executor.name`` when :func:`replay_observed` results came back
    from worker processes; ``"serial"`` when every one ran in this
    process (a pool falls back to in-process for tiny batches)."""
    pids = {pid for _, _, pid in observed}
    return executor.name if pids - {os.getpid()} else "serial"
