"""Golden §5 campaigns: the exact outcomes of every figure at a reduced
population, plus the instance factory's output for a grid of specs.

For each :data:`FIGURE_REGISTRY` sweep, two x values × two instances ×
the six heuristics are run, and every :class:`InstanceOutcome` field
except ``elapsed_s`` is recorded together with the sweep's CSV export
and text table.  :func:`low_frequency` and :func:`optimal_comparison`
are recorded at small N.  The instance factory is pinned by a SHA-256
digest of :func:`repro.io.instance_to_dict` for a grid of
:class:`InstanceSpec` recipes (including ``rho != 1`` and
``n_object_types != 15``) and for a few campaign population members.

The fixture under ``golden/`` was generated by :func:`generate`
(``python -c "from tests.experiments.test_campaigns_golden import
generate; generate()"`` with ``PYTHONPATH=src``) and is only ever
regenerated when a campaign is *meant* to produce different numbers.
"""

import dataclasses
import hashlib
import json
import math
import pathlib

import pytest

from repro.api import InstanceSpec
from repro.experiments import make_instance, small_high, large_high
from repro.experiments.figures import (
    FIGURE_REGISTRY,
    low_frequency,
    optimal_comparison,
)
from repro.experiments.report import format_sweep_table, sweep_to_csv
from repro.io import instance_to_dict

GOLDEN = pathlib.Path(__file__).parent / "golden" / "campaigns.json"

#: Two sweep points per figure, chosen to straddle each figure's
#: feasibility cliff where it has one, so failure stages are pinned too.
FIGURE_POINTS = {
    "fig2a": (20, 60),
    "fig2b": (20, 100),
    "fig3": (1.5, 2.0),
    "fig3_n20": (1.7, 2.5),
    "large_objects": (20, 50),
    "rate_sweep": (1 / 2, 1 / 50),
    "replication_sweep": (0.0, 0.7),
}

SPEC_GRID = [
    InstanceSpec(n_operators=n, alpha=alpha, seed=seed,
                 n_object_types=k, rho=rho)
    for n in (8, 40)
    for alpha in (0.9, 1.6)
    for seed in (0, 123456)
    for k in (15, 9)
    for rho in (1.0, 2.5)
]

POPULATION_MEMBERS = [
    (small_high(n_operators=20, alpha=1.2, master_seed=7), 0),
    (small_high(n_operators=20, alpha=1.2, master_seed=7), 3),
    (small_high(n_operators=12, alpha=1.8, homogeneous=True), 1),
    (large_high(n_operators=15, alpha=1.1, fat_nics=True), 2),
    (small_high(n_operators=30, ops_per_ghz=30.0, link_mbps=2500.0,
                n_object_types=9, rho=0.5), 0),
]


def _portable(value):
    """JSON-ready with exact comparisons: tuples become lists and
    non-finite floats become strings (NaN never equals itself)."""
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    if isinstance(value, dict):
        return {str(k): _portable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_portable(v) for v in value]
    return value


def _digest(instance) -> str:
    blob = json.dumps(instance_to_dict(instance), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def run_figure(figure: str) -> dict:
    sweep = FIGURE_REGISTRY[figure](FIGURE_POINTS[figure], n_instances=2)
    cells = {}
    for x in sweep.x_values:
        for h in sweep.heuristics:
            cells[f"{x!r}|{h}"] = [
                [o.instance_index, o.cost, o.n_processors, o.failure_stage]
                for o in sweep.cells[(x, h)].outcomes
            ]
    return _portable({
        "name": sweep.name,
        "parameter": sweep.parameter,
        "x_values": sweep.x_values,
        "heuristics": sweep.heuristics,
        "configs": [
            [x, dataclasses.asdict(sweep.configs[x])]
            for x in sweep.x_values
        ],
        "cells": cells,
        "csv": sweep_to_csv(sweep),
        "table": format_sweep_table(sweep),
    })


def run_low_frequency() -> list:
    return _portable([
        dataclasses.asdict(c)
        for c in low_frequency(n_operators=20, alpha=1.5, n_instances=2)
    ])


def run_optimal_comparison() -> dict:
    return _portable(dataclasses.asdict(
        optimal_comparison(n_operators=8, n_instances=2)
    ))


def spec_id(spec: InstanceSpec) -> str:
    return (
        f"n{spec.n_operators}-a{spec.alpha}-s{spec.seed}"
        f"-k{spec.n_object_types}-rho{spec.rho}"
    )


def run_instances() -> dict:
    out = {spec_id(spec): _digest(spec.build()) for spec in SPEC_GRID}
    for config, index in POPULATION_MEMBERS:
        out[f"{config.label}#{index}|{config.master_seed}"] = _digest(
            make_instance(config, index)
        )
    return out


def generate() -> None:
    GOLDEN.parent.mkdir(exist_ok=True)
    data = {
        "figures": {f: run_figure(f) for f in sorted(FIGURE_POINTS)},
        "low_frequency": run_low_frequency(),
        "optimal_comparison": run_optimal_comparison(),
        "instances": run_instances(),
    }
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_fixture_covers_every_figure(golden):
    assert sorted(golden["figures"]) == sorted(FIGURE_REGISTRY)


@pytest.mark.parametrize("figure", sorted(FIGURE_POINTS))
def test_figure_matches_golden(golden, figure):
    assert run_figure(figure) == golden["figures"][figure]


def test_low_frequency_matches_golden(golden):
    assert run_low_frequency() == golden["low_frequency"]


def test_optimal_comparison_matches_golden(golden):
    assert run_optimal_comparison() == golden["optimal_comparison"]


def test_instances_match_golden(golden):
    assert run_instances() == golden["instances"]
