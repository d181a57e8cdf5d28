"""Qualitative reproduction tests: the paper's §5 findings as assertions.

These are the 'shape' claims of the evaluation — who wins, where the
feasibility cliffs sit, what the frequency knobs do — checked on small
but non-trivial populations so the suite stays fast.  EXPERIMENTS.md
quotes the full-size campaign.
"""

import math

import pytest

import repro
from repro.core import HEURISTIC_ORDER, allocate
from repro.experiments import (
    fig3,
    low_frequency,
    make_instance,
    optimal_comparison,
    small_high,
)
from repro.api import SweepRequest, sweep


def run_point(config, heuristics=HEURISTIC_ORDER):
    """Per-heuristic cells of one population: a one-point sweep."""
    result = sweep(SweepRequest(
        "point", "x", (0.0,), {0.0: config}, heuristics=heuristics,
    ))
    return {h: result.cells[(0.0, h)] for h in result.heuristics}


def mean_costs(config, heuristics=HEURISTIC_ORDER):
    cells = run_point(config, heuristics)
    return {h: cells[h].mean_cost for h in heuristics}, cells


class TestRanking:
    """'Results show that all our more sophisticated heuristics perform
    better than the simple random approach' + SBU on top."""

    def test_random_is_worst(self):
        costs, _ = mean_costs(
            small_high(n_operators=40, alpha=1.5, n_instances=3)
        )
        for name in HEURISTIC_ORDER:
            if name != "random" and not math.isnan(costs[name]):
                assert costs[name] < costs["random"]

    def test_sbu_beats_object_heuristics(self):
        """'the object sensitive heuristics ... do not show the desired
        performance'."""
        costs, _ = mean_costs(
            small_high(n_operators=40, alpha=1.5, n_instances=3)
        )
        sbu = costs["subtree-bottom-up"]
        assert sbu <= costs["object-grouping"] + 1e-9
        assert sbu <= costs["object-availability"] + 1e-9


class TestAlphaCliff:
    """Figure 3: cost flat → rising → infeasible, thresholds shifting
    down as N grows."""

    def test_n60_thresholds(self):
        sweep = fig3(
            alpha_values=(0.9, 1.2, 1.7, 2.1), n_operators=60,
            n_instances=3,
        )
        cell = lambda a: sweep.cells[(a, "subtree-bottom-up")]
        # flat region: same cost at 0.9 and 1.2
        assert cell(0.9).mean_cost == pytest.approx(
            cell(1.2).mean_cost, rel=0.2
        )
        # rising region: 1.7 strictly more expensive than 0.9
        assert cell(1.7).mean_cost > cell(0.9).mean_cost * 1.5
        # cliff: nothing feasible at 2.1
        assert cell(2.1).n_success == 0

    def test_cliff_shifts_with_tree_size(self):
        """N=20 still feasible at α=2.0; N=60 is not."""
        big = run_point(
            small_high(n_operators=60, alpha=2.0, n_instances=3),
            heuristics=("comp-greedy",),
        )["comp-greedy"]
        small = run_point(
            small_high(n_operators=20, alpha=2.0, n_instances=3),
            heuristics=("comp-greedy",),
        )["comp-greedy"]
        assert big.n_success == 0
        assert small.n_success >= 1

    def test_fig2b_feasibility_collapse(self):
        """α=1.7: 'for trees with more than 80 operators, almost no
        feasible mapping can be found'."""
        wide = run_point(
            small_high(n_operators=130, alpha=1.7, n_instances=3),
            heuristics=("comp-greedy", "subtree-bottom-up"),
        )
        assert all(c.n_success == 0 for c in wide.values())
        narrow = run_point(
            small_high(n_operators=40, alpha=1.7, n_instances=3),
            heuristics=("comp-greedy",),
        )
        assert narrow["comp-greedy"].n_success >= 2


class TestLargeObjects:
    def test_feasibility_cliff_near_45(self):
        """Large objects: 'no feasible solution can be found as soon as
        the trees exceed 45 nodes' (under the experiment's documented
        GB/s NIC reading and α = 1.1; see EXPERIMENTS.md)."""
        from repro.experiments import large_high

        small_trees = run_point(
            large_high(n_operators=10, alpha=1.1, n_instances=3,
                       fat_nics=True),
            heuristics=("comp-greedy", "comm-greedy"),
        )
        big_trees = run_point(
            large_high(n_operators=50, alpha=1.1, n_instances=3,
                       fat_nics=True),
            heuristics=("comp-greedy", "comm-greedy",
                        "subtree-bottom-up"),
        )
        assert any(c.n_success for c in small_trees.values())
        assert all(c.n_success == 0 for c in big_trees.values())

    def test_sbu_fails_where_greedy_survives(self):
        """'Subtree-bottom-up even fails in [some] cases, while other
        heuristics find a solution.'"""
        from repro.experiments import large_high

        cells = run_point(
            large_high(n_operators=30, alpha=1.1, n_instances=3,
                       fat_nics=True),
            heuristics=("comp-greedy", "subtree-bottom-up"),
        )
        assert cells["comp-greedy"].n_success > 0
        assert (
            cells["subtree-bottom-up"].n_success
            < cells["comp-greedy"].n_success
        )


class TestFrequencyEffects:
    def test_low_frequency_never_more_expensive(self):
        rows = low_frequency(
            n_operators=30, alpha=1.5, n_instances=3,
            heuristics=("comp-greedy", "subtree-bottom-up"),
        )
        for row in rows:
            if row.n_instances:
                assert row.mean_cost_low <= row.mean_cost_high + 1e-6

    def test_mappings_mostly_stable(self):
        """'In general the heuristics lead to the same operator
        mapping' across frequencies."""
        rows = low_frequency(
            n_operators=30, alpha=1.5, n_instances=4,
            heuristics=("comp-greedy",),
        )
        row = rows[0]
        if row.n_instances:
            assert row.n_same_assignment >= row.n_instances * 0.5


class TestOptimalComparison:
    def test_sbu_near_optimal(self):
        """'The Subtree-bottom-up heuristic almost always produces
        optimal results'."""
        cmp_ = optimal_comparison(
            n_operators=10, n_instances=4, alpha=1.8,
            heuristics=("subtree-bottom-up", "comp-greedy", "random"),
        )
        assert cmp_.n_instances >= 2
        assert cmp_.mean_ratio("subtree-bottom-up") <= 1.25
        assert cmp_.optimal_hits("subtree-bottom-up") >= 1
        # and the ranking holds against Random
        assert (
            cmp_.mean_ratio("subtree-bottom-up")
            <= cmp_.mean_ratio("random")
        )
