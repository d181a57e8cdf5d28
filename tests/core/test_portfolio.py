"""Tests for the portfolio allocator (the paper's recommended workflow):
``solve(SolveRequest(portfolio=…))`` runs several heuristics and keeps
the cheapest feasible member."""

import pytest

import repro
from repro.api import SolveRequest, solve
from repro.core import HEURISTIC_ORDER, allocate, verify
from repro.errors import PlacementError


def _portfolio(inst, heuristics=HEURISTIC_ORDER, *, seed, **kwargs):
    return solve(
        SolveRequest(
            instance=inst, portfolio=tuple(heuristics), seed=seed, **kwargs
        )
    )


class TestAllocateBest:
    def test_never_worse_than_any_member(self):
        inst = repro.quick_instance(25, alpha=1.6, seed=4)
        best = _portfolio(inst, seed=0)
        assert best.ok
        assert verify(best.allocation).feasible
        for name in ("subtree-bottom-up", "comp-greedy"):
            solo = allocate(inst, name, rng=0)
            assert best.cost <= solo.cost + 1e-9

    def test_survives_member_failures(self):
        """In regimes where some heuristics fail, the portfolio still
        answers with whoever survives (large-object style instance)."""
        from repro.experiments import large_high, make_instance

        inst = make_instance(
            large_high(n_operators=30, alpha=1.1, n_instances=1,
                       fat_nics=True),
            0,
        )
        # SBU fails here; comp-greedy survives (see large-object bench)
        with pytest.raises(repro.ReproError):
            allocate(inst, "subtree-bottom-up", rng=0)
        best = _portfolio(inst, seed=0)
        assert best.ok
        assert best.heuristic == "comp-greedy"
        assert "subtree-bottom-up" in {f.strategy for f in best.failures}

    def test_all_fail_raises_with_breakdown(self):
        inst = repro.quick_instance(40, alpha=2.8, seed=1)
        best = _portfolio(inst, seed=0)
        assert not best.ok
        with pytest.raises(PlacementError) as exc:
            best.raise_for_failure()
        assert "subtree-bottom-up" in str(exc.value)

    def test_subset_portfolio(self):
        inst = repro.quick_instance(15, alpha=1.4, seed=2)
        best = _portfolio(inst, ("random",), seed=3)
        assert best.heuristic == "random"

    def test_deterministic(self):
        inst = repro.quick_instance(20, alpha=1.5, seed=6)
        a = _portfolio(inst, seed=9)
        b = _portfolio(inst, seed=9)
        assert a.cost == b.cost
        assert a.heuristic == b.heuristic
        assert a.allocation.assignment == b.allocation.assignment

    def test_refine_flag_propagates(self):
        inst = repro.quick_instance(20, alpha=1.5, seed=7)
        plain = _portfolio(inst, ("random",), seed=1)
        refined = _portfolio(inst, ("random",), seed=1, refine=True)
        assert refined.cost <= plain.cost + 1e-9
        assert refined.result.refinement is not None
