"""Tests for the service layer: solve / solve_many / replay / sweep."""

import pytest

import repro
from repro.api import (
    InstanceSpec,
    ParallelExecutor,
    ReplayRequest,
    SolveRequest,
    SweepRequest,
    replay,
    replay_many,
    solve,
    solve_many,
    sweep,
)
from repro.core import allocate as engine_allocate


@pytest.fixture(scope="module")
def inst():
    return repro.quick_instance(14, alpha=1.4, seed=8)


class TestSolve:
    def test_matches_engine_bit_for_bit(self, inst):
        sr = solve(
            SolveRequest(instance=inst, strategy="comp-greedy", seed=5)
        )
        legacy = engine_allocate(inst, "comp-greedy", rng=5)
        assert sr.cost == legacy.cost
        assert sr.allocation.assignment == legacy.allocation.assignment
        assert sr.allocation.downloads == legacy.allocation.downloads

    def test_explicit_server_strategy(self, inst):
        sr = solve(
            SolveRequest(
                instance=inst, strategy="comp-greedy",
                server="three-loop", seed=5,
            )
        )
        assert sr.result.server_strategy == "three-loop"

    def test_refine_flag(self, inst):
        sr = solve(
            SolveRequest(
                instance=inst, strategy="random", refine=True, seed=2
            )
        )
        assert sr.result.refinement is not None

    def test_portfolio_picks_cheapest(self, inst):
        sr = solve(
            SolveRequest(
                instance=inst,
                portfolio=("random", "subtree-bottom-up"),
                seed=0,
            )
        )
        assert sr.ok
        solo = solve(
            SolveRequest(instance=inst, strategy="subtree-bottom-up", seed=0)
        )
        assert sr.cost <= solo.cost + 1e-9

    def test_portfolio_matches_member_engines(self, inst):
        """Each member runs the engine on its derived seed
        (``derive_seed(seed, "portfolio", member)``) and the cheapest
        wins, earliest member on ties — bit-for-bit."""
        from repro.core import HEURISTIC_ORDER
        from repro.errors import ReproError
        from repro.rng import derive_seed

        for seed in (7, 1234):
            sr = solve(
                SolveRequest(
                    instance=inst, portfolio=tuple(HEURISTIC_ORDER),
                    seed=seed,
                )
            )
            best = None
            for name in HEURISTIC_ORDER:
                try:
                    member = engine_allocate(
                        inst, name,
                        rng=derive_seed(seed, "portfolio", name),
                    )
                except ReproError:
                    continue
                if best is None or member.cost < best.cost - 1e-9:
                    best = member
            assert sr.cost == best.cost
            assert sr.heuristic == best.heuristic
            assert sr.allocation.assignment == best.allocation.assignment
            assert sr.allocation.downloads == best.allocation.downloads

    def test_portfolio_parallel_matches_serial(self, inst):
        req = SolveRequest(
            instance=inst,
            portfolio=("random", "comp-greedy", "subtree-bottom-up"),
            seed=3,
        )
        serial = solve(req)
        parallel = solve(req, executor=ParallelExecutor(workers=2))
        assert parallel.backend == "process-pool"
        assert serial.cost == parallel.cost
        assert serial.heuristic == parallel.heuristic
        assert (
            serial.allocation.assignment == parallel.allocation.assignment
        )
        assert serial.failures == parallel.failures

    def test_seedless_request_records_drawn_seed(self, inst):
        """seed=None draws entropy, but the draw is recorded so the
        run can be replayed exactly."""
        sr = solve(
            SolveRequest(
                instance=inst, portfolio=("random", "subtree-bottom-up")
            )
        )
        assert isinstance(sr.seed, int)
        replayed = solve(
            SolveRequest(
                instance=inst,
                portfolio=("random", "subtree-bottom-up"),
                seed=sr.seed,
            )
        )
        assert replayed.cost == sr.cost
        assert replayed.allocation.assignment == sr.allocation.assignment

    def test_time_budget_records_skipped_members(self, inst):
        sr = solve(
            SolveRequest(
                instance=inst,
                portfolio=("subtree-bottom-up", "comp-greedy"),
                seed=1,
                time_budget_s=0.0,
            )
        )
        # with a zero budget every member is skipped before starting
        assert not sr.ok
        assert {f.stage for f in sr.failures} == {"time-budget"}

    def test_solve_many_collects_failures_without_raising(self):
        requests = [
            SolveRequest(
                spec=InstanceSpec(n_operators=10, alpha=1.2, seed=0), seed=0
            ),
            SolveRequest(
                spec=InstanceSpec(n_operators=25, alpha=2.9, seed=1),
                strategy="comp-greedy",
                seed=0,
            ),
        ]
        ok, failed = solve_many(requests)
        assert ok.ok and not failed.ok
        assert failed.failures[0].error_type in (
            "PlacementError", "ServerSelectionError", "AllocationError",
        )


class TestReplay:
    def test_replay_matches_engine(self):
        from repro.dynamic.replay import _replay_engine
        from repro.dynamic.traces import make_trace

        trace = make_trace("ramp", seed=11)
        via_api = replay(ReplayRequest(trace=trace, policy="static"))
        direct = _replay_engine(trace, "static")
        assert via_api.to_json() == direct.to_json()

    def test_replay_many_order_and_determinism(self):
        requests = [
            ReplayRequest(trace="ramp", policy=p, seed=11)
            for p in ("static", "harvest")
        ]
        serial = replay_many(requests)
        parallel = replay_many(
            requests, executor=ParallelExecutor(workers=2)
        )
        assert [r.policy for r in serial] == ["static", "harvest"]
        assert [r.to_json() for r in serial] == [
            r.to_json() for r in parallel
        ]


class TestSweep:
    def test_sweep_request_matches_run_sweep(self):
        """``api.sweep`` is the campaign engine itself, not a wrapper."""
        from repro.experiments import small_high
        from repro.experiments.runner import run_sweep

        request = SweepRequest(
            "mini", "N", (8, 12),
            {n: small_high(n_operators=n, alpha=1.2, n_instances=1,
                           master_seed=3)
             for n in (8, 12)},
            heuristics=("subtree-bottom-up",),
        )
        assert sweep is run_sweep
        result = sweep(request)
        assert result.x_values == (8.0, 12.0)
        for x in result.x_values:
            (outcome,) = result.cells[(x, "subtree-bottom-up")].outcomes
            assert outcome.succeeded

    def test_run_sweep_parallel_identical(self):
        from repro.experiments import small_high

        request = SweepRequest(
            "mini", "N", (10,),
            {10: small_high(n_operators=10, alpha=1.2, n_instances=2,
                            master_seed=5)},
            heuristics=("random", "subtree-bottom-up"),
        )
        serial = sweep(request)
        parallel = sweep(request, executor=2)
        for key, cell in serial.cells.items():
            pcell = parallel.cells[key]
            assert [o.cost for o in cell.outcomes] == [
                o.cost for o in pcell.outcomes
            ]
            assert [o.failure_stage for o in cell.outcomes] == [
                o.failure_stage for o in pcell.outcomes
            ]

    def test_policy_comparison_parallel_identical(self):
        from repro.experiments import policy_comparison

        serial = policy_comparison(
            "ramp", policies=("static", "resolve"), n_instances=1,
            master_seed=4,
        )
        parallel = policy_comparison(
            "ramp", policies=("static", "resolve"), n_instances=1,
            master_seed=4, executor=2,
        )
        for s, p in zip(serial.cells, parallel.cells):
            assert s.policy == p.policy
            assert s.mean_cost == p.mean_cost
            assert s.mean_migrations == p.mean_migrations

    def test_policy_comparison_pipelined_validated_identical(self):
        """Validated campaign through the process pool: the simulator
        runs (warm kernel, worker processes) must render every replay
        to byte-identical JSON vs. the serial order — the campaign
        pipelining contract."""
        from repro.experiments import policy_comparison

        kwargs = dict(
            policies=("static", "harvest"), n_instances=2,
            master_seed=7, validate=True,
        )
        serial = policy_comparison("churn", **kwargs)
        pipelined = policy_comparison("churn", executor=2, **kwargs)
        for s, p in zip(serial.cells, pipelined.cells):
            assert s.policy == p.policy
            assert [r.to_json() for r in s.results] == [
                r.to_json() for r in p.results
            ]
