"""Tests for the campaign runner and aggregation."""

import asyncio
import json
import math

import pytest

from repro.api import SweepRequest, request_to_wire, solve, solve_many
from repro.methodology import make_instance, small_high
from repro.experiments.runner import (
    CellResult,
    InstanceOutcome,
    cell_request,
    run_sweep,
)
from repro.rng import derive_seed


def one_point(config, heuristics=()):
    """The sweep of a single population (x = 0)."""
    return run_sweep(SweepRequest(
        "point", "x", (0.0,), {0.0: config}, heuristics=heuristics,
    ))


class TestRunInstance:
    """One (instance, heuristic) cell: a plain solve request."""

    def test_cell_is_a_plain_solve_request(self):
        config = small_high(n_operators=15, master_seed=4)
        request = cell_request(config, 2, "subtree-bottom-up")
        assert request.strategy == "subtree-bottom-up"
        assert request.seed == derive_seed(4, "run", "subtree-bottom-up", 2)
        assert request.instance.name == make_instance(config, 2).name
        assert request.instance.tree.total_work == (
            make_instance(config, 2).tree.total_work
        )

    def test_success_outcome(self):
        cell = one_point(
            small_high(n_operators=15, n_instances=1),
            ("subtree-bottom-up",),
        ).cells[(0.0, "subtree-bottom-up")]
        out = cell.outcomes[0]
        assert out.succeeded
        assert out.cost > 0
        assert out.n_processors >= 1
        assert out.failure_stage is None
        assert out.elapsed_s > 0

    def test_failure_outcome_recorded_not_raised(self):
        # α high enough that placement must fail
        cell = one_point(
            small_high(n_operators=60, alpha=2.6, n_instances=1),
            ("comp-greedy",),
        ).cells[(0.0, "comp-greedy")]
        out = cell.outcomes[0]
        assert not out.succeeded
        assert out.failure_stage == "placement"
        assert out.cost is None


class TestCellResult:
    def cell(self):
        return CellResult(
            heuristic="x",
            outcomes=(
                InstanceOutcome(0, 100.0, 2, None, 0.0),
                InstanceOutcome(1, 200.0, 3, None, 0.0),
                InstanceOutcome(2, None, None, "placement", 0.0),
            ),
        )

    def test_aggregates(self):
        c = self.cell()
        assert c.n_success == 2
        assert c.success_rate == pytest.approx(2 / 3)
        assert c.mean_cost == pytest.approx(150.0)
        assert c.mean_processors == pytest.approx(2.5)
        assert c.failure_stages == {"placement": 1}

    def test_all_failed_is_nan(self):
        c = CellResult(
            heuristic="x",
            outcomes=(InstanceOutcome(0, None, None, "placement", 0.0),),
        )
        assert math.isnan(c.mean_cost)
        assert c.success_rate == 0.0


class TestRunPointAndSweep:
    """A point is a one-x sweep request."""

    def test_run_point_covers_heuristics(self):
        cfg = small_high(n_operators=10, n_instances=2)
        sweep = one_point(cfg, heuristics=("random", "comp-greedy"))
        assert set(sweep.cells) == {(0.0, "random"), (0.0, "comp-greedy")}
        for cell in sweep.cells.values():
            assert len(cell.outcomes) == 2

    def test_default_heuristics_are_all_six(self):
        from repro.core import HEURISTIC_ORDER

        sweep = one_point(small_high(n_operators=8, n_instances=1))
        assert sweep.heuristics == tuple(HEURISTIC_ORDER)

    def test_run_point_deterministic(self):
        cfg = small_high(n_operators=10, n_instances=2, master_seed=5)
        a = one_point(cfg, heuristics=("random",))
        b = one_point(cfg, heuristics=("random",))
        assert [o.cost for o in a.cells[(0.0, "random")].outcomes] == [
            o.cost for o in b.cells[(0.0, "random")].outcomes
        ]

    def test_run_sweep_structure(self):
        sweep = run_sweep(SweepRequest(
            "mini", "N", [5, 10],
            {n: small_high(n_operators=n, n_instances=2) for n in (5, 10)},
            heuristics=("comp-greedy", "subtree-bottom-up"),
        ))
        assert sweep.x_values == (5.0, 10.0)
        assert all(isinstance(x, float) for x, _h in sweep.cells)
        assert list(sweep.configs) == [5.0, 10.0]
        assert set(sweep.heuristics) == {"comp-greedy", "subtree-bottom-up"}
        assert len(sweep.cells) == 4
        series = sweep.series("comp-greedy")
        assert len(series) == 2
        assert all(cost > 0 for _x, cost in series)

    def test_feasibility_frontier(self):
        sweep = run_sweep(SweepRequest(
            "cliff", "alpha", (1.0, 2.6),
            {a: small_high(n_operators=40, alpha=a, n_instances=1)
             for a in (1.0, 2.6)},
            heuristics=("comp-greedy",),
        ))
        frontier = sweep.feasibility_frontier("comp-greedy")
        assert frontier == 1.0  # 2.6 is infeasible at N=40


class TestSweepTrace:
    def test_sweep_is_one_trace(self):
        """Inline cells join the campaign's trace, so a sweep with more
        cells than the store holds traces evicts no earlier trace."""
        from repro.api import InstanceSpec, SolveRequest
        from repro.telemetry import TRACE_STORE, set_enabled

        previous = set_enabled(True)
        try:
            solve(SolveRequest(spec=InstanceSpec(n_operators=6), seed=1,
                               trace_id="5" * 16))
            config = small_high(
                n_operators=6,
                n_instances=TRACE_STORE.max_traces // 6 + 1,
            )
            with TRACE_STORE.capture() as spans:
                one_point(config)
        finally:
            set_enabled(previous)
        assert TRACE_STORE.get("5" * 16)
        (root,) = [s for s in spans if s.name == "api.sweep"]
        cells = [s for s in spans if s.name == "api.solve"]
        assert len(cells) > TRACE_STORE.max_traces
        assert {s.trace_id for s in cells} == {root.trace_id}


class TestCellCrossPath:
    """A sampled §5 cell's request reproduces the campaign's outcome
    on every path that can solve it: inline, a process pool and the
    HTTP front door."""

    @pytest.fixture(scope="class")
    def cells(self):
        from repro.experiments.figures import fig2a, fig3

        out = []
        for sweep in (fig3((1.5, 2.0), n_instances=2),
                      fig2a((40,), n_instances=2)):
            for (x, h), cell in sorted(sweep.cells.items()):
                if h in ("subtree-bottom-up", "random", "comm-greedy"):
                    for o in cell.outcomes:
                        out.append((
                            cell_request(sweep.configs[x],
                                         o.instance_index, h),
                            (o.cost, o.n_processors, o.failure_stage),
                        ))
        assert {want[2] for _r, want in out} == {None, "placement"}
        return out

    @staticmethod
    def view(result):
        stage = result.failures[0].stage if result.failures else None
        return (result.result.cost if result.ok else None,
                result.n_processors, stage)

    def test_solve(self, cells):
        for request, want in cells:
            assert self.view(solve(request)) == want

    def test_solve_many_process_pool(self, cells):
        results = solve_many([r for r, _w in cells], executor=2)
        assert [self.view(r) for r in results] == [w for _r, w in cells]

    def test_http_dispatch(self, cells):
        from repro.service import AllocationService, ServiceHTTPServer

        async def main():
            server = ServiceHTTPServer(AllocationService())
            await server.service.start()
            try:
                out = []
                for request, _want in cells:
                    raw = json.dumps(
                        {"request": request_to_wire(request)}
                    ).encode()
                    out.append(
                        await server.dispatch("POST", "/v1/submit", raw)
                    )
                return out
            finally:
                await server.aclose()

        for (status, payload), (_r, want) in zip(asyncio.run(main()),
                                                 cells):
            assert status == 200
            body = payload["result"]
            stage = body["failures"][0]["stage"] if body["failures"] \
                else None
            assert (body["cost"], body["n_processors"], stage) == want
