"""Tests for the typed request/result objects."""

import math
import pickle

import pytest

import repro
from repro.api import (
    FailureRecord,
    InstanceSpec,
    ReplayRequest,
    SolveRequest,
    SweepRequest,
    UnknownStrategyError,
    solve,
)
from repro.errors import PlacementError, ServerSelectionError


class TestInstanceSpec:
    def test_build_matches_quick_instance(self):
        spec = InstanceSpec(n_operators=14, alpha=1.3, seed=5)
        built = spec.build()
        direct = repro.quick_instance(14, alpha=1.3, seed=5)
        assert built.name == direct.name
        assert built.tree.total_work == direct.tree.total_work

    def test_rho_override(self):
        assert InstanceSpec(n_operators=8, rho=2.5).build().rho == 2.5

    def test_build_is_deterministic(self):
        spec = InstanceSpec(n_operators=10, seed=9)
        assert spec.build().tree.total_work == spec.build().tree.total_work

    @pytest.mark.parametrize("field, value, error", [
        ("n_operators", -1, ValueError),
        ("n_operators", 0, ValueError),
        ("n_operators", "x", TypeError),
        ("n_operators", 20.0, TypeError),
        ("n_operators", True, TypeError),
        ("seed", 1.5, TypeError),
        ("seed", None, TypeError),
        ("alpha", -1, ValueError),
        ("alpha", "0.9", TypeError),
        ("alpha", math.nan, ValueError),
        ("alpha", math.inf, ValueError),
        ("n_object_types", 0, ValueError),
        ("rho", 0.0, ValueError),
        ("rho", math.nan, ValueError),
        ("rho", math.inf, ValueError),
    ])
    def test_bad_field_rejected_at_construction(self, field, value, error):
        with pytest.raises(error, match=field):
            InstanceSpec(**{field: value})

    def test_zero_alpha_constructs(self):
        assert InstanceSpec(alpha=0).alpha == 0


class TestSolveRequest:
    def test_requires_exactly_one_input(self, micro_instance):
        with pytest.raises(ValueError, match="exactly one"):
            SolveRequest()
        with pytest.raises(ValueError, match="exactly one"):
            SolveRequest(instance=micro_instance, spec=InstanceSpec())

    @pytest.mark.parametrize("field, value, error", [
        ("seed", 1.5, TypeError),
        ("seed", "x", TypeError),
        ("seed", -1, ValueError),
        ("bid", "x", TypeError),
        ("bid", math.nan, ValueError),
        ("bid", math.inf, ValueError),
        ("bid", -1.0, ValueError),
        ("time_budget_s", "x", TypeError),
        ("time_budget_s", math.nan, ValueError),
    ])
    def test_bad_field_rejected_at_construction(self, field, value, error):
        with pytest.raises(error, match=field):
            SolveRequest(spec=InstanceSpec(), **{field: value})

    def test_spec_passed_as_instance_is_a_type_error(self):
        with pytest.raises(TypeError, match="spec="):
            SolveRequest(instance=InstanceSpec())

    def test_unknown_strategy_fails_fast_with_suggestion(
        self, micro_instance
    ):
        with pytest.raises(UnknownStrategyError) as exc:
            SolveRequest(instance=micro_instance, strategy="subtree")
        assert "did you mean 'subtree-bottom-up'?" in str(exc.value)

    def test_unknown_server_fails_fast(self, micro_instance):
        with pytest.raises(UnknownStrategyError):
            SolveRequest(instance=micro_instance, server="three-lop")

    def test_wrong_namespace_reference_rejected(self, micro_instance):
        """'server:random' resolves fine — in the wrong namespace for
        the strategy field, which is a field mix-up, not a typo."""
        with pytest.raises(ValueError, match="takes placement"):
            SolveRequest(instance=micro_instance, strategy="server:random")
        with pytest.raises(ValueError, match="takes server"):
            SolveRequest(
                instance=micro_instance, server="placement:random"
            )
        from repro.api import ReplayRequest

        with pytest.raises(ValueError, match="takes policy"):
            ReplayRequest(trace="ramp", policy="placement:random")

    def test_unknown_refine_strategy_fails_fast(self, micro_instance):
        with pytest.raises(UnknownStrategyError) as exc:
            SolveRequest(instance=micro_instance, refine="local-serach")
        assert "did you mean 'local-search'?" in str(exc.value)

    def test_empty_portfolio_rejected(self, micro_instance):
        with pytest.raises(ValueError, match="portfolio"):
            SolveRequest(instance=micro_instance, portfolio=())

    def test_portfolio_list_coerced_to_tuple(self, micro_instance):
        req = SolveRequest(
            instance=micro_instance, portfolio=["random", "comp-greedy"]
        )
        assert req.portfolio == ("random", "comp-greedy")
        assert req.strategies == ("random", "comp-greedy")

    def test_namespaced_strategy_accepted(self, micro_instance):
        req = SolveRequest(
            instance=micro_instance,
            strategy="placement:subtree-bottom-up",
            server="server:three-loop",
        )
        assert req.strategies == ("placement:subtree-bottom-up",)

    def test_request_is_picklable(self):
        req = SolveRequest(spec=InstanceSpec(n_operators=8), seed=3)
        assert pickle.loads(pickle.dumps(req)) == req

    def test_describe(self):
        req = SolveRequest(spec=InstanceSpec(n_operators=8, seed=2))
        assert "solve[subtree-bottom-up]" in req.describe()
        assert "n=8" in req.describe()


class TestSolveResult:
    def test_ok_result_properties(self):
        sr = solve(
            SolveRequest(
                spec=InstanceSpec(n_operators=10, alpha=1.2, seed=4), seed=4
            )
        )
        assert sr.ok
        assert sr.cost > 0
        assert sr.n_processors >= 1
        assert sr.heuristic == "subtree-bottom-up"
        assert sr.backend == "serial"
        d = sr.to_dict()
        assert d["ok"] and d["cost"] == sr.cost
        assert d["failures"] == []
        sr.raise_for_failure()  # no-op on success

    def test_failed_result_raises_original_type(self):
        record = FailureRecord(
            strategy="comp-greedy", stage="placement",
            error_type="PlacementError", message="boom",
        )
        assert isinstance(record.to_exception(), PlacementError)
        record2 = FailureRecord(
            strategy="x", stage="server-selection",
            error_type="ServerSelectionError", message="boom",
        )
        assert isinstance(record2.to_exception(), ServerSelectionError)

    def test_unknown_error_type_falls_back(self):
        record = FailureRecord(
            strategy="x", stage="?", error_type="NoSuchError", message="m"
        )
        from repro.errors import AllocationError

        assert isinstance(record.to_exception(), AllocationError)

    def test_cost_on_failure_raises(self):
        sr = solve(
            SolveRequest(
                spec=InstanceSpec(n_operators=25, alpha=2.9, seed=1),
                strategy="comp-greedy",
                seed=0,
            )
        )
        if sr.ok:  # pragma: no cover - depends on the seeded instance
            pytest.skip("instance unexpectedly feasible")
        assert not sr.ok
        assert sr.failures[0].stage == "placement"
        with pytest.raises(ValueError, match="request failed"):
            sr.cost


class TestReplayRequest:
    def test_unknown_policy_fails_fast(self):
        with pytest.raises(UnknownStrategyError) as exc:
            ReplayRequest(trace="ramp", policy="harvset")
        assert "did you mean 'harvest'?" in str(exc.value)

    def test_resolve_trace_by_name(self):
        req = ReplayRequest(trace="ramp", policy="static", seed=7)
        trace = req.resolve_trace()
        assert trace.name == "ramp" and trace.seed == 7

    def test_resolve_trace_passthrough(self):
        from repro.dynamic import make_trace

        trace = make_trace("ramp", seed=3)
        assert ReplayRequest(trace=trace).resolve_trace() is trace

    def test_every_trace_family_accepted(self):
        """The request checks names against the factory table itself;
        every family the CLI presents must pass it."""
        from repro.dynamic.traces import TRACE_FACTORIES, TRACE_ORDER

        assert set(TRACE_ORDER) == set(TRACE_FACTORIES)
        for name in TRACE_ORDER:
            assert ReplayRequest(trace=name).trace == name

    def test_unknown_trace_fails_fast_with_suggestion(self):
        with pytest.raises(ValueError) as exc:
            ReplayRequest(trace="chrun")
        assert "unknown trace 'chrun'; did you mean 'churn'?" in str(
            exc.value
        )
        with pytest.raises(TypeError, match="trace must be"):
            ReplayRequest(trace=3)

    @pytest.mark.parametrize("field, value, error", [
        ("seed", 1.5, TypeError),
        ("n_results", 0, ValueError),
        ("n_results", True, TypeError),
        ("migration_cost", -5, ValueError),
        ("migration_cost_per_mb", math.nan, ValueError),
        ("salvage_fraction", "x", TypeError),
        ("salvage_fraction", math.nan, ValueError),
        ("salvage_fraction", 1.5, ValueError),
        ("validate", 1, TypeError),
        ("sim_warmup", "yes", TypeError),
        ("sim_transitions", None, TypeError),
    ])
    def test_bad_field_rejected_at_construction(self, field, value, error):
        with pytest.raises(error, match=field):
            ReplayRequest(trace="ramp", **{field: value})


class TestSweepRequest:
    @staticmethod
    def configs(*xs):
        from repro.experiments import small_high

        return {x: small_high(n_operators=int(x), n_instances=1) for x in xs}

    def test_points_normalised_to_floats_in_x_order(self):
        request = SweepRequest("s", "N", [20, 10], self.configs(10, 20),
                               heuristics=["random"])
        assert request.x_values == (20.0, 10.0)
        assert list(request.configs) == [20.0, 10.0]
        assert all(type(x) is float for x in request.configs)
        assert request.heuristics == ("random",)

    def test_point_without_config_rejected(self):
        with pytest.raises(ValueError, match=r"missing \[20.0\]"):
            SweepRequest("s", "N", (10, 20), self.configs(10))

    def test_unlisted_config_rejected(self):
        with pytest.raises(ValueError, match=r"unlisted \[20.0\]"):
            SweepRequest("s", "N", (10,), self.configs(10, 20))

    def test_unknown_heuristic_fails_fast(self):
        with pytest.raises(UnknownStrategyError):
            SweepRequest("s", "N", (10,), self.configs(10),
                         heuristics=("nope",))
        with pytest.raises(ValueError, match="takes placement"):
            SweepRequest("s", "N", (10,), self.configs(10),
                         heuristics=("policy:static",))
