"""Wire-format round trips: requests ⇄ JSON dicts, losslessly.

Property-style: requests are drawn from seeded generators across the
whole field space, pushed through ``json.dumps``/``loads`` (so tuples
really do become lists and come back), and must equal the original.
Unknown fields are rejected with a close-match suggestion at every
nesting level.
"""

import dataclasses
import json
import random

import pytest

from repro import quick_instance
from repro.api import (
    InstanceSpec,
    ReplayRequest,
    SolveRequest,
    SweepRequest,
    WireFormatError,
    request_from_wire,
    request_to_wire,
)
from repro.api.wire import WIRE_VERSION
from repro.dynamic import make_trace
from repro.io import instance_to_dict


def _json_round(wire: dict) -> dict:
    """Force a real serialization boundary."""
    return json.loads(json.dumps(wire))


def _random_solve_request(rng: random.Random) -> SolveRequest:
    strategies = ("subtree-bottom-up", "random", "comp-greedy")
    portfolio = (
        tuple(rng.sample(strategies, rng.randint(1, 3)))
        if rng.random() < 0.5 else None
    )
    return SolveRequest(
        spec=InstanceSpec(
            n_operators=rng.randint(5, 40),
            alpha=rng.choice((0.9, 1.2, 1.7)),
            seed=rng.randint(0, 999),
            rho=rng.choice((1.0, 0.5)),
        ),
        strategy=rng.choice(strategies),
        portfolio=portfolio,
        server=rng.choice((None, "three-loop", "random")),
        downgrade=rng.random() < 0.5,
        refine=rng.choice((False, True, "local-search")),
        seed=rng.choice((None, rng.randint(0, 2**31 - 1))),
        time_budget_s=rng.choice((None, 1.5)),
        label=rng.choice(("", "run-42")),
        bid=rng.choice((None, 0.0, 12.5)),
    )


def _random_replay_request(rng: random.Random) -> ReplayRequest:
    return ReplayRequest(
        trace=rng.choice(("ramp", "diurnal", "churn", "multi-app")),
        policy=rng.choice(("static", "resolve", "harvest", "trade")),
        seed=rng.randint(0, 999),
        validate=rng.random() < 0.5,
        n_results=rng.choice((10, 30)),
        migration_cost=rng.choice((150.0, 25.0)),
        salvage_fraction=rng.choice((0.5, 0.1)),
        sim_kernel=rng.choice(("warm", "naive")),
        sim_warmup=rng.random() < 0.5,
        migration_model=rng.choice(("flat", "state-size")),
        migration_cost_per_mb=rng.choice((1.25, 0.4)),
        sim_transitions=rng.random() < 0.5,
        pricing=rng.choice((None, "proportional", "pricing:fixed")),
        tenant_budgets=rng.choice(
            (None, (("app0", 100.0), ("app1", 50.0)))
        ),
    )


class TestSolveRoundTrip:
    @pytest.mark.parametrize("seed", range(12))
    def test_spec_requests_round_trip_exactly(self, seed):
        request = _random_solve_request(random.Random(seed))
        assert request_from_wire(
            _json_round(request_to_wire(request))
        ) == request

    def test_instance_request_round_trips_structurally(self):
        instance = quick_instance(8, alpha=1.2, seed=5)
        request = SolveRequest(instance=instance, seed=9, label="full")
        back = request_from_wire(_json_round(request_to_wire(request)))
        # ProblemInstance equality is identity-based; compare the
        # canonical dict rendering plus every scalar field instead
        assert instance_to_dict(back.instance) == instance_to_dict(instance)
        for field in dataclasses.fields(SolveRequest):
            if field.name == "instance":
                continue
            assert getattr(back, field.name) == getattr(request, field.name)

    def test_kind_tag_present(self):
        wire = request_to_wire(
            SolveRequest(spec=InstanceSpec(seed=1))
        )
        assert wire["kind"] == "solve"
        assert wire["version"] == WIRE_VERSION


class TestReplayRoundTrip:
    @pytest.mark.parametrize("seed", range(12))
    def test_round_trips_exactly(self, seed):
        request = _random_replay_request(random.Random(seed))
        assert request_from_wire(
            _json_round(request_to_wire(request))
        ) == request

    def test_in_memory_trace_rejected_with_guidance(self):
        request = ReplayRequest(trace=make_trace("ramp", seed=3))
        with pytest.raises(WireFormatError, match="family name"):
            request_to_wire(request)

    def test_market_fields_round_trip(self):
        # budgets arrive as a mapping, are normalised to sorted pairs,
        # become nested lists over JSON, and must come back as the same
        # normalised tuple-of-tuples
        request = ReplayRequest(
            trace="multi-app", policy="market", seed=9,
            pricing="proportional",
            tenant_budgets={"app1": 50.0, "app0": 100.0},
        )
        back = request_from_wire(_json_round(request_to_wire(request)))
        assert back == request
        assert back.tenant_budgets == (("app0", 100.0), ("app1", 50.0))

    def test_bid_round_trips_on_solve(self):
        request = SolveRequest(
            spec=InstanceSpec(seed=1), seed=1, bid=7.5
        )
        back = request_from_wire(_json_round(request_to_wire(request)))
        assert back.bid == 7.5


class TestTraceIdRoundTrip:
    def test_solve_trace_id_survives_the_wire(self):
        request = SolveRequest(
            spec=InstanceSpec(seed=2), seed=2, trace_id="feedface01020304"
        )
        back = request_from_wire(_json_round(request_to_wire(request)))
        assert back.trace_id == "feedface01020304"

    def test_replay_trace_id_survives_the_wire(self):
        request = ReplayRequest(
            trace="ramp", policy="static", seed=4,
            trace_id="0123456789abcdef",
        )
        back = request_from_wire(_json_round(request_to_wire(request)))
        assert back.trace_id == "0123456789abcdef"

    def test_trace_id_excluded_from_equality(self):
        """Two requests that compute the same thing are equal no matter
        who is watching — the bit-identity and cache contracts."""
        a = SolveRequest(spec=InstanceSpec(seed=3), seed=3,
                         trace_id="aaaaaaaaaaaaaaaa")
        b = SolveRequest(spec=InstanceSpec(seed=3), seed=3,
                         trace_id="bbbbbbbbbbbbbbbb")
        assert a == b

    def test_cache_key_invariant_under_trace_id(self):
        from repro.service.broker import request_cache_key

        a = SolveRequest(spec=InstanceSpec(seed=5), seed=5,
                         trace_id="aaaaaaaaaaaaaaaa")
        b = SolveRequest(spec=InstanceSpec(seed=5), seed=5)
        assert request_cache_key(a) == request_cache_key(b)

    def test_untraced_result_dict_has_no_trace_id(self):
        from repro.api import solve

        request = SolveRequest(spec=InstanceSpec(seed=6), seed=6)
        assert "trace_id" not in solve(request).to_dict()


class TestSweepRoundTrip:
    def test_round_trips_exactly(self):
        from repro.methodology import small_high

        alphas = (0.9, 1.3, 1.7)
        request = SweepRequest(
            "fig3", "alpha", alphas,
            {a: small_high(alpha=a, n_instances=2) for a in alphas},
            heuristics=("subtree-bottom-up", "random"),
        )
        back = request_from_wire(_json_round(request_to_wire(request)))
        assert back == request
        assert isinstance(back.x_values, tuple)
        assert all(
            isinstance(c.size_range_mb, tuple)
            for c in back.configs.values()
        )


class TestRejection:
    def test_unknown_top_level_field_suggested(self):
        wire = request_to_wire(SolveRequest(spec=InstanceSpec(seed=1)))
        wire["portfolo"] = ["random"]
        with pytest.raises(WireFormatError, match="did you mean 'portfolio'"):
            request_from_wire(wire)

    def test_unknown_spec_field_suggested(self):
        wire = request_to_wire(SolveRequest(spec=InstanceSpec(seed=1)))
        wire["spec"]["n_operator"] = 9
        with pytest.raises(
            WireFormatError, match="did you mean 'n_operators'"
        ):
            request_from_wire(wire)

    def test_unknown_replay_field_suggested(self):
        wire = request_to_wire(ReplayRequest(trace="ramp"))
        wire["polcy"] = "harvest"
        with pytest.raises(WireFormatError, match="did you mean 'policy'"):
            request_from_wire(wire)

    def test_unknown_market_field_suggested(self):
        wire = request_to_wire(ReplayRequest(trace="ramp"))
        wire["tenant_budget"] = [["app0", 1.0]]
        with pytest.raises(
            WireFormatError, match="did you mean 'tenant_budgets'"
        ):
            request_from_wire(wire)

    def test_misspelled_bid_suggested(self):
        wire = request_to_wire(SolveRequest(spec=InstanceSpec(seed=1)))
        wire["bidd"] = 3.0
        with pytest.raises(WireFormatError, match="did you mean 'bid'"):
            request_from_wire(wire)

    def test_negative_bid_is_a_wire_error(self):
        wire = request_to_wire(SolveRequest(spec=InstanceSpec(seed=1)))
        wire["bid"] = -1.0
        with pytest.raises(WireFormatError, match="bid"):
            request_from_wire(wire)

    def test_unknown_kind_suggested(self):
        with pytest.raises(WireFormatError, match="did you mean 'solve'"):
            request_from_wire({"kind": "solv"})

    def test_missing_kind(self):
        with pytest.raises(WireFormatError, match="'kind'"):
            request_from_wire({"strategy": "random"})

    def test_non_object_payload(self):
        with pytest.raises(WireFormatError, match="JSON object"):
            request_from_wire([1, 2, 3])

    def test_future_version_rejected(self):
        wire = request_to_wire(SolveRequest(spec=InstanceSpec(seed=1)))
        wire["version"] = WIRE_VERSION + 1
        with pytest.raises(WireFormatError, match="wire version"):
            request_from_wire(wire)

    def test_bad_strategy_name_is_a_wire_error(self):
        wire = request_to_wire(SolveRequest(spec=InstanceSpec(seed=1)))
        wire["strategy"] = "subtree"  # registry typo → decode-time 400
        with pytest.raises(WireFormatError, match="subtree-bottom-up"):
            request_from_wire(wire)

    def test_exclusive_instance_spec_violation(self):
        wire = request_to_wire(SolveRequest(spec=InstanceSpec(seed=1)))
        wire["spec"] = None
        with pytest.raises(WireFormatError, match="exactly one"):
            request_from_wire(wire)
