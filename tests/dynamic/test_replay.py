"""Replay driver: pricing, reconciliation, and byte-level determinism."""

import pytest

from repro.api import ReplayRequest, replay
from repro.dynamic import make_trace, reconcile
from repro.dynamic.replay import DEFAULT_SALVAGE_FRACTION


class TestReconcile:
    def test_identical_platforms_cost_nothing(self):
        trace = make_trace("ramp", seed=3, n_operators=8, n_epochs=2)
        from repro.core import allocate

        alloc = allocate(trace.initial, "subtree-bottom-up", rng=0).allocation
        delta = reconcile(alloc, alloc)
        assert delta.total == 0.0
        assert delta.n_migrations == 0
        assert delta.n_purchases == delta.n_decommissions == 0

    def test_renumbered_identical_platform_is_free(self):
        """A re-solve that rebuilds the same machines under new uids
        must not be charged for the renumbering."""
        from repro.core import allocate
        from repro.core.mapping import Allocation
        from repro.platform.resources import Processor

        trace = make_trace("ramp", seed=3, n_operators=8, n_epochs=2)
        alloc = allocate(trace.initial, "subtree-bottom-up", rng=0).allocation
        shift = 100
        renumbered = Allocation(
            instance=alloc.instance,
            processors=tuple(
                Processor(uid=p.uid + shift, spec=p.spec)
                for p in alloc.processors
            ),
            assignment={i: u + shift for i, u in alloc.assignment.items()},
            downloads={
                (u + shift, k): l
                for (u, k), l in alloc.downloads.items()
            },
        )
        delta = reconcile(alloc, renumbered)
        assert delta.purchase_cost == 0.0
        assert delta.salvage_credit == 0.0
        assert delta.n_migrations == 0


class TestPricing:
    def test_initial_epoch_charges_full_platform(self):
        trace = make_trace("ramp", seed=3, n_operators=8, n_epochs=2)
        result = replay(ReplayRequest(trace=trace, policy="static"))
        first = result.records[0]
        assert first.purchase_cost == first.platform_cost
        assert first.salvage_credit == 0.0
        assert first.n_migrations == 0

    def test_cumulative_cost_sums_epoch_reconfig(self):
        trace = make_trace("ramp", seed=3, n_operators=8, n_epochs=3)
        result = replay(ReplayRequest(trace=trace, policy="harvest"))
        assert result.cumulative_cost == pytest.approx(
            sum(r.reconfig_cost for r in result.records)
        )

    def test_salvage_refunds_half_by_default(self):
        assert DEFAULT_SALVAGE_FRACTION == 0.5


class TestDeterminism:
    @pytest.mark.parametrize("policy", ["static", "resolve", "harvest"])
    def test_same_seed_yields_byte_identical_replay(self, policy):
        kw = dict(n_operators=8, n_epochs=4)
        a = replay(ReplayRequest(
            trace=make_trace("churn", seed=99, **kw), policy=policy))
        b = replay(ReplayRequest(
            trace=make_trace("churn", seed=99, **kw), policy=policy))
        assert a.to_json() == b.to_json()

    def test_different_seeds_differ(self):
        kw = dict(n_operators=8, n_epochs=4)
        a = replay(ReplayRequest(
            trace=make_trace("churn", seed=1, **kw), policy="harvest"))
        b = replay(ReplayRequest(
            trace=make_trace("churn", seed=2, **kw), policy="harvest"))
        assert a.to_json() != b.to_json()

    def test_validated_replay_is_deterministic(self):
        kw = dict(n_operators=6, n_epochs=2)
        a = replay(ReplayRequest(
            trace=make_trace("ramp", seed=5, **kw), policy="harvest",
            validate=True, n_results=10))
        b = replay(ReplayRequest(
            trace=make_trace("ramp", seed=5, **kw), policy="harvest",
            validate=True, n_results=10))
        assert a.to_json() == b.to_json()
        assert a.sim_violation_epochs == 0


class TestFailureHandling:
    def test_failed_epoch_keeps_previous_allocation(self):
        """multi-app arrivals break the static policy: the failed epoch
        is recorded and the previous platform keeps running.  A
        departure *before* any arrival only drops load, so the frozen
        plan still serves it (seed 0: app0 departs first)."""
        trace = make_trace("multi-app", seed=0, n_operators=5, n_epochs=4)
        assert "departs" in trace.events[0].label
        result = replay(ReplayRequest(trace=trace, policy="static"))
        assert result.records[1].action == "keep"  # pure departure: OK
        failed = [r for r in result.records if r.action == "failed"]
        assert failed  # every epoch after the first arrival
        assert "arrives" in failed[0].label
        for r in failed:
            assert not r.feasible
            assert r.reconfig_cost == 0.0
        assert result.violation_epochs >= len(failed)


class TestWarmupAwareValidation:
    """The ramp-peak sustain satellite: the 4 recorded ramp/harvest
    misses (BENCH_sim.json) are pipeline-fill measurement transients —
    the warm-up-aware window (``sim_warmup=True``) must clear them,
    while a genuinely overloaded platform must keep failing."""

    def test_ramp_harvest_transient_misses_disappear(self):
        legacy = replay(
            ReplayRequest(trace="ramp", policy="harvest", seed=2009,
                          validate=True)
        )
        # the 4 transient misses recorded honestly by PR 3
        assert legacy.sim_violation_epochs == 4
        warm = replay(
            ReplayRequest(trace="ramp", policy="harvest", seed=2009,
                          validate=True, sim_warmup=True)
        )
        assert warm.sim_violation_epochs == 0
        # warm-up changes *measurement*, never the replay itself
        assert [r.action for r in warm.records] == [
            r.action for r in legacy.records
        ]
        assert warm.cumulative_cost == legacy.cumulative_cost
        assert all(
            r.sim_misses == 0 for r in warm.records
            if r.sim_misses is not None
        )

    def test_genuine_saturation_still_fails_under_warmup(self):
        from repro.core import allocate
        from repro.core.throughput import max_throughput
        from repro.dynamic.replay import pipeline_warmup_results
        from repro.simulator import simulate_allocation, sustains_target

        trace = make_trace("ramp", seed=2009)
        alloc = allocate(
            trace.initial, "subtree-bottom-up", rng=0
        ).allocation
        overload = max_throughput(alloc).rho_max * 1.5
        warmup = pipeline_warmup_results(alloc)
        sim = simulate_allocation(
            alloc, offered_rate=overload, n_results=30 + warmup,
            warmup_results=warmup,
        )
        assert not sustains_target(sim, overload)

    def test_warmup_floor_respects_short_runs(self):
        """The window clamp: a warm-up floor beyond the run length
        still leaves the last two completions measurable."""
        from repro.core import allocate
        from repro.simulator import simulate_allocation

        trace = make_trace("ramp", seed=2009)
        alloc = allocate(
            trace.initial, "subtree-bottom-up", rng=0
        ).allocation
        sim = simulate_allocation(alloc, n_results=5, warmup_results=999)
        assert sim.achieved_rate > 0.0

    def test_default_off_is_bit_identical_to_legacy(self):
        """``warmup_results=0`` must not perturb the historical window."""
        from repro.core import allocate
        from repro.simulator import simulate_allocation

        trace = make_trace("churn", seed=2009)
        alloc = allocate(
            trace.initial, "subtree-bottom-up", rng=0
        ).allocation
        assert simulate_allocation(alloc, n_results=20) == \
            simulate_allocation(alloc, n_results=20, warmup_results=0)
