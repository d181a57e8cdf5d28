"""Flow-kernel equivalence: warm vs naive.

The production ``warm`` kernel (persistent :class:`FlowNetwork`,
component-scoped refills, reserved fast path, per-fill numpy choice
and structure-memoised refills) must produce **bit identical**
:class:`SimulationResult`\\ s to the ``naive`` reference oracle (flow
table rebuilt + rates recomputed from scratch on every flow event) —
on real pipeline allocations, at feasible and saturating offered
rates, under both flow policies, and across whole simulator-validated
dynamic replays on the seeded traces.
"""

import pytest

import repro
from repro.core import allocate
from repro.errors import ModelError
from repro.simulator import (
    FLOW_KERNELS,
    SteadyStateSimulator,
    flow_kernel,
    simulate_allocation,
)

#: The kernel that must match the ``naive`` oracle bit-for-bit.
FAST_KERNELS = tuple(k for k in FLOW_KERNELS if k != "naive")


@pytest.fixture(scope="module")
def alloc():
    inst = repro.quick_instance(20, alpha=1.4, seed=7)
    return allocate(inst, "subtree-bottom-up", rng=1).allocation


def _run(alloc, kernel, **kw):
    return simulate_allocation(alloc, kernel=kernel, **kw)


class TestBitIdentical:
    @pytest.mark.parametrize("kernel", FAST_KERNELS)
    @pytest.mark.parametrize("flow_policy", ["reserved", "elastic"])
    @pytest.mark.parametrize("rate_mult", [1.0, 2.5])
    def test_simulation_results_match(
        self, alloc, kernel, flow_policy, rate_mult
    ):
        rho = alloc.instance.rho * rate_mult
        a = _run(alloc, kernel, offered_rate=rho, n_results=30,
                 flow_policy=flow_policy)
        b = _run(alloc, "naive", offered_rate=rho, n_results=30,
                 flow_policy=flow_policy)
        # dataclass equality covers every physics field, floats compared
        # exactly (kernel provenance / warm counters are compare=False)
        assert a == b
        assert a.kernel == kernel and b.kernel == "naive"

    @pytest.mark.parametrize("kernel", FAST_KERNELS)
    def test_overloaded_run_matches(self, alloc, kernel):
        """Saturation branch: far past the analytic maximum the queue
        backs up; both kernels must agree on the whole trajectory."""
        rho = alloc.instance.rho * 8.0
        a = _run(alloc, kernel, offered_rate=rho, n_results=25)
        b = _run(alloc, "naive", offered_rate=rho, n_results=25)
        assert a == b
        assert a.saturated or a.achieved_rate < rho

    def test_warm_is_default(self, alloc):
        sim = SteadyStateSimulator(alloc)
        assert sim.kernel == "warm"

    def test_warm_counters_surface(self, alloc):
        """An elastic run exercises real refills; the warm kernel must
        report its cache outcomes, and the oracle never does."""
        rho = alloc.instance.rho * 2.5
        warm = _run(alloc, "warm", offered_rate=rho, n_results=30,
                    flow_policy="elastic")
        cold = _run(alloc, "naive", offered_rate=rho, n_results=30,
                    flow_policy="elastic")
        assert warm.warm_hits + warm.warm_fallbacks > 0
        assert warm.warm_hits > 0  # steady state cycles structures
        assert cold.warm_hits == 0 and cold.warm_fallbacks == 0

    def test_unknown_kernel_rejected(self, alloc):
        with pytest.raises(ModelError):
            SteadyStateSimulator(alloc, kernel="magic")

    def test_flow_kernel_context_manager(self, alloc):
        with flow_kernel("naive"):
            assert SteadyStateSimulator(alloc).kernel == "naive"
        assert SteadyStateSimulator(alloc).kernel == "warm"
        with pytest.raises(ModelError):
            with flow_kernel("magic"):
                pass  # pragma: no cover


class TestReplayEquivalence:
    """Whole simulator-validated replays on the seeded dynamic traces
    must render to byte-identical JSON under both kernels."""

    @pytest.mark.parametrize("trace_name", ["churn", "multi-app"])
    def test_validated_replay_bit_identical(self, trace_name):
        from repro.api import ReplayRequest, replay
        from repro.dynamic import make_trace

        def run(kernel):
            return replay(
                ReplayRequest(
                    trace=make_trace(trace_name, seed=2009),
                    policy="harvest",
                    validate=True,
                    n_results=20,
                    sim_kernel=kernel,
                )
            )

        oracle = run("naive").to_json()
        for kernel in FAST_KERNELS:
            assert run(kernel).to_json() == oracle

    def test_bad_kernel_rejected_at_request(self):
        from repro.api import ReplayRequest

        with pytest.raises(ValueError):
            ReplayRequest(trace="ramp", sim_kernel="magic")

    @pytest.mark.parametrize("retired", ["incremental", "vectorized"])
    def test_retired_kernel_names_rejected(self, retired):
        """No alias table: the old names fail at the door and the
        message names the kernels that exist."""
        from repro.api import ReplayRequest

        with pytest.raises(ValueError, match=r"\('warm', 'naive'\)"):
            ReplayRequest(trace="ramp", sim_kernel=retired)
        with pytest.raises(ModelError):
            with flow_kernel(retired):
                pass  # pragma: no cover

    def test_request_validation_mirrors_engine_kernels(self):
        """ReplayRequest hard-codes the kernel names to avoid importing
        the simulator on every construction; keep the mirror honest."""
        from repro.api import ReplayRequest

        for kernel in FLOW_KERNELS:
            ReplayRequest(trace="ramp", sim_kernel=kernel)  # must not raise
        assert FLOW_KERNELS == ("warm", "naive")
        assert ReplayRequest(trace="ramp").sim_kernel == "warm"


@pytest.fixture(scope="module")
def multi_alloc():
    """A platform with ≥ 2 machines, so injected transfers have two
    distinct NIC endpoints to contend on."""
    inst = repro.quick_instance(40, alpha=1.8, seed=3)
    a = allocate(inst, "subtree-bottom-up", rng=1).allocation
    assert a.n_processors >= 2
    return a


class TestInjectedFlowEquivalence:
    """Exogenous drain/state-transfer injection (the transition
    simulator's path) must stay bit-identical across kernels and keep
    the run alive until every injected flow drains."""

    def _inject(self, multi_alloc):
        from repro.simulator import InjectedFlow

        uids = sorted(multi_alloc.processor_map)
        if len(uids) < 2:
            pytest.skip("needs a multi-machine platform")
        u, v = uids[0], uids[1]
        link = ("xlink", u, v)
        return (
            InjectedFlow(
                key=("xfer", 0), volume_mb=200.0,
                constraints=(("nic", "P", u), ("nic", "P", v), link),
            ),
            InjectedFlow(
                key=("xdrain", 0), volume_mb=5.0,
                constraints=(("nic", "P", u), ("nic", "P", v), link),
            ),
        ), {link: multi_alloc.instance.network.processor_link_mbps}

    @pytest.mark.parametrize("kernel", FAST_KERNELS)
    @pytest.mark.parametrize("flow_policy", ["elastic", "reserved"])
    def test_kernels_match_with_injection(
        self, multi_alloc, kernel, flow_policy
    ):
        inject, extra = self._inject(multi_alloc)

        def run(k):
            return SteadyStateSimulator(
                multi_alloc, n_results=25, flow_policy=flow_policy,
                kernel=k, inject=inject, extra_constraints=extra,
            ).run()

        a, b = run(kernel), run("naive")
        assert a == b
        assert set(a.injected_finish) == {("xfer", 0), ("xdrain", 0)}
        assert all(t > 0.0 for t in a.injected_finish.values())

    def test_run_outlives_results_until_drained(self, multi_alloc):
        """A huge injected transfer finishes after the n-th result; the
        run must keep going until it drains (bounded by the horizon)."""
        inject, extra = self._inject(multi_alloc)
        big = (inject[0].__class__(
            key=("xfer", 0), volume_mb=5000.0,
            constraints=inject[0].constraints,
        ),)
        sim = SteadyStateSimulator(
            multi_alloc, n_results=5, flow_policy="elastic",
            inject=big, extra_constraints=extra,
        )
        res = sim.run()
        assert res.n_root_results >= 5
        if ("xfer", 0) in res.injected_finish:
            assert (
                res.injected_finish[("xfer", 0)]
                >= res.root_completions[4]
            )

    def test_duplicate_injected_keys_rejected(self, multi_alloc):
        from repro.simulator import InjectedFlow

        inject, extra = self._inject(multi_alloc)
        dup = (inject[0], InjectedFlow(
            key=("xfer", 0), volume_mb=1.0,
            constraints=inject[0].constraints,
        ))
        with pytest.raises(ModelError, match="unique"):
            SteadyStateSimulator(
                multi_alloc, inject=dup, extra_constraints=extra
            )

    def test_no_injection_field_defaults_empty(self, multi_alloc):
        res = simulate_allocation(multi_alloc, n_results=10)
        assert res.injected_finish == {}
