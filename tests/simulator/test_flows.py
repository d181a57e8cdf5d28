"""Tests for bounded multi-port max-min fair sharing."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.simulator.flows import (
    CapacityConstraint,
    FlowNetwork,
    FlowSpec,
    _progressive_fill,
    max_min_rates,
)


def solve(flows, caps):
    return max_min_rates(
        [FlowSpec(fid, tuple(cs), cap) for fid, cs, cap in flows],
        [CapacityConstraint(cid, c) for cid, c in caps.items()],
    )


class TestTextbookCases:
    def test_single_link_equal_share(self):
        rates = solve(
            [("a", ["L"], None), ("b", ["L"], None), ("c", ["L"], None)],
            {"L": 9.0},
        )
        assert all(r == pytest.approx(3.0) for r in rates.values())

    def test_classic_two_link_chain(self):
        """Flows: f1 on L1+L2, f2 on L1, f3 on L2; caps 10 each →
        max-min: f1=5, f2=5, f3=5."""
        rates = solve(
            [
                ("f1", ["L1", "L2"], None),
                ("f2", ["L1"], None),
                ("f3", ["L2"], None),
            ],
            {"L1": 10.0, "L2": 10.0},
        )
        assert rates["f1"] == pytest.approx(5.0)
        assert rates["f2"] == pytest.approx(5.0)
        assert rates["f3"] == pytest.approx(5.0)

    def test_asymmetric_bottleneck(self):
        """f1 on L1+L2 (L2 tight), f2 on L1: f1 frozen at 2 by L2; f2
        takes the rest of L1."""
        rates = solve(
            [("f1", ["L1", "L2"], None), ("f2", ["L1"], None)],
            {"L1": 10.0, "L2": 2.0},
        )
        assert rates["f1"] == pytest.approx(2.0)
        assert rates["f2"] == pytest.approx(8.0)

    def test_caps_respected_and_redistributed(self):
        rates = solve(
            [("slow", ["L"], 1.0), ("fast", ["L"], None)],
            {"L": 10.0},
        )
        assert rates["slow"] == pytest.approx(1.0)
        assert rates["fast"] == pytest.approx(9.0)

    def test_all_capped_below_capacity(self):
        rates = solve(
            [("a", ["L"], 2.0), ("b", ["L"], 3.0)],
            {"L": 100.0},
        )
        assert rates["a"] == pytest.approx(2.0)
        assert rates["b"] == pytest.approx(3.0)

    def test_zero_capacity_starves(self):
        rates = solve(
            [("a", ["L", "Z"], None), ("b", ["L"], None)],
            {"L": 10.0, "Z": 0.0},
        )
        assert rates["a"] == pytest.approx(0.0)
        assert rates["b"] == pytest.approx(10.0)

    def test_no_flows(self):
        assert solve([], {"L": 5.0}) == {}

    def test_uncapped_unconstrained_flow_rejected(self):
        with pytest.raises(ValueError):
            solve([("a", [], None)], {})

    def test_capped_unconstrained_flow_gets_cap(self):
        rates = solve([("a", [], 7.0)], {})
        assert rates["a"] == pytest.approx(7.0)


class TestBoundedMultiPort:
    def test_nic_bounds_total_of_parallel_transfers(self):
        """One sender NIC shared by two receivers: each gets half the
        NIC even though both links have spare capacity."""
        rates = solve(
            [
                ("to1", ["nicS", "link1", "nic1"], None),
                ("to2", ["nicS", "link2", "nic2"], None),
            ],
            {"nicS": 100.0, "link1": 1000.0, "link2": 1000.0,
             "nic1": 1000.0, "nic2": 1000.0},
        )
        assert rates["to1"] == pytest.approx(50.0)
        assert rates["to2"] == pytest.approx(50.0)

    def test_feasible_reservations_all_granted(self):
        """If Σ caps ≤ capacity on every constraint, every flow gets its
        cap — the property the `reserved` simulator policy relies on."""
        flows = [
            ("a", ["n1", "l12", "n2"], 30.0),
            ("b", ["n1", "l13", "n3"], 40.0),
            ("c", ["n2", "l23", "n3"], 50.0),
        ]
        caps = {"n1": 70.0, "n2": 80.0, "n3": 90.0, "l12": 30.0,
                "l13": 40.0, "l23": 50.0}
        rates = solve(flows, caps)
        assert rates["a"] == pytest.approx(30.0)
        assert rates["b"] == pytest.approx(40.0)
        assert rates["c"] == pytest.approx(50.0)


def _random_scenario(rng, n_flows, n_constraints):
    """Constraints (some zero-capacity, some saturated-from-start by a
    tiny cap) and flows (mixed capped/elastic)."""
    caps = {}
    for j in range(n_constraints):
        r = rng.random()
        if r < 0.15:
            caps[f"c{j}"] = 0.0  # saturated from the start
        elif r < 0.3:
            caps[f"c{j}"] = float(rng.uniform(0.1, 2.0))  # tight
        else:
            caps[f"c{j}"] = float(rng.uniform(5, 100.0))
    flows = []
    for i in range(n_flows):
        member = tuple(
            f"c{j}" for j in range(n_constraints) if rng.random() < 0.45
        )
        if not member:
            member = (f"c{int(rng.integers(0, n_constraints))}",)
        cap = float(rng.uniform(0.2, 30)) if rng.random() < 0.6 else None
        flows.append((f"f{i}", member, cap))
    return flows, caps


class TestFlowNetworkIncremental:
    """The persistent network must equal a from-scratch recompute
    *bit for bit* after any add/remove sequence, and agree with one
    global filling pass over every flow up to float rounding."""

    @given(
        n_flows=st.integers(1, 10),
        n_constraints=st.integers(1, 5),
        seed=st.integers(0, 2000),
    )
    @settings(max_examples=80, deadline=None)
    def test_random_add_remove_sequences(
        self, n_flows, n_constraints, seed
    ):
        import numpy as np

        rng = np.random.default_rng(seed)
        flows, caps = _random_scenario(rng, n_flows, n_constraints)

        net = FlowNetwork()
        for cid, c in caps.items():
            net.add_constraint(cid, c)
        alive: dict[str, tuple] = {}
        # interleave arrivals with random departures
        for fid, member, cap in flows:
            net.add_flow(fid, member, cap)
            alive[fid] = (member, cap)
            if alive and rng.random() < 0.35:
                victim = sorted(alive)[int(rng.integers(0, len(alive)))]
                net.remove_flow(victim)
                del alive[victim]
            self._assert_matches(net, alive, caps)

        # drain everything, checking after each removal
        for fid in sorted(alive):
            net.remove_flow(fid)
            del alive[fid]
            self._assert_matches(net, alive, caps)

    @staticmethod
    def _assert_matches(net, alive, caps):
        specs = [
            FlowSpec(fid, member, cap)
            for fid, (member, cap) in alive.items()
        ]
        constraints = [
            CapacityConstraint(cid, c) for cid, c in caps.items()
        ]
        # bit-identical to the decomposed from-scratch recompute …
        fresh = max_min_rates(specs, constraints)
        assert dict(net.rates) == fresh
        # … and equal to one global filling pass over every flow
        # (no component decomposition) up to rounding
        legacy = _progressive_fill(
            [(f.flow_id, f.constraints, f.cap) for f in specs],
            {c.constraint_id: float(c.capacity) for c in constraints},
            1e-12,
        )
        assert set(legacy) == set(fresh)
        for fid, rate in legacy.items():
            assert fresh[fid] == pytest.approx(rate, abs=1e-7)

    def test_reserved_fast_path_grants_exact_caps(self):
        """Feasible cap totals: every arrival/departure is the O(1) path
        and rates are exactly (not approximately) the caps."""
        net = FlowNetwork()
        for cid, c in {"n1": 70.0, "n2": 80.0, "l12": 30.0}.items():
            net.add_constraint(cid, c)
        assert net.add_flow("a", ("n1", "l12", "n2"), 30.0) == {"a": 30.0}
        assert net.add_flow("b", ("n1",), 40.0) == {"b": 40.0}
        # removal frees capacity nobody can use: no rate changes
        assert net.remove_flow("a") == {}
        assert dict(net.rates) == {"b": 40.0}

    def test_oversubscription_leaves_fast_path(self):
        net = FlowNetwork()
        net.add_constraint("L", 10.0)
        net.add_flow("a", ("L",), 8.0)
        changed = net.add_flow("b", ("L",), 8.0)  # 16 > 10: refill
        assert set(changed) >= {"b"}
        assert net.rate("a") + net.rate("b") <= 10.0 * (1 + 1e-9)
        # removing one flow re-grants the survivor its full cap
        changed = net.remove_flow("b")
        assert changed == {"a": 8.0}

    def test_elastic_flows_share_component(self):
        net = FlowNetwork()
        net.add_constraint("L", 9.0)
        net.add_flow("a", ("L",), None)
        net.add_flow("b", ("L",), None)
        net.add_flow("c", ("L",), None)
        assert all(
            r == pytest.approx(3.0) for r in net.rates.values()
        )

    def test_unconstrained_uncapped_rejected(self):
        net = FlowNetwork()
        with pytest.raises(ValueError):
            net.add_flow("a", (), None)

    def test_unknown_constraint_is_wiring_bug(self):
        net = FlowNetwork()
        with pytest.raises(KeyError):
            net.add_flow("a", ("nope",), 1.0)

    def test_duplicate_flow_rejected(self):
        net = FlowNetwork()
        net.add_constraint("L", 5.0)
        net.add_flow("a", ("L",), 1.0)
        with pytest.raises(ValueError):
            net.add_flow("a", ("L",), 1.0)

    def test_zero_capacity_starves_component_only(self):
        """A zero-capacity constraint freezes its flows at 0 without
        touching a disjoint component."""
        net = FlowNetwork()
        net.add_constraint("Z", 0.0)
        net.add_constraint("L", 10.0)
        net.add_flow("starved", ("Z",), None)
        changed = net.add_flow("fine", ("L",), None)
        assert net.rate("starved") == 0.0
        assert changed == {"fine": 10.0}


class TestProperties:
    @given(
        n_flows=st.integers(1, 8),
        n_constraints=st.integers(1, 5),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=50, deadline=None)
    def test_invariants(self, n_flows, n_constraints, seed):
        import numpy as np

        rng = np.random.default_rng(seed)
        caps = {
            f"c{j}": float(rng.uniform(1, 100)) for j in range(n_constraints)
        }
        flows = []
        for i in range(n_flows):
            member = [
                f"c{j}" for j in range(n_constraints) if rng.random() < 0.5
            ]
            if not member:
                member = [f"c{int(rng.integers(0, n_constraints))}"]
            cap = float(rng.uniform(0.5, 50)) if rng.random() < 0.4 else None
            flows.append((f"f{i}", member, cap))
        rates = solve(flows, caps)
        # 1. no constraint overloaded
        for cid, cap in caps.items():
            used = sum(
                rates[fid] for fid, member, _ in flows if cid in member
            )
            assert used <= cap * (1 + 1e-6)
        # 2. caps respected
        for fid, _, cap in flows:
            if cap is not None:
                assert rates[fid] <= cap * (1 + 1e-6)
        # 3. rates non-negative
        assert all(r >= 0 for r in rates.values())
        # 4. work conservation: every uncapped flow is blocked by some
        #    saturated constraint
        for fid, member, cap in flows:
            if cap is not None and rates[fid] >= cap * (1 - 1e-6):
                continue
            saturated = False
            for cid in member:
                used = sum(
                    rates[f2] for f2, m2, _ in flows if cid in m2
                )
                if used >= caps[cid] * (1 - 1e-6):
                    saturated = True
            assert saturated, f"{fid} is neither capped nor blocked"


class TestBatchedAdd:
    """``add_flows``: one component refill for a whole injection batch,
    bit-identical to adding the flows one at a time."""

    def _networks(self, caps):
        a, b = FlowNetwork(), FlowNetwork()
        for cid, cap in caps.items():
            a.add_constraint(cid, cap)
            b.add_constraint(cid, cap)
        return a, b

    def test_batch_matches_sequential_rates(self):
        caps = {"L1": 10.0, "L2": 6.0, "L3": 4.0}
        batch = [
            ("a", ("L1", "L2"), None),
            ("b", ("L2", "L3"), None),
            ("c", ("L1",), 2.5),
            ("d", ("L3",), None),
        ]
        one, many = self._networks(caps)
        for fid, cs, cap in batch:
            one.add_flow(fid, cs, cap)
        many.add_flows(batch)
        assert dict(one.rates) == dict(many.rates)

    def test_batch_changed_set_covers_new_flows(self):
        caps = {"L": 8.0}
        net, _ = self._networks(caps)
        net.add_flow("old", ("L",), None)
        changed = net.add_flows(
            [("x", ("L",), None), ("y", ("L",), None)]
        )
        # the pre-existing flow shares the saturated link, so it moved
        assert set(changed) == {"old", "x", "y"}
        assert net.rate("old") == pytest.approx(8.0 / 3)

    def test_batch_reserved_fast_path(self):
        """All-caps batch into a clean network: rates are the caps and
        nothing else moves."""
        caps = {"L": 100.0}
        net, _ = self._networks(caps)
        net.add_flow("steady", ("L",), 10.0)
        changed = net.add_flows(
            [("i1", ("L",), 5.0), ("i2", ("L",), 0.0)]
        )
        assert changed == {"i1": 5.0}  # zero-cap flow reported like add_flow
        assert net.rate("steady") == 10.0
        assert net.rate("i2") == 0.0

    def test_empty_batch_is_a_noop(self):
        net, _ = self._networks({"L": 1.0})
        assert net.add_flows([]) == {}


class TestNumericalGuard:
    """The filling loop's near-epsilon guard: when float drift leaves a
    binding constraint's residual just above epsilon, only the flows the
    minimum step actually touched may freeze — freezing *everything*
    (the pre-fix behaviour) silently cut off flows whose own
    constraints still had plenty of headroom."""

    # capacity chosen so that C − (C/n)·n ≈ 7.3e-12 > epsilon: after
    # the first round the binding link's residual stays above 1e-12 and
    # no cap binds, so the guard is the only thing that can freeze
    RESIDUAL_CAP = 45499.61541408508
    N_SHARERS = 5

    def _fills(self):
        from repro.simulator.flows import (
            _progressive_fill,
            _progressive_fill_vectorized,
        )

        return (_progressive_fill, _progressive_fill_vectorized)

    def test_residual_freezes_only_binding_flows(self):
        C1, n, C2 = self.RESIDUAL_CAP, self.N_SHARERS, 200000.0
        assert C1 - (C1 / n) * n > 1e-12  # the premise of this test
        flows = [(f"a{i}", ("L1",), None) for i in range(n)]
        flows.append(("b", ("L2",), None))
        for fill in self._fills():
            rates = fill(list(flows), {"L1": C1, "L2": C2}, 1e-12)
            # the L1 sharers froze at their fair share...
            for i in range(n):
                assert rates[f"a{i}"] == pytest.approx(C1 / n)
            # ...but the lone L2 flow kept filling to its own link's
            # capacity (the old guard left it stuck at C1/n)
            assert rates["b"] == pytest.approx(C2)

    def test_residual_case_matches_across_fills(self):
        C1, n = self.RESIDUAL_CAP, self.N_SHARERS
        flows = [(f"a{i}", ("L1",), None) for i in range(n)]
        flows.append(("b", ("L2",), None))
        py, vec = self._fills()
        a = py(list(flows), {"L1": C1, "L2": 200000.0}, 1e-12)
        b = vec(list(flows), {"L1": C1, "L2": 200000.0}, 1e-12)
        assert a == b  # bit-for-bit, including the guard round

    def test_cap_binding_guard_freezes_capped_flow(self):
        """A cap can be the near-epsilon binder too: the guard must
        freeze exactly the cap-bound flow, not its uncapped peers."""
        C, n = self.RESIDUAL_CAP, self.N_SHARERS
        # one capped flow whose cap equals the drifted fair share: the
        # cap room and the link share tie, both sides freeze
        flows = [(f"a{i}", ("L1",), None) for i in range(n)]
        flows.append(("c", ("L2",), C / n))
        for fill in self._fills():
            rates = fill(list(flows), {"L1": C, "L2": 200000.0}, 1e-12)
            assert rates["c"] == pytest.approx(C / n)

    def test_genuine_stall_raises(self):
        """A truly stuck loop (nothing binds, nothing freezes) must
        raise instead of spinning or silently freezing the world.
        Constructed by monkeypatching nothing: a negative-capacity
        constraint cannot occur through the public API, so drive the
        raw fill with an already-empty binding set via an impossible
        epsilon."""
        from repro.simulator.flows import _progressive_fill

        # epsilon below any representable residual: the guard's binding
        # sets still catch the argmin flows, so this must *not* raise —
        # it documents that the stall branch is defensive only
        rates = _progressive_fill(
            [("a", ("L",), None)], {"L": 10.0}, 0.0
        )
        assert rates["a"] == 10.0
