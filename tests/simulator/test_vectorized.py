"""Property-style randomized bit-identity for the accelerated fills.

Hypothesis-free by design: each case is a plain seeded
``random.Random`` draw, so the 200-topology sweep is the same 200
topologies on every run and in every environment — a failure here is a
deterministic reproduction, not a shrunk example.

Three layers:

* raw fill — ``_progressive_fill_vectorized`` must equal
  ``_progressive_fill`` **bit for bit** (dict equality on exact
  floats) over random flow/constraint topologies, including
  saturated-from-the-start (zero/tiny-capacity) constraints and
  individually-capped flows;
* :class:`FlowNetwork` — the production network (numpy forced on
  every fill by zeroing ``_VECTOR_MIN_WORK``, or chosen per fill) must
  track the ``oracle=True`` reference network (cold pure-Python fills)
  through random add/remove churn, changed-set for changed-set;
* warm start — the network must do the same while its structure memo
  serves hits, and the hit/fallback counters must account for every
  non-grant refill.
"""

import random

from repro.simulator import flows
from repro.simulator.flows import (
    FlowNetwork,
    _progressive_fill,
    _progressive_fill_vectorized,
)

N_TOPOLOGIES = 200
_SEED_BASE = 620_009  # arbitrary but fixed: cases are reproducible


def _random_case(seed):
    """One random topology: constraints with mixed capacities (some
    saturated from the start), flows with random degree and a mix of
    elastic and capped demands."""
    rng = random.Random(seed)
    n_constraints = rng.randint(1, 14)
    caps = {}
    for j in range(n_constraints):
        roll = rng.random()
        if roll < 0.15:
            capacity = 0.0  # saturated from the start
        elif roll < 0.25:
            capacity = rng.uniform(0.0, 1e-13)  # below-epsilon residue
        else:
            capacity = rng.uniform(0.5, 10_000.0)
        caps[f"c{j}"] = capacity
    n_flows = rng.randint(1, 60)
    flows = []
    for i in range(n_flows):
        degree = rng.randint(1, min(4, n_constraints))
        cids = tuple(rng.sample(sorted(caps), degree))
        cap = None if rng.random() < 0.55 else rng.uniform(0.01, 500.0)
        flows.append((f"f{i}", cids, cap))
    return flows, caps


class TestVectorizedFillBitIdentity:
    def test_random_topologies_bit_for_bit(self):
        for case in range(N_TOPOLOGIES):
            flows, caps = _random_case(_SEED_BASE + case)
            a = _progressive_fill(list(flows), dict(caps), 1e-12)
            b = _progressive_fill_vectorized(list(flows), dict(caps), 1e-12)
            # exact dict equality: same keys, bit-identical floats
            assert a == b, f"case {case} diverged"

    def test_saturated_from_start_zeroes_members(self):
        flows = [("f0", ("dead",), None), ("f1", ("live",), None)]
        caps = {"dead": 0.0, "live": 100.0}
        a = _progressive_fill(list(flows), dict(caps), 1e-12)
        b = _progressive_fill_vectorized(list(flows), dict(caps), 1e-12)
        assert a == b == {"f0": 0.0, "f1": 100.0}

    def test_all_capped_component(self):
        flows = [(f"f{i}", ("L",), float(i + 1)) for i in range(6)]
        caps = {"L": 1000.0}
        a = _progressive_fill(list(flows), dict(caps), 1e-12)
        b = _progressive_fill_vectorized(list(flows), dict(caps), 1e-12)
        assert a == b
        assert all(a[f"f{i}"] == float(i + 1) for i in range(6))

    def test_capless_constraintless_flow_raises_everywhere(self):
        import pytest

        for fill in (_progressive_fill, _progressive_fill_vectorized):
            with pytest.raises(ValueError, match="no capacity"):
                fill([("f0", (), None)], {}, 1e-12)

    def test_cap_left_writeback_matches(self):
        """Both fills consume cap_left in place with the same leftovers."""
        for case in range(25):
            flows, caps = _random_case(_SEED_BASE - 1 - case)
            left_a, left_b = dict(caps), dict(caps)
            _progressive_fill(list(flows), left_a, 1e-12)
            _progressive_fill_vectorized(list(flows), left_b, 1e-12)
            assert left_a == left_b


def _churn(seed, net_a, net_b, steps=80):
    """Drive two networks through one identical random add/remove
    sequence, asserting changed-set equality at every step."""
    rng = random.Random(seed)
    flows, caps = _random_case(seed)
    for cid, capacity in caps.items():
        net_a.add_constraint(cid, capacity)
        net_b.add_constraint(cid, capacity)
    live = []
    for step in range(steps):
        if live and rng.random() < 0.45:
            fid = live.pop(rng.randrange(len(live)))
            ca = net_a.remove_flow(fid)
            cb = net_b.remove_flow(fid)
        else:
            _fid, cids, cap = flows[rng.randrange(len(flows))]
            fid = f"{_fid}@{step}"
            ca = net_a.add_flow(fid, cids, cap)
            cb = net_b.add_flow(fid, cids, cap)
            live.append(fid)
        assert ca == cb, f"step {step}: changed sets diverged"
        assert dict(net_a.rates) == dict(net_b.rates), f"step {step}"


class TestVectorizedNetworkBitIdentity:
    def test_forced_numpy_tracks_python_network(self, monkeypatch):
        monkeypatch.setattr(flows, "_VECTOR_MIN_WORK", 0)
        for case in range(40):
            _churn(
                _SEED_BASE + 10_000 + case,
                FlowNetwork(oracle=True),
                FlowNetwork(),
            )

    def test_default_threshold_engages_above_floor(self):
        """The chooser's threshold is on estimated work (rounds ×
        rows): ``n`` uncapped flows on one link estimate one round
        over ``n + 1`` rows, so the gate flips exactly where that
        reaches ``_VECTOR_MIN_WORK``."""
        net = FlowNetwork()
        n = flows._VECTOR_MIN_WORK - 1
        below = [(f"f{i}", ("L",), None) for i in range(n - 1)]
        at = below + [(f"f{n - 1}", ("L",), None)]
        assert not net._use_vector_kernel(below, 1)
        assert net._use_vector_kernel(at, 1)

    def test_heuristic_sees_round_count_not_just_size(self):
        """A big component with one shared cap converges in ~2 rounds
        (stay in python); the same size as a staircase of distinct
        caps runs ~n rounds (vectorize).  A flat size gate cannot
        tell them apart."""
        net = FlowNetwork()
        n = 80
        shared = [(f"f{i}", ("L",), 5.0) for i in range(n)]
        stairs = [(f"f{i}", ("L",), 1.0 + i) for i in range(n)]
        assert not net._use_vector_kernel(shared, 1)
        assert net._use_vector_kernel(stairs, 1)
        # tiny components never vectorize regardless of cap diversity
        tiny = [(f"f{i}", ("L",), 1.0 + i) for i in range(4)]
        assert not net._use_vector_kernel(tiny, 1)

    def test_default_heuristic_tracks_python_network(self):
        """The per-fill chooser changes nothing numerically — churn
        with caps drawn from a tiny pool so both kernels genuinely
        interleave across fills."""
        for case in range(20):
            _churn(
                _SEED_BASE + 40_000 + case,
                FlowNetwork(oracle=True),
                FlowNetwork(),
            )


class TestWarmNetworkBitIdentity:
    def test_warm_tracks_cold_network(self, monkeypatch):
        """The memo over pure-Python fills (numpy never chosen)."""
        monkeypatch.setattr(flows, "_VECTOR_MIN_WORK", float("inf"))
        for case in range(40):
            _churn(
                _SEED_BASE + 20_000 + case,
                FlowNetwork(oracle=True),
                FlowNetwork(),
            )

    def test_counters_account_for_refills(self):
        """Re-creating the same component structure must hit the memo;
        hits + fallbacks bound the number of fills actually run."""
        net = FlowNetwork()
        net.add_constraint("L", 90.0)
        net.add_flow("a", ("L",), None)  # fallback (structure unseen)
        net.add_flow("b", ("L",), None)  # fallback ({2 elastic} unseen)
        first = (net.warm_hits, net.warm_fallbacks)
        assert first == (0, 2)
        net.remove_flow("b")             # back to the {1 elastic} shape
        net.add_flow("c", ("L",), None)  # {2 elastic} again
        assert net.warm_hits == 2 and net.warm_fallbacks == 2
        assert net.rate("a") == net.rate("c") == 45.0

    def test_warm_off_never_counts(self):
        net = FlowNetwork(oracle=True)
        net.add_constraint("L", 10.0)
        net.add_flow("a", ("L",), None)
        net.add_flow("b", ("L",), None)
        assert net.warm_hits == 0 and net.warm_fallbacks == 0
