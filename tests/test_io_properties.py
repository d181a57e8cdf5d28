"""Property-based round-trip tests for serialisation (hypothesis)."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro
from repro.core import allocate
from repro.io import (
    allocation_from_dict,
    allocation_to_dict,
    instance_from_dict,
    instance_to_dict,
)

SLOW = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

instances = st.builds(
    repro.quick_instance,
    st.integers(2, 20),
    alpha=st.floats(0.3, 1.9),
    seed=st.integers(0, 9999),
)


class TestInstanceRoundTripProperties:
    @given(inst=instances)
    @SLOW
    def test_tree_semantics_preserved(self, inst):
        back = instance_from_dict(instance_to_dict(inst))
        assert back.tree.total_work == pytest.approx(inst.tree.total_work)
        assert back.tree.al_operators == inst.tree.al_operators
        assert back.tree.used_objects == inst.tree.used_objects
        assert [e.volume_mb for e in back.tree.edges] == pytest.approx(
            [e.volume_mb for e in inst.tree.edges]
        )
        for k in inst.tree.used_objects:
            assert back.farm.holders(k) == inst.farm.holders(k)
            assert back.rate(k) == pytest.approx(inst.rate(k))

    @given(inst=instances)
    @SLOW
    def test_double_roundtrip_is_stable(self, inst):
        once = instance_to_dict(inst)
        twice = instance_to_dict(instance_from_dict(once))
        assert once == twice


class TestAllocationRoundTripProperties:
    @given(inst=instances, seed=st.integers(0, 50))
    @SLOW
    def test_allocation_costs_preserved(self, inst, seed):
        try:
            result = allocate(inst, "comp-greedy", rng=seed)
        except repro.ReproError:
            return
        back = allocation_from_dict(allocation_to_dict(result.allocation))
        assert back.cost == pytest.approx(result.cost)
        assert repro.verify(back).feasible
