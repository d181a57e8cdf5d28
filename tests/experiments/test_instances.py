"""Tests for campaign instance generation."""

import pytest

from repro.api import InstanceSpec
from repro.apptree.tree import OperatorTree
from repro.methodology import (
    instance_stream,
    large_high,
    make_instance,
    small_high,
    small_low,
)
from repro.platform.catalog import Catalog, dell_catalog
from repro.units import OPS_PER_GHZ


class TestMakeInstance:
    def test_reproducible(self):
        cfg = small_high(n_operators=25, n_instances=2, master_seed=7)
        a = make_instance(cfg, 0)
        b = make_instance(cfg, 0)
        assert [op.leaves for op in a.tree] == [op.leaves for op in b.tree]
        for l in a.farm.uids:
            assert a.farm[l].objects == b.farm[l].objects

    def test_index_varies_population(self):
        cfg = small_high(n_operators=25, master_seed=7)
        a = make_instance(cfg, 0)
        b = make_instance(cfg, 1)
        assert [op.leaves for op in a.tree] != [op.leaves for op in b.tree]

    def test_config_dimensions_respected(self):
        cfg = small_high(n_operators=33, n_servers=4, n_object_types=9)
        inst = make_instance(cfg, 0)
        assert len(inst.tree) == 33
        assert len(inst.farm) == 4
        assert len(inst.tree.catalog) == 9

    def test_large_regime_sizes(self):
        inst = make_instance(large_high(n_operators=10), 0)
        for o in inst.tree.catalog:
            assert 450.0 <= o.size_mb <= 530.0

    def test_frequency_change_keeps_tree(self):
        """High- and low-frequency configs with the same seed must
        produce identical trees and server layouts (the low-frequency
        experiment depends on this pairing)."""
        hi = make_instance(small_high(n_operators=20, master_seed=3), 2)
        lo = make_instance(small_low(n_operators=20, master_seed=3), 2)
        assert [op.leaves for op in hi.tree] == [op.leaves for op in lo.tree]
        assert [op.children for op in hi.tree] == [
            op.children for op in lo.tree
        ]
        for l in hi.farm.uids:
            assert hi.farm[l].objects == lo.farm[l].objects
        # but rates differ
        assert hi.rate(0) != lo.rate(0)

    def test_homogeneous_flag(self):
        inst = make_instance(small_high(homogeneous=True, n_operators=8), 0)
        assert inst.is_homogeneous

    def test_calibration_flag(self):
        std = make_instance(small_high(n_operators=8), 0)
        dense = make_instance(
            small_high(n_operators=8, ops_per_ghz=25.0), 0
        )
        assert std.catalog.max_speed_ops > dense.catalog.max_speed_ops


class TestInstanceStream:
    def test_stream_length(self):
        cfg = small_high(n_operators=10, n_instances=4)
        assert len(list(instance_stream(cfg))) == 4


class TestBuiltOnce:
    """Each drawn instance constructs one tree, and a calibration's
    catalog is built once and shared."""

    @pytest.fixture()
    def built(self, monkeypatch):
        counts = {OperatorTree: 0, Catalog: 0}
        for cls in counts:
            def counting(self, *args, _init=cls.__init__, _cls=cls,
                         **kwargs):
                counts[_cls] += 1
                _init(self, *args, **kwargs)
            monkeypatch.setattr(cls, "__init__", counting)

        def count(build):
            for cls in counts:
                counts[cls] = 0
            build()
            return counts[OperatorTree], counts[Catalog]

        return count

    def test_spec_build(self, built):
        spec = InstanceSpec(n_operators=12, alpha=1.3, seed=5)
        assert built(spec.build)[0] == 1
        assert built(spec.build) == (1, 0)

    @pytest.mark.parametrize("config", [
        small_high(n_operators=20, master_seed=7),
        small_high(n_operators=12, alpha=1.8, homogeneous=True),
        large_high(n_operators=15, alpha=1.1, fat_nics=True),
        small_high(n_operators=10, ops_per_ghz=30.0, fat_nics=True,
                   homogeneous=True),
    ], ids=["table1", "homogeneous", "fat-nics", "dense-fat-hom"])
    def test_make_instance(self, built, config):
        assert built(lambda: make_instance(config, 2))[0] == 1
        assert built(lambda: make_instance(config, 3)) == (1, 0)
        assert (make_instance(config, 0).catalog
                is make_instance(config, 1).catalog)

    def test_dell_catalog_is_shared_and_immutable(self):
        catalog = dell_catalog()
        assert catalog is dell_catalog(ops_per_ghz=OPS_PER_GHZ)
        assert catalog is not dell_catalog(ops_per_ghz=30.0)
        with pytest.raises(AttributeError, match="immutable"):
            catalog.ops_per_ghz = 1.0
        with pytest.raises(AttributeError, match="immutable"):
            catalog.most_expensive = catalog.cheapest
        with pytest.raises(AttributeError, match="immutable"):
            del catalog.fastest
        assert catalog.ops_per_ghz == OPS_PER_GHZ
