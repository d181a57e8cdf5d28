"""Tests for tree generators and the §5 annotation rule."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apptree.generators import (
    TreeShape,
    annotate_tree,
    assemble_tree,
    balanced_shape,
    balanced_tree,
    left_deep_shape,
    left_deep_tree,
    random_tree,
    random_tree_shape,
)
from repro.apptree.objects import ObjectCatalog
from repro.errors import TreeStructureError

CAT = ObjectCatalog.random(15, seed=0)


class TestShapes:
    @given(n=st.integers(1, 60))
    @settings(max_examples=30)
    def test_random_shape_is_full_binary(self, n):
        shape = random_tree_shape(n, seed=n)
        assert shape.n_operators == n
        for kids, slots in zip(shape.children, shape.leaf_slots):
            assert len(kids) + slots == 2
        assert shape.n_leaves == n + 1  # full binary tree identity

    def test_random_shape_seeded(self):
        a = random_tree_shape(25, seed=9)
        b = random_tree_shape(25, seed=9)
        assert a == b

    def test_left_deep_shape(self):
        shape = left_deep_shape(4)
        assert shape.children == ((1,), (2,), (3,), ())
        assert shape.leaf_slots == (1, 1, 1, 2)
        assert shape.n_leaves == 5

    def test_balanced_shape(self):
        shape = balanced_shape(7)
        assert shape.children[0] == (1, 2)
        assert shape.children[3] == ()
        assert shape.n_leaves == 8

    @pytest.mark.parametrize("fn", [random_tree_shape, left_deep_shape,
                                    balanced_shape])
    def test_zero_operators_rejected(self, fn):
        with pytest.raises(TreeStructureError):
            fn(0)


class TestAnnotation:
    def test_delta_rule_bottom_up(self):
        t = random_tree(20, CAT, alpha=1.3, seed=4)
        for i in t.operator_indices:
            op = t[i]
            expected = sum(CAT[k].size_mb for k in op.leaves) + sum(
                t[c].output_mb for c in op.children
            )
            assert op.output_mb == pytest.approx(expected)
            assert op.work == pytest.approx(expected**1.3)

    def test_root_mass_equals_leaf_total(self):
        t = random_tree(30, CAT, alpha=0.9, seed=5)
        leaf_total = sum(
            CAT[r.object_index].size_mb for r in t.leaf_occurrences
        )
        assert t[t.root].output_mb == pytest.approx(leaf_total)

    @given(alpha=st.floats(0.0, 3.0, allow_nan=False))
    @settings(max_examples=20)
    def test_alpha_scaling(self, alpha):
        t = random_tree(10, CAT, alpha=alpha, seed=1)
        for i in t.operator_indices:
            assert t[i].work == pytest.approx(t[i].output_mb**alpha)

    def test_negative_alpha_rejected(self):
        with pytest.raises(TreeStructureError):
            random_tree(5, CAT, alpha=-0.5, seed=0)

    @pytest.mark.parametrize("shape", [
        random_tree_shape(15, seed=2),
        left_deep_shape(15),
        balanced_shape(15),
        # a child indexed below its parent: 0 -> 2 -> 1
        TreeShape(children=((2,), (), (1,)), leaf_slots=(1, 2, 1)),
    ], ids=["random", "left-deep", "balanced", "child-below-parent"])
    def test_annotation_idempotent(self, shape):
        leaves = [k % len(CAT) for k in range(shape.n_leaves)]
        t = assemble_tree(shape, leaves, CAT, alpha=1.1)
        again = annotate_tree(t, alpha=1.1)
        for i in t.operator_indices:
            assert again[i].work == t[i].work
            assert again[i].output_mb == t[i].output_mb
        assert t[t.root].output_mb == pytest.approx(
            sum(CAT[k].size_mb for k in leaves)
        )
        with pytest.raises(TreeStructureError):
            assemble_tree(shape, leaves, CAT, alpha=-0.5)


class TestGenerators:
    @pytest.mark.parametrize("fn", [random_tree, left_deep_tree,
                                    balanced_tree])
    def test_generators_seeded(self, fn):
        a = fn(12, CAT, alpha=1.0, seed=3)
        b = fn(12, CAT, alpha=1.0, seed=3)
        assert [op.leaves for op in a] == [op.leaves for op in b]

    def test_left_deep_tree_is_left_deep(self):
        assert left_deep_tree(10, CAT, alpha=1.0, seed=0).is_left_deep

    def test_leaf_types_within_catalog(self):
        t = random_tree(40, CAT, alpha=1.0, seed=7)
        for ref in t.leaf_occurrences:
            assert 0 <= ref.object_index < len(CAT)

    def test_all_sizes(self):
        for n in (1, 2, 3, 5, 17):
            t = random_tree(n, CAT, alpha=1.0, seed=n)
            assert len(t) == n
            assert len(t.leaf_occurrences) == n + 1

    def test_assemble_rejects_wrong_leaf_count(self):
        shape = left_deep_shape(3)
        with pytest.raises(TreeStructureError):
            assemble_tree(shape, [0, 1], CAT, alpha=1.0)

    def test_object_draw_spread(self):
        # With 61 leaves over 15 types, several types must appear.
        t = random_tree(60, CAT, alpha=1.0, seed=8)
        assert len(t.used_objects) >= 8

    @given(n=st.integers(1, 40), seed=st.integers(0, 1000))
    @settings(max_examples=25)
    def test_random_tree_valid_structure(self, n, seed):
        t = random_tree(n, CAT, alpha=1.0, seed=seed)
        t.validate()
        # full binary: every operator combines exactly two inputs
        for op in t:
            assert op.arity == 2
