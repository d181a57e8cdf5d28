"""Mutable applications: operator rearrangement (§6 future work).

"Another direction is the study of applications that are mutable, i.e.,
whose operators can be rearranged based on operator associativity and
commutativity rules [5]."

Under the paper's cost annotation (``δ_i = δ_l + δ_r``,
``w_i = (δ_l + δ_r)**α``) an application whose operators are all the
*same* associative-commutative operation (a join/merge/aggregate chain)
may be restructured into **any** binary tree over the same leaf
multiset: the root's output is invariant (Σ leaf sizes), but the
intermediate masses — and therefore total work and edge volumes —
depend on the shape.  This module implements three canonical rewrites:

* :func:`left_deep_equivalent` — the worst case for total mass: the
  running partial sum touches every prefix;
* :func:`balanced_equivalent` — pairwise merging, mass ≈ Σδ·log₂(L);
* :func:`huffman_equivalent` — merge the two *smallest* available
  inputs first (Huffman's algorithm), which minimises
  ``Σ_i (δ_l + δ_r)`` exactly (it is the optimal-merge-pattern
  objective) and is therefore optimal total work at α = 1 and an
  excellent heuristic for α ≠ 1.

The mutation ablation benchmark measures how much platform cost these
rewrites save on compute-bound instances.
"""

from __future__ import annotations

import heapq
import itertools

from ..errors import TreeStructureError
from .generators import TreeShape, assemble_tree, balanced_shape, left_deep_shape
from .tree import OperatorTree

__all__ = [
    "leaf_multiset",
    "left_deep_equivalent",
    "balanced_equivalent",
    "huffman_equivalent",
    "total_work",
]


def leaf_multiset(tree: OperatorTree) -> list[int]:
    """The object indices of all leaf occurrences, left to right."""
    return [ref.object_index for ref in tree.leaf_occurrences]


def total_work(tree: OperatorTree) -> float:
    """Σ w_i — the quantity the rewrites optimise."""
    return tree.total_work


def _require_rearrangeable(tree: OperatorTree) -> list[int]:
    leaves = leaf_multiset(tree)
    if len(leaves) < 2:
        raise TreeStructureError(
            "rearrangement needs at least two leaf occurrences"
        )
    return leaves


def left_deep_equivalent(tree: OperatorTree, *, alpha: float) -> OperatorTree:
    """The left-deep chain over the same leaves (Figure 1(b) shape)."""
    leaves = _require_rearrangeable(tree)
    n_ops = len(leaves) - 1
    shape = left_deep_shape(n_ops)
    # left-deep shapes consume leaves: one per inner op + two at the end
    return assemble_tree(
        shape, leaves, tree.catalog, alpha=alpha,
        name=f"{tree.name or 'app'}-leftdeep",
    )


def balanced_equivalent(tree: OperatorTree, *, alpha: float) -> OperatorTree:
    """A complete binary tree over the same leaves."""
    leaves = _require_rearrangeable(tree)
    n_ops = len(leaves) - 1
    shape = balanced_shape(n_ops)
    return assemble_tree(
        shape, leaves, tree.catalog, alpha=alpha,
        name=f"{tree.name or 'app'}-balanced",
    )


def huffman_equivalent(tree: OperatorTree, *, alpha: float) -> OperatorTree:
    """Huffman (optimal-merge-pattern) restructuring: repeatedly combine
    the two smallest available inputs.

    Minimises ``Σ (δ_l + δ_r)`` over all binary trees on the leaf
    multiset — the classic optimal merge pattern result — hence total
    work at α = 1; for other α it remains the standard heuristic.
    """
    leaves = _require_rearrangeable(tree)
    catalog = tree.catalog
    counter = itertools.count()
    # heap items: (mass, tiebreak, payload); payload is either
    # ("leaf", object_index) or ("op", temp_id)
    heap: list[tuple[float, int, tuple]] = [
        (catalog[k].size_mb, next(counter), ("leaf", k)) for k in leaves
    ]
    heapq.heapify(heap)

    # temp ids in creation (bottom-up) order
    children: list[list[tuple]] = []
    while len(heap) > 1:
        m1, _, p1 = heapq.heappop(heap)
        m2, _, p2 = heapq.heappop(heap)
        temp_id = len(children)
        children.append([p1, p2])
        heapq.heappush(
            heap, (m1 + m2, next(counter), ("op", temp_id))
        )

    # Re-index so the final merge (root) is operator 0: temp id t
    # becomes n_ops - 1 - t, so operators list in reversed creation order.
    n_ops = len(children)
    merges = children[::-1]
    shape = TreeShape(
        children=tuple(
            tuple(n_ops - 1 - ref for kind, ref in pair if kind == "op")
            for pair in merges
        ),
        leaf_slots=tuple(
            sum(kind == "leaf" for kind, _ in pair) for pair in merges
        ),
    )
    return assemble_tree(
        shape,
        [ref for pair in merges for kind, ref in pair if kind == "leaf"],
        catalog, alpha=alpha, name=f"{tree.name or 'app'}-huffman",
    )
