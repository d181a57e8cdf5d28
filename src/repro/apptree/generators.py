"""Application-tree generators following the paper's methodology (§5).

"All our simulations use randomly generated binary operator trees with
at most N operators [...].  All leaves correspond to basic objects, and
each basic object is chosen randomly among 15 different types.  The
computation amount ``w_i`` for an operator depends on its children l and
r: ``w_i = (δ_l + δ_r)**α`` [...].  The same principle is used for the
output size, ``δ_i = δ_l + δ_r``."

Generators produce *shapes* first (full binary trees where every
operator has exactly two children, each child independently an operator
or a leaf, subject to the requested operator count), draw object types
for leaves, then annotate them bottom-up (:func:`annotate_tree` is the
same rule for hand-built trees).  Left-deep chains (Figure 1(b)) and
perfectly balanced trees are provided for the complexity results and
the mutation ablation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import TreeStructureError
from ..rng import make_rng
from .nodes import Operator
from .objects import ObjectCatalog
from .tree import OperatorTree

__all__ = [
    "TreeShape",
    "random_tree_shape",
    "left_deep_shape",
    "balanced_shape",
    "annotate_tree",
    "random_tree",
    "left_deep_tree",
    "balanced_tree",
    "assemble_tree",
]


@dataclass(frozen=True, slots=True)
class TreeShape:
    """An unannotated binary tree shape.

    ``children[i]`` lists operator children of node ``i``;
    ``leaf_slots[i]`` is how many leaf children node ``i`` has.  Node 0
    is always the root.  Every node satisfies
    ``len(children[i]) + leaf_slots[i] == 2`` — the methodology's trees
    are *full* binary trees ("all leaves correspond to basic objects"),
    so an operator combines exactly two inputs.
    """

    children: tuple[tuple[int, ...], ...]
    leaf_slots: tuple[int, ...]

    @property
    def n_operators(self) -> int:
        return len(self.children)

    @property
    def n_leaves(self) -> int:
        return sum(self.leaf_slots)


def random_tree_shape(
    n_operators: int, *, seed: int | np.random.Generator | None = None
) -> TreeShape:
    """Draw a uniform-ish random full binary tree with ``n_operators``
    internal nodes.

    The classic growth process: maintain a frontier of open child slots
    (the root starts with 2); while internal nodes remain to be placed,
    pick an open slot uniformly at random and graft a new operator there
    (opening 2 more slots).  Remaining open slots become leaves.  Every
    full binary tree shape on ``n_operators`` nodes has positive
    probability, and the process biases toward "bushy but irregular"
    shapes comparable to the paper's plots.
    """
    if n_operators <= 0:
        raise TreeStructureError("n_operators must be positive")
    rng = make_rng(seed)
    children: list[list[int]] = [[]]
    slots: list[int] = [2]  # open (non-operator) child slots per node
    open_slots: list[int] = [0, 0]  # node index owning each open slot
    for new in range(1, n_operators):
        pick = int(rng.integers(0, len(open_slots)))
        owner = open_slots.pop(pick)
        slots[owner] -= 1
        children[owner].append(new)
        children.append([])
        slots.append(2)
        open_slots.extend([new, new])
    return TreeShape(
        children=tuple(tuple(c) for c in children),
        leaf_slots=tuple(slots),
    )


def left_deep_shape(n_operators: int) -> TreeShape:
    """The left-deep chain of Figure 1(b): operator ``i`` has operator
    child ``i+1`` and one leaf, except the deepest operator which has
    two leaves.  Used by the NP-hardness construction (§3)."""
    if n_operators <= 0:
        raise TreeStructureError("n_operators must be positive")
    children = tuple(
        (i + 1,) if i + 1 < n_operators else () for i in range(n_operators)
    )
    leaf_slots = tuple(
        1 if i + 1 < n_operators else 2 for i in range(n_operators)
    )
    return TreeShape(children=children, leaf_slots=leaf_slots)


def balanced_shape(n_operators: int) -> TreeShape:
    """A breadth-first-filled (complete) binary tree of operators; the
    mutation ablation compares chains against this shape."""
    if n_operators <= 0:
        raise TreeStructureError("n_operators must be positive")
    children: list[list[int]] = [[] for _ in range(n_operators)]
    for i in range(n_operators):
        for c in (2 * i + 1, 2 * i + 2):
            if c < n_operators:
                children[i].append(c)
    leaf_slots = [2 - len(children[i]) for i in range(n_operators)]
    return TreeShape(
        children=tuple(tuple(c) for c in children),
        leaf_slots=tuple(leaf_slots),
    )


def assemble_tree(
    shape: TreeShape,
    leaf_objects: Sequence[int],
    catalog: ObjectCatalog,
    *,
    alpha: float,
    name: str = "",
) -> OperatorTree:
    """Build an annotated :class:`OperatorTree` from a shape and a flat
    list of leaf object choices (consumed in node order, left to right).
    """
    if len(leaf_objects) != shape.n_leaves:
        raise TreeStructureError(
            f"shape has {shape.n_leaves} leaf slots but"
            f" {len(leaf_objects)} objects were supplied"
        )
    it = iter(leaf_objects)
    leaves = [tuple(next(it) for _ in range(k)) for k in shape.leaf_slots]
    annotations = _annotate(0, shape.children, leaves, catalog, alpha)
    return OperatorTree(
        [
            Operator(index=i, children=shape.children[i], leaves=leaves[i],
                     work=work, output_mb=output)
            for i, (work, output) in enumerate(annotations)
        ],
        catalog,
        name=name,
    )


def _annotate(
    root: int,
    children: Sequence[Sequence[int]],
    leaves: Sequence[Sequence[int]],
    catalog: ObjectCatalog,
    alpha: float,
) -> list[tuple[float, float]]:
    """``(w_i, δ_i)`` per node of the tree ``children`` spans from
    ``root``, children before parents (a child's index may be lower
    than its parent's): ``δ_i = δ_l + δ_r`` and ``w_i = δ_i**α``."""
    if alpha < 0:
        raise TreeStructureError(f"alpha must be non-negative, got {alpha}")
    n, order, stack = len(children), [], [root]
    while stack and len(order) <= n:  # the bound stops at a cycle
        order.append(stack.pop())
        if 0 <= order[-1] < n:
            stack.extend(children[order[-1]])
    if sorted(order) != list(range(n)):
        raise TreeStructureError(f"operators must form one tree under n{root}")
    outputs = [0.0] * n
    for i in reversed(order):
        outputs[i] = (sum(catalog[k].size_mb for k in leaves[i])
                      + sum(outputs[c] for c in children[i]))
    return [(total**alpha, total) for total in outputs]


def annotate_tree(tree: OperatorTree, *, alpha: float) -> OperatorTree:
    """Run the paper's bottom-up annotation:

    ``δ_i = δ_l + δ_r`` and ``w_i = (δ_l + δ_r)**α``, where each child
    contribution is the object size for a leaf child and the child's
    output ``δ`` for an operator child.  Operators with a single input
    (possible for hand-built trees) use that single contribution.
    """
    annotations = _annotate(
        tree.root,
        [op.children for op in tree],
        [op.leaves for op in tree],
        tree.catalog,
        alpha,
    )
    return OperatorTree(
        [
            op.with_annotation(work=work, output_mb=output)
            for op, (work, output) in zip(tree, annotations)
        ],
        tree.catalog,
        name=tree.name,
    )


def _draw_leaves(
    n: int, catalog: ObjectCatalog, rng: np.random.Generator
) -> list[int]:
    """Uniform i.i.d. object-type choice per leaf (§5)."""
    return [int(x) for x in rng.integers(0, len(catalog), size=n)]


def random_tree(
    n_operators: int,
    catalog: ObjectCatalog,
    *,
    alpha: float,
    seed: int | np.random.Generator | None = None,
    name: str = "",
) -> OperatorTree:
    """A random annotated application tree per the paper's methodology."""
    rng = make_rng(seed)
    shape = random_tree_shape(n_operators, seed=rng)
    leaves = _draw_leaves(shape.n_leaves, catalog, rng)
    return assemble_tree(shape, leaves, catalog, alpha=alpha, name=name)


def left_deep_tree(
    n_operators: int,
    catalog: ObjectCatalog,
    *,
    alpha: float,
    seed: int | np.random.Generator | None = None,
    name: str = "",
) -> OperatorTree:
    """A random annotated left-deep tree (Figure 1(b) structure)."""
    rng = make_rng(seed)
    shape = left_deep_shape(n_operators)
    leaves = _draw_leaves(shape.n_leaves, catalog, rng)
    return assemble_tree(shape, leaves, catalog, alpha=alpha, name=name)


def balanced_tree(
    n_operators: int,
    catalog: ObjectCatalog,
    *,
    alpha: float,
    seed: int | np.random.Generator | None = None,
    name: str = "",
) -> OperatorTree:
    """A random annotated complete binary tree."""
    rng = make_rng(seed)
    shape = balanced_shape(n_operators)
    leaves = _draw_leaves(shape.n_leaves, catalog, rng)
    return assemble_tree(shape, leaves, catalog, alpha=alpha, name=name)
