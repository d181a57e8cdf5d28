"""The application tree ``(N, O)`` with the paper's index-set API.

:class:`OperatorTree` assembles :class:`~repro.apptree.nodes.Operator`
records and an :class:`~repro.apptree.objects.ObjectCatalog` into a
validated rooted binary tree, and exposes exactly the accessors the
paper's formalism uses:

* :meth:`OperatorTree.leaf` — ``Leaf(i)``, objects operator ``i`` downloads;
* :meth:`OperatorTree.children` — ``Ch(i)``, operator children;
* :meth:`OperatorTree.parent` — ``Par(i)`` (``None`` at the root);
* set extensions ``f(I) = ∪_{i∈I} f(i)`` via :meth:`leaf_set`,
  :meth:`children_set`, :meth:`parent_set`;
* al-operator enumeration, bottom-up/top-down orders, tree edges with
  their steady-state communication volumes, per-object popularity.

All derived structures are computed once at construction and cached —
the heuristics interrogate the tree heavily in inner loops.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from ..errors import TreeStructureError
from .nodes import LeafRef, Operator
from .objects import BasicObject, ObjectCatalog

__all__ = ["OperatorTree", "TreeEdge"]


@dataclass(frozen=True, slots=True)
class TreeEdge:
    """A parent↔child edge between two *operators*.

    ``volume_mb`` is the data ``δ_child`` shipped from child to parent
    for each application result; at throughput ρ the edge consumes
    ``ρ · δ_child`` MB/s when its endpoints sit on different processors.
    """

    child: int
    parent: int
    volume_mb: float


class OperatorTree:
    """A validated binary operator tree over a basic-object catalog.

    Parameters
    ----------
    operators:
        The operator records; ``operators[i].index == i`` is required.
    catalog:
        Basic-object types; every leaf reference must be in range.
    name:
        Optional label for reports.

    Raises
    ------
    TreeStructureError
        If the records do not form a single rooted tree, arities exceed
        the binary bound, or leaf references point outside the catalog.
    """

    def __init__(
        self,
        operators: Sequence[Operator],
        catalog: ObjectCatalog,
        *,
        name: str = "",
    ) -> None:
        if not operators:
            raise TreeStructureError("an application needs at least one operator")
        for i, op in enumerate(operators):
            if op.index != i:
                raise TreeStructureError(
                    f"operators must be listed in index order: position {i}"
                    f" holds n{op.index}"
                )
        self._operators: tuple[Operator, ...] = tuple(operators)
        self._catalog = catalog
        self.name = name

        n = len(operators)
        parent = [-1] * n
        for op in operators:
            for c in op.children:
                if not (0 <= c < n):
                    raise TreeStructureError(
                        f"operator n{op.index} references unknown child n{c}"
                    )
                if parent[c] != -1:
                    raise TreeStructureError(
                        f"operator n{c} has two parents (n{parent[c]} and"
                        f" n{op.index})"
                    )
                parent[c] = op.index
            for k in op.leaves:
                if not (0 <= k < len(catalog)):
                    raise TreeStructureError(
                        f"operator n{op.index} references unknown object o{k}"
                    )
        roots = [i for i in range(n) if parent[i] == -1]
        if len(roots) != 1:
            raise TreeStructureError(
                f"application must be a single tree; found {len(roots)} roots"
            )
        self._root = roots[0]
        self._parent: tuple[int, ...] = tuple(parent)

        # Bottom-up (children before parents) order via DFS from the root;
        # doubles as the connectivity/acyclicity check.
        order: list[int] = []
        stack = [self._root]
        seen = [False] * n
        while stack:
            i = stack.pop()
            if seen[i]:
                raise TreeStructureError("cycle detected in operator graph")
            seen[i] = True
            order.append(i)
            stack.extend(self._operators[i].children)
        if len(order) != n:
            raise TreeStructureError(
                "operator graph is disconnected: some operators are unreachable"
                " from the root"
            )
        self._topdown: tuple[int, ...] = tuple(order)
        self._bottomup: tuple[int, ...] = tuple(reversed(order))

        # Depth of each operator (root = 0).
        depth = [0] * n
        for i in self._topdown:
            if i != self._root:
                depth[i] = depth[self._parent[i]] + 1
        self._depth: tuple[int, ...] = tuple(depth)

        # Object popularity: object index -> sorted tuple of operators
        # whose Leaf(i) contains it ("how many operators need this basic
        # object", §4.1 Object-Grouping).
        users: dict[int, set[int]] = {}
        for op in operators:
            for k in op.leaves:
                users.setdefault(k, set()).add(op.index)
        self._users: dict[int, tuple[int, ...]] = {
            k: tuple(sorted(v)) for k, v in users.items()
        }

        # Deduplicated per-operator leaf tuples (ascending).  Load
        # accounting needs "distinct objects of operator i" in every
        # assign/unassign and feasibility probe; building ``set(leaf(i))``
        # there puts a set construction in the heuristics' inner loops.
        self._unique_leaves: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(set(op.leaves))) for op in operators
        )

        self._edges: tuple[TreeEdge, ...] = tuple(
            TreeEdge(child=c, parent=op.index,
                     volume_mb=self._operators[c].output_mb)
            for op in operators
            for c in op.children
        )

        # Subtree leaf mass (sum of δ over the subtree's leaf occurrences)
        # — the quantity (δl + δr) the generator's annotation propagates,
        # and what bounds/analytics reason about.
        mass = [0.0] * n
        for i in self._bottomup:
            op = self._operators[i]
            mass[i] = sum(catalog[k].size_mb for k in op.leaves) + sum(
                mass[c] for c in op.children
            )
        self._mass: tuple[float, ...] = tuple(mass)

    # ------------------------------------------------------------------
    # container basics
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._operators)

    def __iter__(self) -> Iterator[Operator]:
        return iter(self._operators)

    def __getitem__(self, index: int) -> Operator:
        return self._operators[index]

    @property
    def catalog(self) -> ObjectCatalog:
        return self._catalog

    @property
    def root(self) -> int:
        """Index of the root operator (produces the final results)."""
        return self._root

    @property
    def operator_indices(self) -> range:
        return range(len(self._operators))

    # ------------------------------------------------------------------
    # the paper's index-set accessors
    # ------------------------------------------------------------------
    def leaf(self, i: int) -> tuple[int, ...]:
        """``Leaf(i)`` — object indices operator ``i`` must download."""
        return self._operators[i].leaves

    def unique_leaf(self, i: int) -> tuple[int, ...]:
        """``Leaf(i)`` deduplicated (distinct objects, ascending) —
        cached, so hot loops avoid rebuilding ``set(leaf(i))``."""
        return self._unique_leaves[i]

    def children(self, i: int) -> tuple[int, ...]:
        """``Ch(i)`` — operator children of node ``i``."""
        return self._operators[i].children

    def parent(self, i: int) -> int | None:
        """``Par(i)`` — parent operator of ``i`` or ``None`` at the root."""
        p = self._parent[i]
        return None if p == -1 else p

    def leaf_set(self, indices: Iterable[int]) -> set[int]:
        """``Leaf(I) = ∪_{i∈I} Leaf(i)`` (distinct objects of a group)."""
        out: set[int] = set()
        for i in indices:
            out.update(self._unique_leaves[i])
        return out

    def children_set(self, indices: Iterable[int]) -> set[int]:
        """``Ch(I) = ∪_{i∈I} Ch(i)``."""
        out: set[int] = set()
        for i in indices:
            out.update(self._operators[i].children)
        return out

    def parent_set(self, indices: Iterable[int]) -> set[int]:
        """``Par(I) = ∪_{i∈I} {Par(i)}`` (root contributes nothing)."""
        out: set[int] = set()
        for i in indices:
            p = self._parent[i]
            if p != -1:
                out.add(p)
        return out

    # ------------------------------------------------------------------
    # derived structure
    # ------------------------------------------------------------------
    @property
    def al_operators(self) -> tuple[int, ...]:
        """Indices of al-operators (``|Leaf(i)| >= 1``), ascending."""
        return tuple(
            op.index for op in self._operators if op.is_al_operator
        )

    @property
    def edges(self) -> tuple[TreeEdge, ...]:
        """All operator↔operator edges with communication volumes."""
        return self._edges

    def edge_volume(self, child: int, parent: int) -> float:
        """``δ_child`` for an existing tree edge; raises otherwise."""
        if self._parent[child] != parent:
            raise TreeStructureError(f"no edge n{child} -> n{parent}")
        return self._operators[child].output_mb

    def bottom_up(self) -> tuple[int, ...]:
        """Operator indices, every child before its parent."""
        return self._bottomup

    def top_down(self) -> tuple[int, ...]:
        """Operator indices, every parent before its children."""
        return self._topdown

    def depth(self, i: int) -> int:
        return self._depth[i]

    @property
    def height(self) -> int:
        """Largest operator depth (single-operator tree has height 0)."""
        return max(self._depth)

    def subtree(self, i: int) -> tuple[int, ...]:
        """Operator indices of the subtree rooted at ``i`` (pre-order)."""
        out: list[int] = []
        stack = [i]
        while stack:
            j = stack.pop()
            out.append(j)
            stack.extend(self._operators[j].children)
        return tuple(out)

    def leaf_mass(self, i: int) -> float:
        """Total MB of leaf occurrences under ``i`` — equals ``δ_i`` for
        trees annotated with the paper's ``δ_i = δ_l + δ_r`` rule."""
        return self._mass[i]

    def object_users(self, k: int) -> tuple[int, ...]:
        """Operators whose ``Leaf(i)`` contains object ``k``."""
        return self._users.get(k, ())

    def popularity(self, k: int) -> int:
        """Number of operators needing object ``k`` — the Object-Grouping
        heuristic's "popularity" count (§4.1).  Counted at operator
        granularity: an operator whose two leaves are the same object
        contributes 1, because it downloads the object once."""
        return len(self._users.get(k, ()))

    @property
    def used_objects(self) -> tuple[int, ...]:
        """Object indices actually referenced by at least one leaf."""
        return tuple(sorted(self._users))

    @property
    def leaf_occurrences(self) -> tuple[LeafRef, ...]:
        """All leaf occurrences in index order (duplicates preserved)."""
        return tuple(
            LeafRef(k) for op in self._operators for k in op.leaves
        )

    def work_vector(self) -> np.ndarray:
        """``(w_i)_i`` as a NumPy vector (used by bounds and the ILP)."""
        return np.array([op.work for op in self._operators], dtype=float)

    def output_vector(self) -> np.ndarray:
        """``(δ_i)_i`` as a NumPy vector."""
        return np.array([op.output_mb for op in self._operators], dtype=float)

    @property
    def total_work(self) -> float:
        return float(sum(op.work for op in self._operators))

    @property
    def max_work(self) -> float:
        return float(max(op.work for op in self._operators))

    # ------------------------------------------------------------------
    # adjacency helpers used by the grouping heuristics
    # ------------------------------------------------------------------
    def neighbors(self, i: int) -> tuple[int, ...]:
        """Adjacent operators (children + parent) of ``i``."""
        out = list(self._operators[i].children)
        p = self._parent[i]
        if p != -1:
            out.append(p)
        return tuple(out)

    def links(self, i: int) -> tuple[tuple[int, float], ...]:
        """``(j, comm_volume(i, j))`` for each ``j`` in ``neighbors(i)``,
        in that order: the load accounting's walk, without a tuple build
        and an adjacency test per edge."""
        return self._links[i]

    @cached_property
    def _links(self) -> tuple[tuple[tuple[int, float], ...], ...]:
        # built on first use: intermediate trees of the generators never
        # reach the load accounting
        ops = self._operators
        return tuple(
            tuple((c, ops[c].output_mb) for c in op.children)
            + (((p, op.output_mb),) if (p := self._parent[op.index]) != -1
               else ())
            for op in ops
        )

    def comm_volume(self, i: int, j: int) -> float:
        """Data exchanged per result between adjacent operators ``i`` and
        ``j`` (``δ`` of whichever is the child); raises if not adjacent."""
        if self._parent[i] == j:
            return self._operators[i].output_mb
        if self._parent[j] == i:
            return self._operators[j].output_mb
        raise TreeStructureError(f"operators n{i} and n{j} are not adjacent")

    # ------------------------------------------------------------------
    # structural classification / export
    # ------------------------------------------------------------------
    @property
    def is_left_deep(self) -> bool:
        """True for left-deep trees (Figure 1(b)): every operator has at
        most one operator child, i.e. the operators form a chain."""
        return all(len(op.children) <= 1 for op in self._operators)

    def validate(self) -> None:
        """Re-run all structural checks (construction already does; this
        is exposed so property-based tests can assert idempotence)."""
        OperatorTree(self._operators, self._catalog, name=self.name)

    def relabel(self, order: Sequence[int]) -> "OperatorTree":
        """Return an isomorphic tree whose operator ``order[i]`` becomes
        index ``i``.  Used by generators to normalise index order and by
        tests to check heuristics are label-invariant."""
        n = len(self._operators)
        if sorted(order) != list(range(n)):
            raise TreeStructureError("relabel order must be a permutation")
        new_index = {old: new for new, old in enumerate(order)}
        ops = [
            Operator(
                index=new_index[old],
                children=tuple(new_index[c] for c in self._operators[old].children),
                leaves=self._operators[old].leaves,
                work=self._operators[old].work,
                output_mb=self._operators[old].output_mb,
                name=self._operators[old].name,
            )
            for old in order
        ]
        ops.sort(key=lambda o: o.index)
        return OperatorTree(ops, self._catalog, name=self.name)

    def to_networkx(self):
        """Export as a :class:`networkx.DiGraph` (edges child→parent,
        ``volume`` attribute = δ_child; leaves as ``("obj", k)`` nodes)."""
        import networkx as nx

        g = nx.DiGraph()
        for op in self._operators:
            g.add_node(op.index, work=op.work, output_mb=op.output_mb)
        for e in self._edges:
            g.add_edge(e.child, e.parent, volume=e.volume_mb)
        for op in self._operators:
            for pos, k in enumerate(op.leaves):
                leaf_node = ("obj", k, op.index, pos)
                g.add_node(leaf_node, object_index=k,
                           size_mb=self._catalog[k].size_mb)
                g.add_edge(leaf_node, op.index,
                           volume=self._catalog[k].rate_mbps)
        return g

    def pretty(self, *, max_depth: int | None = None) -> str:
        """ASCII rendering of the tree (root at top)."""
        lines: list[str] = []

        def walk(i: int, prefix: str, is_last: bool, depth: int) -> None:
            op = self._operators[i]
            connector = "" if not prefix else ("└── " if is_last else "├── ")
            lines.append(
                f"{prefix}{connector}{op.label} [w={op.work:.3g},"
                f" δ={op.output_mb:.3g} MB]"
            )
            if max_depth is not None and depth >= max_depth:
                return
            ext = "" if not prefix else ("    " if is_last else "│   ")
            kids: list[tuple[str, object]] = [("op", c) for c in op.children]
            kids += [("leaf", k) for k in op.leaves]
            for pos, (kind, ref) in enumerate(kids):
                last = pos == len(kids) - 1
                if kind == "op":
                    walk(int(ref), prefix + ext, last, depth + 1)  # type: ignore[arg-type]
                else:
                    obj = self._catalog[int(ref)]  # type: ignore[arg-type]
                    lines.append(
                        f"{prefix}{ext}{'└── ' if last else '├── '}"
                        f"{obj.label} (δ={obj.size_mb:.3g} MB)"
                    )

        walk(self._root, "", True, 0)
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"OperatorTree(n_ops={len(self)}, n_leaves="
            f"{len(self.leaf_occurrences)}, root=n{self._root}"
            f"{', ' + self.name if self.name else ''})"
        )
