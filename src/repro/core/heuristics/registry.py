"""Name → heuristic registry.

The experiment campaigns, CLI, and benchmark harness all refer to
heuristics by their paper names.  Since the service API landed,
lookups are delegated to the unified namespaced registry
(:mod:`repro.api.registry`, ``placement`` namespace), which registers
the six placement classes itself — so strategies added downstream via
``repro.api.register("placement", ...)`` resolve here too.
:data:`HEURISTIC_ORDER` remains the canonical plotting/report order,
following the paper's figure legends.
"""

from __future__ import annotations

from .base import PlacementHeuristic

__all__ = [
    "HEURISTIC_ORDER",
    "make_heuristic",
    "all_heuristics",
]

#: Legend order of the paper's figures.
HEURISTIC_ORDER: tuple[str, ...] = (
    "random",
    "comp-greedy",
    "comm-greedy",
    "subtree-bottom-up",
    "object-grouping",
    "object-availability",
)


def make_heuristic(name: str) -> PlacementHeuristic:
    """Instantiate a heuristic by its paper name (or any placement
    strategy registered through :func:`repro.api.register`)."""
    from ...api import registry as unified

    return unified.make("placement", name)


def all_heuristics() -> list[PlacementHeuristic]:
    """Fresh instances of all six heuristics, in figure-legend order."""
    return [make_heuristic(name) for name in HEURISTIC_ORDER]
