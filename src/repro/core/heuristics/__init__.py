"""The six polynomial operator-placement heuristics of §4.1."""

from .base import PlacementContext, PlacementHeuristic, PlacementOutcome
from .comm_greedy import CommGreedyPlacement
from .local_search import RefinementReport, refine_placement
from .comp_greedy import CompGreedyPlacement
from .object_availability import ObjectAvailabilityPlacement
from .object_grouping import ObjectGroupingPlacement
from .random_h import RandomPlacement
from .registry import HEURISTIC_ORDER, all_heuristics, make_heuristic
from .subtree_bottom_up import SubtreeBottomUpPlacement

__all__ = [
    "PlacementContext",
    "PlacementHeuristic",
    "PlacementOutcome",
    "RandomPlacement",
    "CompGreedyPlacement",
    "CommGreedyPlacement",
    "SubtreeBottomUpPlacement",
    "ObjectGroupingPlacement",
    "ObjectAvailabilityPlacement",
    "HEURISTIC_ORDER",
    "RefinementReport",
    "all_heuristics",
    "make_heuristic",
    "refine_placement",
]
