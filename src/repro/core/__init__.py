"""Core contribution: the operator-placement problem and its solvers."""

from .bounds import CostLowerBound, cost_lower_bound
from .complexity import (
    ThreePartitionReduction,
    is_object_disjoint,
    minimal_machines_object_disjoint,
    round_robin_mapping,
    solve_object_disjoint,
    three_partition_instance,
)
from .constraints import (
    ConstraintReport,
    Violation,
    assert_feasible,
    verify,
)
from .downgrade import downgrade_processors
from .exact import ExactSolution, exact_download_feasible, solve_exact
from .ilp import IlpModel, IlpStatistics, build_ilp, model_statistics
from .latency import LatencyAnalysis, pipeline_latency
from .heuristics import (
    HEURISTIC_ORDER,
    all_heuristics,
    make_heuristic,
    PlacementHeuristic,
    PlacementOutcome,
)
from .loads import LoadTracker, standalone_requirement
from .mapping import Allocation, required_downloads
from .pipeline import (
    AllocationResult,
    allocate,
    default_server_selection,
)
from .problem import ProblemInstance
from .server_selection import (
    DownloadPlan,
    RandomServerSelection,
    ServerSelection,
    ThreeLoopServerSelection,
    demands_of,
)
from .throughput import ThroughputAnalysis, max_throughput

__all__ = [
    "Allocation",
    "AllocationResult",
    "ConstraintReport",
    "CostLowerBound",
    "ExactSolution",
    "IlpModel",
    "IlpStatistics",
    "LatencyAnalysis",
    "pipeline_latency",
    "ThreePartitionReduction",
    "build_ilp",
    "cost_lower_bound",
    "exact_download_feasible",
    "is_object_disjoint",
    "minimal_machines_object_disjoint",
    "model_statistics",
    "round_robin_mapping",
    "solve_exact",
    "solve_object_disjoint",
    "three_partition_instance",
    "DownloadPlan",
    "HEURISTIC_ORDER",
    "LoadTracker",
    "PlacementHeuristic",
    "PlacementOutcome",
    "ProblemInstance",
    "RandomServerSelection",
    "ServerSelection",
    "ThreeLoopServerSelection",
    "ThroughputAnalysis",
    "Violation",
    "all_heuristics",
    "allocate",
    "assert_feasible",
    "default_server_selection",
    "demands_of",
    "downgrade_processors",
    "make_heuristic",
    "max_throughput",
    "required_downloads",
    "standalone_requirement",
    "verify",
]
