"""repro — reproduction of *Resource Allocation Strategies for
Constructive In-Network Stream Processing* (Benoit, Casanova,
Rehn-Sonigo, Robert; IPDPS/APDCM 2009).

The library builds, from scratch, everything the paper describes:

* :mod:`repro.apptree` — binary operator trees over continuously
  updated basic objects (§2.1), with the paper's random-tree
  methodology (§5);
* :mod:`repro.platform` — the constructive platform: Dell catalog
  (Table 1), data servers, bounded multi-port network (§2.2);
* :mod:`repro.core` — the operator-placement problem (§2.3), its five
  steady-state constraints, six placement heuristics, two server-
  selection strategies, the downgrade phase (§4), the ILP formulation
  (§3) and an exact solver for small instances;
* :mod:`repro.simulator` — a discrete-event steady-state simulator
  validating that purchased platforms actually sustain the target
  throughput;
* :mod:`repro.experiments` — the full §5 simulation campaign behind
  every figure/table, re-runnable via ``python -m repro``;
* :mod:`repro.api` — the service-grade front door: typed
  :class:`~repro.api.SolveRequest`/:class:`~repro.api.SolveResult`
  objects, one namespaced strategy registry, and pluggable serial /
  process-pool execution backends.

Quickstart
----------
>>> from repro.api import InstanceSpec, SolveRequest, solve
>>> result = solve(SolveRequest(spec=InstanceSpec(n_operators=20, seed=7)))
>>> result.ok and result.cost > 0
True

Batches fan out over worker processes (results are bit-identical to
the serial run)::

    from repro.api import solve_many

    batch = [SolveRequest(spec=InstanceSpec(seed=s), seed=s)
             for s in range(32)]
    results = solve_many(batch, executor=4)   # --jobs 4 on the CLI

Portfolios (``SolveRequest(portfolio=…)``) and dynamic replays
(:func:`repro.api.replay` over a :class:`~repro.api.ReplayRequest`)
go through the same front door; the engines behind it
(:func:`repro.core.pipeline.allocate` and the replay driver in
:mod:`repro.dynamic.replay`) stay importable for callers that need
heuristic objects or live generators.
"""

from __future__ import annotations

from . import api, apptree, core, dynamic, platform
from .apptree import ObjectCatalog, OperatorTree, random_tree
from .core import (
    Allocation,
    AllocationResult,
    ProblemInstance,
    all_heuristics,
    make_heuristic,
    max_throughput,
    verify,
)
from .errors import (
    AllocationError,
    InfeasibleError,
    ModelError,
    PlacementError,
    ReproError,
    ServerSelectionError,
)
from .platform import Catalog, NetworkModel, ServerFarm, dell_catalog

__version__ = "1.1.0"

__all__ = [
    "Allocation",
    "AllocationError",
    "AllocationResult",
    "Catalog",
    "InfeasibleError",
    "ModelError",
    "NetworkModel",
    "ObjectCatalog",
    "OperatorTree",
    "PlacementError",
    "ProblemInstance",
    "ReproError",
    "ServerFarm",
    "ServerSelectionError",
    "all_heuristics",
    "api",
    "dell_catalog",
    "make_heuristic",
    "max_throughput",
    "quick_instance",
    "random_tree",
    "verify",
    "__version__",
]


def quick_instance(
    n_operators: int = 20,
    *,
    alpha: float = 0.9,
    seed: int = 0,
    n_object_types: int = 15,
) -> ProblemInstance:
    """Build a paper-methodology instance in one call (§5 defaults:
    15 object types, small sizes, high frequency, 6 servers, ρ=1)."""
    return api.InstanceSpec(
        n_operators, alpha=alpha, seed=seed, n_object_types=n_object_types
    ).build()
