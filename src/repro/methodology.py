"""The simulation methodology (§5): configuration and the one instance
factory.

"All our simulations use randomly generated binary operator trees with
at most N operators [...] each basic object is chosen randomly among 15
different types [...] we dispose of 6 servers, each of them equipped
with a 10 GB network card [...] servers and processors are all
interconnected by a 1 GB link.  The application throughput ρ is fixed
to 1 for all simulations."

Two named work-unit calibrations (see :mod:`repro.units` and
EXPERIMENTS.md for the full derivation):

``STANDARD_OPS_PER_GHZ = 6000``
    Pinned by the paper's reported α-feasibility thresholds
    (N=60 infeasible past α≈1.8, N=20 past α≈2.2, first cost rise at
    α≈1.6–1.7).  Under it, α≈0.9 workloads consolidate onto very few
    machines (compute is far from binding), so cost-vs-N curves are
    flat at the bottom of the ranking.

``DENSE_OPS_PER_GHZ = 30``
    Pinned by Figure 2(a)'s cost magnitudes (Random ≈ $400k at N=140 ≈
    tens of cheapest machines ⇒ a few average operators per cheapest
    machine at α = 0.9), with the value chosen so the fastest machine
    still hosts the root operator at N = 140 (Figure 2(a)'s rightmost
    point).  Under it every heuristic's cost grows with N as in the
    figure, but α = 1.7 workloads are infeasible — the two regimes are
    mutually inconsistent in the 8-page paper, so we reproduce each
    figure under the calibration that matches its own evidence and
    document the tension (EXPERIMENTS.md).  The fig2a campaign also
    widens links to 2.5 GB/s so top-of-tree edges (≈1.2 GB at N = 140)
    remain routable, which the paper's feasible N = 140 points imply.

:func:`make_instance` is the only place a single-tree instance is
drawn, fully determined by ``(config, instance_index)``: object catalog,
tree shape, leaf draws and servers use independent sub-streams spawned
from the master seed, so any data point of any figure can be
regenerated in isolation.  Its callers are the §5 campaigns
(:mod:`repro.experiments`), :meth:`repro.api.InstanceSpec.build` (no
index: ``spawn(seed, "objects")``) and the ``ramp``, ``diurnal``,
``freq-shift`` and ``churn`` trace families of :mod:`repro.dynamic.traces`
(no index, ``"trace"`` prefix: ``spawn(seed, "trace", "objects")``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Iterator

from .apptree.generators import random_tree
from .apptree.objects import (
    HIGH_FREQUENCY_HZ,
    LARGE_SIZE_RANGE_MB,
    LOW_FREQUENCY_HZ,
    SMALL_SIZE_RANGE_MB,
    ObjectCatalog,
)
from .checks import _at_least, _boolean, _integer, _is_real, _positive, _real
from .core.problem import ProblemInstance
from .platform.catalog import (
    DELL_CPU_OPTIONS,
    DELL_NIC_OPTIONS,
    Catalog,
    NicOption,
    dell_catalog,
)
from .platform.network import NetworkModel
from .platform.servers import ServerFarm
from .rng import spawn
from .units import (
    DEFAULT_LINK_BANDWIDTH_MBPS,
    OPS_PER_GHZ,
    SERVER_NIC_BANDWIDTH_MBPS,
)

__all__ = [
    "ExperimentConfig",
    "make_instance",
    "instance_stream",
    "STANDARD_OPS_PER_GHZ",
    "DENSE_OPS_PER_GHZ",
    "small_high",
    "small_low",
    "large_high",
    "N_SWEEP_DEFAULT",
    "ALPHA_SWEEP_DEFAULT",
]

#: Cliff-faithful calibration (default everywhere).
STANDARD_OPS_PER_GHZ: float = OPS_PER_GHZ
#: Figure-2(a)-magnitude calibration (cost growth at α = 0.9).
DENSE_OPS_PER_GHZ: float = 30.0

#: Figure 2's x-axis.
N_SWEEP_DEFAULT: tuple[int, ...] = (20, 40, 60, 80, 100, 120, 140)
#: Figure 3's x-axis.
ALPHA_SWEEP_DEFAULT: tuple[float, ...] = (
    0.5, 0.7, 0.9, 1.1, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9, 2.0, 2.2, 2.5,
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to draw one random instance population."""

    #: Operator-tree size (the paper's N).
    n_operators: int = 60
    #: Work/output exponent of the methodology.
    alpha: float = 0.9
    #: Number of basic-object types (paper: 15).
    n_object_types: int = 15
    #: Uniform size range for object types, MB.
    size_range_mb: tuple[float, float] = SMALL_SIZE_RANGE_MB
    #: Shared download frequency, 1/s.
    frequency_hz: float = HIGH_FREQUENCY_HZ
    #: Number of data servers (paper: 6).
    n_servers: int = 6
    #: Server NIC bandwidth, MB/s (paper: "10 GB card").
    server_nic_mbps: float = SERVER_NIC_BANDWIDTH_MBPS
    #: Probability an object is replicated on each extra server.
    replication_probability: float = 0.2
    #: Uniform link bandwidth, MB/s (paper: "1 GB link").
    link_mbps: float = DEFAULT_LINK_BANDWIDTH_MBPS
    #: Target application throughput (paper: 1).
    rho: float = 1.0
    #: Work-unit calibration for the processor catalog.
    ops_per_ghz: float = STANDARD_OPS_PER_GHZ
    #: Read Table 1's NIC column as GB/s instead of Gbps (×8 capacity,
    #: same prices).  The paper's prose mixes both units ("10 GB network
    #: card", "1 GB link" vs a table in Gbps); the large-object regime
    #: is only feasible at the paper's reported scale (≈45 operators)
    #: under the GB/s reading, so that experiment sets this flag — see
    #: EXPERIMENTS.md for the derivation.
    fat_nics: bool = False
    #: Restrict the catalog to a single (most powerful) configuration —
    #: the CONSTR-HOM setting of the optimal-comparison experiment.
    homogeneous: bool = False
    #: Instances drawn per configuration point (reported values are
    #: means over the successful ones, as in the paper's plots).
    n_instances: int = 10
    #: Master seed for the whole campaign.
    master_seed: int = 2009

    def __post_init__(self) -> None:
        # checked here so a malformed sweep body is a 400 at the
        # service door, not a 500 from inside the campaign
        for name in ("n_operators", "n_object_types", "n_servers",
                     "n_instances"):
            _at_least(self, name, 1, _integer)
        _integer(self, "master_seed")
        _real(self, "alpha")
        for name in ("frequency_hz", "server_nic_mbps", "link_mbps",
                     "rho", "ops_per_ghz"):
            _positive(self, name)
        if not 0 <= _real(self, "replication_probability") < 1:
            raise ValueError(
                f"replication_probability must be in [0, 1), got"
                f" {self.replication_probability}"
            )
        sizes = self.size_range_mb
        if not (
            isinstance(sizes, tuple) and len(sizes) == 2
            and all(_is_real(x) for x in sizes)
            and 0 < sizes[0] <= sizes[1]
        ):
            raise ValueError(
                f"size_range_mb must be a (low, high) pair with"
                f" 0 < low <= high, got {sizes!r}"
            )
        for name in ("fat_nics", "homogeneous"):
            _boolean(self, name)

    def with_(self, **changes) -> "ExperimentConfig":
        """Functional update (used by sweep definitions)."""
        return replace(self, **changes)

    @property
    def label(self) -> str:
        size = (
            "small" if self.size_range_mb == SMALL_SIZE_RANGE_MB else
            "large" if self.size_range_mb == LARGE_SIZE_RANGE_MB else
            f"{self.size_range_mb[0]:g}-{self.size_range_mb[1]:g}MB"
        )
        freq = (
            "high" if self.frequency_hz == HIGH_FREQUENCY_HZ else
            "low" if self.frequency_hz == LOW_FREQUENCY_HZ else
            f"{self.frequency_hz:g}Hz"
        )
        return (
            f"N={self.n_operators} α={self.alpha:g} {size}/{freq}"
            f"{' hom' if self.homogeneous else ''}"
        )


def small_high(**changes) -> ExperimentConfig:
    """Small objects (5–30 MB), high frequency (1/2 s) — the paper's
    primary regime (Figures 2 and 3)."""
    return ExperimentConfig().with_(**changes)


def small_low(**changes) -> ExperimentConfig:
    """Small objects, low frequency (1/50 s)."""
    return ExperimentConfig(frequency_hz=LOW_FREQUENCY_HZ).with_(**changes)


def large_high(**changes) -> ExperimentConfig:
    """Large objects (450–530 MB), high frequency — the regime where
    feasibility collapses past ≈45 operators."""
    return ExperimentConfig(size_range_mb=LARGE_SIZE_RANGE_MB).with_(**changes)


@lru_cache(maxsize=64, typed=True)
def _machine_catalog(
    ops_per_ghz: float, fat_nics: bool, homogeneous: bool
) -> Catalog:
    """The shared Table 1 catalog variant a configuration buys from."""
    if fat_nics:
        # Table 1 NIC column read as GB/s: ×8 capacity, same prices.
        catalog = Catalog(
            DELL_CPU_OPTIONS,
            [NicOption(n.bandwidth_gbps * 8.0, n.upgrade_cost)
             for n in DELL_NIC_OPTIONS],
            ops_per_ghz=ops_per_ghz,
        )
    else:
        catalog = dell_catalog(ops_per_ghz=ops_per_ghz)
    return catalog.homogeneous() if homogeneous else catalog


def make_instance(
    config: ExperimentConfig,
    index: int | None = None,
    *,
    name: str | None = None,
    prefix: tuple[str, ...] = (),
) -> ProblemInstance:
    """Draw the ``index``-th instance of the configured population.

    The tree and the instance are named ``"<label>#<index>"``;
    ``name`` renames the instance.  ``index=None`` draws from the
    index-free sub-streams and leaves the tree unnamed.  ``prefix``
    heads every sub-stream path (the trace families draw under
    ``("trace",)``).
    """
    seed = config.master_seed
    path = () if index is None else (index,)
    label = "" if index is None else f"{config.label}#{index}"
    objects = ObjectCatalog.random(
        config.n_object_types,
        size_range_mb=config.size_range_mb,
        frequency_hz=config.frequency_hz,
        seed=spawn(seed, *prefix, "objects", *path),
    )
    tree = random_tree(
        config.n_operators,
        objects,
        alpha=config.alpha,
        seed=spawn(seed, *prefix, "tree", *path),
        name=label,
    )
    farm = ServerFarm.random(
        config.n_object_types,
        n_servers=config.n_servers,
        nic_mbps=config.server_nic_mbps,
        replication_probability=config.replication_probability,
        seed=spawn(seed, *prefix, "servers", *path),
    )
    network = NetworkModel(
        processor_link_mbps=config.link_mbps,
        server_link_mbps=config.link_mbps,
    )
    return ProblemInstance(
        tree=tree,
        farm=farm,
        catalog=_machine_catalog(
            config.ops_per_ghz, config.fat_nics, config.homogeneous
        ),
        network=network,
        rho=config.rho,
        name=label if name is None else name,
    )


def instance_stream(config: ExperimentConfig) -> Iterator[ProblemInstance]:
    """All ``config.n_instances`` instances, lazily."""
    for index in range(config.n_instances):
        yield make_instance(config, index)
