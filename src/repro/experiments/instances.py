"""Random instance generation: the one instance factory.

Every instance is fully determined by ``(config, instance_index)``:
object catalog, tree shape, leaf draws, and server distribution all use
independent sub-streams spawned from the campaign master seed, so any
single data point of any figure can be regenerated in isolation (the
benchmark harness relies on this).  :func:`repro.quick_instance` and
:meth:`repro.api.InstanceSpec.build` draw through the same function,
with no index (``spawn(seed, "objects")`` instead of
``spawn(seed, "objects", index)``).
"""

from __future__ import annotations

from typing import Iterator

from ..apptree.generators import random_tree
from ..apptree.objects import ObjectCatalog
from ..core.problem import ProblemInstance
from ..platform.catalog import dell_catalog
from ..platform.network import NetworkModel
from ..platform.servers import ServerFarm
from ..rng import spawn
from .config import ExperimentConfig

__all__ = ["make_instance", "instance_stream"]


def make_instance(
    config: ExperimentConfig,
    index: int | None = None,
    *,
    name: str | None = None,
) -> ProblemInstance:
    """Draw the ``index``-th instance of the configured population.

    The tree and the instance are named ``"<label>#<index>"``;
    ``name`` renames the instance.  ``index=None`` draws from the
    index-free sub-streams and leaves the tree unnamed.
    """
    seed = config.master_seed
    path = () if index is None else (index,)
    label = "" if index is None else f"{config.label}#{index}"
    objects = ObjectCatalog.random(
        config.n_object_types,
        size_range_mb=config.size_range_mb,
        frequency_hz=config.frequency_hz,
        seed=spawn(seed, "objects", *path),
    )
    tree = random_tree(
        config.n_operators,
        objects,
        alpha=config.alpha,
        seed=spawn(seed, "tree", *path),
        name=label,
    )
    farm = ServerFarm.random(
        config.n_object_types,
        n_servers=config.n_servers,
        nic_mbps=config.server_nic_mbps,
        replication_probability=config.replication_probability,
        seed=spawn(seed, "servers", *path),
    )
    if config.fat_nics:
        # Table 1 NIC column read as GB/s: ×8 capacity, same prices.
        from ..platform.catalog import (
            Catalog,
            DELL_CPU_OPTIONS,
            DELL_NIC_OPTIONS,
            NicOption,
        )

        catalog = Catalog(
            DELL_CPU_OPTIONS,
            [
                NicOption(n.bandwidth_gbps * 8.0, n.upgrade_cost)
                for n in DELL_NIC_OPTIONS
            ],
            ops_per_ghz=config.ops_per_ghz,
        )
    else:
        catalog = dell_catalog(ops_per_ghz=config.ops_per_ghz)
    if config.homogeneous:
        catalog = catalog.homogeneous()
    network = NetworkModel(
        processor_link_mbps=config.link_mbps,
        server_link_mbps=config.link_mbps,
    )
    return ProblemInstance(
        tree=tree,
        farm=farm,
        catalog=catalog,
        network=network,
        rho=config.rho,
        name=label if name is None else name,
    )


def instance_stream(config: ExperimentConfig) -> Iterator[ProblemInstance]:
    """All ``config.n_instances`` instances, lazily."""
    for index in range(config.n_instances):
        yield make_instance(config, index)
