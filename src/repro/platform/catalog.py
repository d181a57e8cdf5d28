"""The purchase catalog — paper Table 1 (Dell PowerEdge R900, March 2008).

The constructive scenario buys each processor as a *chassis* plus a CPU
option plus a network-card option.  Table 1 prints each option's cost as
``7,548 + upgrade`` where $7,548 is the base chassis (which already
includes the slowest CPU *and* the 1 Gbps NIC — both appear with "+ 0"),
so a full configuration costs::

    cost(cpu, nic) = 7,548 + cpu.upgrade + nic.upgrade

A :class:`ProcessorSpec` is one (CPU, NIC) combination; the
:class:`Catalog` enumerates all of them, answers "cheapest spec
satisfying (compute, bandwidth) demand" queries (the workhorse of every
heuristic and of the downgrade phase), and supports restriction to a
homogeneous single-spec catalog for the optimal-comparison experiment.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

from ..errors import PlatformModelError
from ..units import OPS_PER_GHZ, format_cost, gbps_to_mbps, ghz_to_ops

__all__ = [
    "CpuOption",
    "NicOption",
    "ProcessorSpec",
    "Catalog",
    "BASE_CHASSIS_COST",
    "DELL_CPU_OPTIONS",
    "DELL_NIC_OPTIONS",
    "dell_catalog",
]

#: Base cost of the rack-mountable server chassis (Table 1).
BASE_CHASSIS_COST: float = 7_548.0

#: Relative slack a spec's capacities get in :meth:`ProcessorSpec.satisfies`
#: (absorbs floating-point accumulation in the aggregated loads).
SATISFY_TOL: float = 1e-9


@dataclass(frozen=True, slots=True)
class CpuOption:
    """One CPU row of Table 1: aggregate speed in GHz and upgrade cost."""

    speed_ghz: float
    upgrade_cost: float

    def __post_init__(self) -> None:
        if self.speed_ghz <= 0:
            raise PlatformModelError("CPU speed must be positive")
        if self.upgrade_cost < 0:
            raise PlatformModelError("CPU upgrade cost must be >= 0")

    @property
    def speed_ops(self) -> float:
        """Compute capacity in operations/second (see :mod:`repro.units`)."""
        return ghz_to_ops(self.speed_ghz)

    @property
    def ratio(self) -> float:
        """GHz per dollar of a standalone purchase (Table 1's ratio
        column): speed / (chassis + upgrade)."""
        return self.speed_ghz / (BASE_CHASSIS_COST + self.upgrade_cost)


@dataclass(frozen=True, slots=True)
class NicOption:
    """One network-card row of Table 1: bandwidth in Gbps, upgrade cost."""

    bandwidth_gbps: float
    upgrade_cost: float

    def __post_init__(self) -> None:
        if self.bandwidth_gbps <= 0:
            raise PlatformModelError("NIC bandwidth must be positive")
        if self.upgrade_cost < 0:
            raise PlatformModelError("NIC upgrade cost must be >= 0")

    @property
    def bandwidth_mbps(self) -> float:
        return gbps_to_mbps(self.bandwidth_gbps)

    @property
    def ratio(self) -> float:
        """Gbps per dollar of a standalone purchase (Table 1)."""
        return self.bandwidth_gbps / (BASE_CHASSIS_COST + self.upgrade_cost)


#: Table 1, processor block (GHz, upgrade $).
DELL_CPU_OPTIONS: tuple[CpuOption, ...] = (
    CpuOption(11.72, 0.0),
    CpuOption(19.20, 1_550.0),
    CpuOption(25.60, 2_399.0),
    CpuOption(38.40, 3_949.0),
    CpuOption(46.88, 5_299.0),
)

#: Table 1, network-card block (Gbps, upgrade $).
DELL_NIC_OPTIONS: tuple[NicOption, ...] = (
    NicOption(1.0, 0.0),
    NicOption(2.0, 399.0),
    NicOption(4.0, 1_197.0),
    NicOption(10.0, 2_800.0),
    NicOption(20.0, 5_999.0),
)


@dataclass(frozen=True, slots=True)
class ProcessorSpec:
    """A purchasable processor configuration: chassis + CPU + NIC.

    ``ops_per_ghz`` is the work-unit calibration converting Table 1's
    GHz figures into operations/second comparable with the methodology's
    ``w_i = (δ_l + δ_r)**α`` work amounts; see :mod:`repro.units` and
    EXPERIMENTS.md for how the paper's feasibility thresholds pin it
    down (and why two calibrations are provided).
    """

    cpu: CpuOption
    nic: NicOption
    base_cost: float = BASE_CHASSIS_COST
    ops_per_ghz: float = OPS_PER_GHZ

    @property
    def cost(self) -> float:
        return self.base_cost + self.cpu.upgrade_cost + self.nic.upgrade_cost

    @property
    def speed_ops(self) -> float:
        """CPU capacity in operations/second."""
        return self.cpu.speed_ghz * self.ops_per_ghz

    @property
    def speed_ghz(self) -> float:
        return self.cpu.speed_ghz

    @property
    def nic_mbps(self) -> float:
        """NIC capacity in MB/s (total in+out under bounded multi-port)."""
        return self.nic.bandwidth_mbps

    def satisfies(self, work_ops: float, bandwidth_mbps: float) -> bool:
        """Can this spec host a load of ``work_ops`` operations/s and
        ``bandwidth_mbps`` MB/s of NIC traffic?  (Constraints 1 & 2 with
        the load pre-aggregated; a small relative tolerance absorbs
        floating-point accumulation.)"""
        return (
            work_ops <= self.speed_ops * (1 + SATISFY_TOL)
            and bandwidth_mbps <= self.nic_mbps * (1 + SATISFY_TOL)
        )

    def describe(self) -> str:
        return (
            f"{self.cpu.speed_ghz:g} GHz / {self.nic.bandwidth_gbps:g} Gbps"
            f" @ {format_cost(self.cost)}"
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.describe()


class Catalog:
    """All purchasable processor configurations, with query helpers.

    Specs are kept sorted by (cost, -speed, -nic); "cheapest feasible"
    means the first spec of that order able to host a load.  A spec
    hosts a load when its CPU *and* its NIC each clear a threshold, so
    the feasible specs are always the CPU options from some index up
    crossed with the NIC options from some index up.  The answer for
    every such pair of suffixes is tabulated at construction, and a
    query is two bisections into the per-dimension thresholds.

    A catalog is immutable once built (assigning to it raises
    :class:`AttributeError`), so one catalog is shared by every
    instance that buys from it (see :func:`dell_catalog`).
    """

    def __init__(
        self,
        cpu_options: Sequence[CpuOption] = DELL_CPU_OPTIONS,
        nic_options: Sequence[NicOption] = DELL_NIC_OPTIONS,
        *,
        base_cost: float = BASE_CHASSIS_COST,
        ops_per_ghz: float = OPS_PER_GHZ,
    ) -> None:
        if not cpu_options or not nic_options:
            raise PlatformModelError("catalog needs >= 1 CPU and >= 1 NIC option")
        if ops_per_ghz <= 0:
            raise PlatformModelError("ops_per_ghz must be positive")
        self.cpu_options = tuple(
            sorted(cpu_options, key=lambda c: (c.speed_ghz, c.upgrade_cost))
        )
        self.nic_options = tuple(
            sorted(nic_options, key=lambda n: (n.bandwidth_gbps, n.upgrade_cost))
        )
        self.base_cost = base_cost
        self.ops_per_ghz = ops_per_ghz
        # (cpu index, nic index, spec) over the product, in scan order
        ranked = sorted(
            (
                (ci, ni, ProcessorSpec(cpu=c, nic=n, base_cost=base_cost,
                                       ops_per_ghz=ops_per_ghz))
                for (ci, c), (ni, n) in itertools.product(
                    enumerate(self.cpu_options), enumerate(self.nic_options)
                )
            ),
            key=lambda e: (e[2].cost, -e[2].speed_ops, -e[2].nic_mbps),
        )
        self._specs: tuple[ProcessorSpec, ...] = tuple(s for _, _, s in ranked)
        # The top-of-range machine the paper's heuristics provisionally
        # buy before the downgrade step ("only the most powerful
        # processors and network cards are acquired", §4.1).  Ties on
        # cost break toward higher speed, then higher NIC.
        self.most_expensive: ProcessorSpec = max(
            self._specs, key=lambda s: (s.cost, s.speed_ops, s.nic_mbps)
        )
        # Highest CPU capacity; among those, largest NIC (feasibility
        # probes use this: if the fastest machine cannot host an
        # operator, nothing can).
        self.fastest: ProcessorSpec = max(
            self._specs, key=lambda s: (s.speed_ops, s.nic_mbps)
        )
        self.max_speed_ops: float = self.fastest.speed_ops
        self.max_nic_mbps: float = max(s.nic_mbps for s in self._specs)

        # The thresholds ProcessorSpec.satisfies compares against, in
        # ascending order (the options are sorted by capacity), and
        # _cheapest[ci][ni]: the first spec in scan order among CPU
        # options >= ci and NIC options >= ni (None past either end).
        self._cpu_thresholds = tuple(
            c.speed_ghz * ops_per_ghz * (1 + SATISFY_TOL)
            for c in self.cpu_options
        )
        self._nic_thresholds = tuple(
            n.bandwidth_mbps * (1 + SATISFY_TOL) for n in self.nic_options
        )
        cheapest: list[list[ProcessorSpec | None]] = [
            [None] * (len(self.nic_options) + 1)
            for _ in range(len(self.cpu_options) + 1)
        ]
        for ci, ni, spec in reversed(ranked):  # earlier specs overwrite
            for row in cheapest[: ci + 1]:
                row[: ni + 1] = [spec] * (ni + 1)
        self._cheapest = tuple(tuple(row) for row in cheapest)
        self._frozen = True

    def __setattr__(self, name: str, value) -> None:
        if getattr(self, "_frozen", False):
            raise AttributeError(f"Catalog is immutable: cannot set {name!r}")
        object.__setattr__(self, name, value)

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"Catalog is immutable: cannot delete {name!r}")

    # -- basic access ---------------------------------------------------
    @property
    def specs(self) -> tuple[ProcessorSpec, ...]:
        """All configurations, cheapest first."""
        return self._specs

    def __len__(self) -> int:
        return len(self._specs)

    def __iter__(self) -> Iterator[ProcessorSpec]:
        return iter(self._specs)

    @property
    def cheapest(self) -> ProcessorSpec:
        return self._specs[0]

    # -- queries ----------------------------------------------------------
    def cheapest_satisfying(
        self, work_ops: float, bandwidth_mbps: float
    ) -> ProcessorSpec | None:
        """Cheapest configuration able to host the given aggregate load,
        or ``None`` when even the top configuration cannot.  This is the
        primitive behind both "acquire the cheapest possible processor"
        (Random, Comm-Greedy) and the downgrade phase.  Returns the very
        spec a cheapest-first scan with :meth:`ProcessorSpec.satisfies`
        finds, tie-breaks included."""
        if work_ops != work_ops or bandwidth_mbps != bandwidth_mbps:
            return None  # NaN satisfies no threshold; bisection would say 0
        return self._cheapest[bisect_left(self._cpu_thresholds, work_ops)][
            bisect_left(self._nic_thresholds, bandwidth_mbps)
        ]

    def feasible_for(self, work_ops: float, bandwidth_mbps: float) -> bool:
        """True when *some* configuration can host the load."""
        return self.cheapest_satisfying(work_ops, bandwidth_mbps) is not None

    # -- restrictions ------------------------------------------------------
    def homogeneous(self, spec: ProcessorSpec | None = None) -> "Catalog":
        """A single-configuration catalog (CONSTR-HOM, used for the
        optimal-comparison experiment where the downgrade step is
        skipped).  Defaults to the most powerful configuration."""
        spec = spec or self.fastest
        return Catalog(
            cpu_options=[spec.cpu],
            nic_options=[spec.nic],
            base_cost=spec.base_cost,
            ops_per_ghz=spec.ops_per_ghz,
        )

    def table(self) -> str:
        """Render the catalog as paper-style Table 1 text."""
        lines = ["Processor", f"{'Perf (GHz)':>12} {'Cost ($)':>16} {'Ratio (GHz/$)':>15}"]
        for c in self.cpu_options:
            lines.append(
                f"{c.speed_ghz:>12.2f} {self.base_cost:,.0f} + {c.upgrade_cost:>7,.0f}"
                f" {c.ratio:>13.2e}"
            )
        lines.append("Network Card")
        lines.append(f"{'BW (Gbps)':>12} {'Cost ($)':>16} {'Ratio (Gbps/$)':>15}")
        for n in self.nic_options:
            lines.append(
                f"{n.bandwidth_gbps:>12.0f} {self.base_cost:,.0f} + {n.upgrade_cost:>7,.0f}"
                f" {n.ratio:>13.2e}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Catalog({len(self.cpu_options)} CPUs x {len(self.nic_options)}"
            f" NICs, {format_cost(self.cheapest.cost)}-"
            f"{format_cost(self.most_expensive.cost)})"
        )


def dell_catalog(*, ops_per_ghz: float = OPS_PER_GHZ) -> Catalog:
    """The paper's Table 1 catalog, one shared immutable instance per
    calibration (repeat calls return the same object).

    ``ops_per_ghz`` selects the work-unit calibration; the default
    reproduces the paper's α-feasibility thresholds (see
    :mod:`repro.units`)."""
    return _dell_catalog(ops_per_ghz)


@lru_cache(maxsize=64, typed=True)
def _dell_catalog(ops_per_ghz: float) -> Catalog:
    return Catalog(DELL_CPU_OPTIONS, DELL_NIC_OPTIONS,
                   ops_per_ghz=ops_per_ghz)
