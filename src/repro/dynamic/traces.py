"""Deterministic workload traces: timestamped instance mutations.

A :class:`WorkloadTrace` is an initial
:class:`~repro.core.problem.ProblemInstance` plus a typed sequence of
timestamped :class:`TraceEvent`\\ s.  Each event carries the *complete*
post-event value of whatever it mutates (target throughput, application
tree, server farm), computed once at generation time from a seeded
generator — so applying a trace involves no randomness at all and the
same seed yields bit-identical traces on every run and machine (the
determinism the replay tests assert).

Five generator families, all seeded through :mod:`repro.rng`:

==================  ====================================================
``ramp``            stepwise ρ ramp: up to a peak, back down
``diurnal``         sine-cycle ρ (a day of traffic in ``n_epochs`` steps)
``freq-shift``      object refresh-frequency shifts (QoS changes)
``churn``           farm servers leaving/joining + throughput drift
``multi-app``       application arrival/departure on a shared platform
==================  ====================================================

``churn`` combines server departures with a bounded ρ random walk:
pure placement is farm-oblivious (the farm only matters to server
selection), so drifting the target throughput is what forces a
from-scratch re-solver to keep re-shaping the platform while an
incremental policy can mostly keep it — exactly the contrast the
policy-comparison experiments measure.

``multi-app`` builds on :func:`~repro.apptree.multi.combine_forest`;
operators are given globally unique ``app.n<i>`` names so the repair
planner can track operator identity across re-indexing (glue operators
keep the non-unique virtual name and are re-placed for free — they have
zero work and zero output).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

from ..apptree.generators import random_tree
from ..apptree.multi import combine_forest
from ..apptree.nodes import Operator
from ..apptree.objects import BasicObject, ObjectCatalog
from ..apptree.tree import OperatorTree
from ..core.problem import ProblemInstance
from ..errors import ModelError
from ..methodology import ExperimentConfig, make_instance
from ..platform.catalog import dell_catalog
from ..platform.network import NetworkModel
from ..platform.resources import Server
from ..platform.servers import ServerFarm
from ..rng import spawn
from ..units import SERVER_NIC_BANDWIDTH_MBPS

__all__ = [
    "TraceEvent",
    "WorkloadTrace",
    "TRACE_FACTORIES",
    "TRACE_ORDER",
    "make_trace",
    "ramp_trace",
    "diurnal_trace",
    "frequency_shift_trace",
    "churn_trace",
    "multi_app_trace",
]


@dataclass(frozen=True)
class TraceEvent:
    """One timestamped workload change.

    Only the non-``None`` payload fields are applied; an event may
    change several inputs at once (e.g. ``churn`` events replace the
    farm *and* nudge ρ).
    """

    time: float
    kind: str  # "rho" | "frequency" | "farm" | "app-arrival" | "app-departure"
    label: str
    rho: float | None = None
    tree: OperatorTree | None = None
    farm: ServerFarm | None = None

    def apply(self, instance: ProblemInstance) -> ProblemInstance:
        """Return the mutated instance (the input is never modified)."""
        changes: dict = {}
        if self.rho is not None:
            changes["rho"] = self.rho
        if self.tree is not None:
            changes["tree"] = self.tree
        if self.farm is not None:
            changes["farm"] = self.farm
        if not changes:
            return instance
        return replace(instance, **changes)


@dataclass(frozen=True)
class WorkloadTrace:
    """An initial instance plus its timestamped mutation sequence."""

    name: str
    seed: int
    initial: ProblemInstance
    events: tuple[TraceEvent, ...]

    def __post_init__(self) -> None:
        times = [e.time for e in self.events]
        if times != sorted(times):
            raise ModelError("trace events must be ordered by time")
        if times and times[0] <= 0.0:
            raise ModelError("trace events must occur strictly after t=0")

    def __len__(self) -> int:
        """Number of epochs, counting the initial one."""
        return 1 + len(self.events)

    def epochs(self):
        """Yield ``(time, label, instance)`` per epoch, starting with
        ``(0.0, "initial", initial)``; instances accumulate mutations."""
        inst = self.initial
        yield 0.0, "initial", inst
        for event in self.events:
            inst = event.apply(inst)
            yield event.time, event.label, inst


# ----------------------------------------------------------------------
# shared construction helpers
# ----------------------------------------------------------------------

def _named_tree(tree: OperatorTree, app: str) -> OperatorTree:
    """Give every operator the globally unique name ``<app>.n<i>`` so
    the repair planner can match operators across forest re-indexing."""
    ops = [
        Operator(
            index=op.index,
            children=op.children,
            leaves=op.leaves,
            work=op.work,
            output_mb=op.output_mb,
            name=f"{app}.n{op.index}",
        )
        for op in tree
    ]
    return OperatorTree(ops, tree.catalog, name=app)


# ----------------------------------------------------------------------
# trace generators
# ----------------------------------------------------------------------

def ramp_trace(
    *,
    n_operators: int = 30,
    alpha: float = 1.8,
    n_epochs: int = 12,
    rho_base: float = 0.5,
    rho_peak: float = 1.5,
    seed: int = 2009,
) -> WorkloadTrace:
    """Stepwise ρ ramp: climb from ``rho_base`` to ``rho_peak`` over the
    first half of the epochs, descend back over the second half."""
    if n_epochs < 2:
        raise ModelError("ramp_trace needs at least 2 epochs")
    initial = make_instance(ExperimentConfig(
        n_operators=n_operators, alpha=alpha, rho=rho_base, master_seed=seed,
    ), name=f"ramp(n={n_operators}, seed={seed})", prefix=("trace",))
    up = (n_epochs + 1) // 2
    events = []
    for e in range(1, n_epochs + 1):
        if e <= up:
            frac = e / up
        else:
            frac = max(0.0, 1.0 - (e - up) / (n_epochs - up))
        rho = rho_base + (rho_peak - rho_base) * frac
        events.append(
            TraceEvent(
                time=float(e), kind="rho",
                label=f"rho->{rho:.3f}", rho=round(rho, 9),
            )
        )
    return WorkloadTrace(
        name="ramp", seed=seed, initial=initial, events=tuple(events)
    )


def diurnal_trace(
    *,
    n_operators: int = 30,
    alpha: float = 1.8,
    n_epochs: int = 16,
    rho_mean: float = 1.0,
    amplitude: float = 0.45,
    seed: int = 2009,
) -> WorkloadTrace:
    """A day of traffic: ρ follows one full sine cycle around
    ``rho_mean`` with the given relative ``amplitude``."""
    if not (0.0 <= amplitude < 1.0):
        raise ModelError("amplitude must be in [0, 1)")
    initial = make_instance(ExperimentConfig(
        n_operators=n_operators, alpha=alpha, rho=rho_mean, master_seed=seed,
    ), name=f"diurnal(n={n_operators}, seed={seed})", prefix=("trace",))
    events = []
    for e in range(1, n_epochs + 1):
        phase = 2.0 * math.pi * e / n_epochs
        rho = rho_mean * (1.0 + amplitude * math.sin(phase))
        events.append(
            TraceEvent(
                time=float(e), kind="rho",
                label=f"rho->{rho:.3f}", rho=round(rho, 9),
            )
        )
    return WorkloadTrace(
        name="diurnal", seed=seed, initial=initial, events=tuple(events)
    )


def frequency_shift_trace(
    *,
    n_operators: int = 30,
    alpha: float = 1.7,
    n_epochs: int = 10,
    shift_range: tuple[float, float] = (0.5, 4.0),
    n_shifted: int = 5,
    seed: int = 2009,
) -> WorkloadTrace:
    """Object refresh-frequency shifts: each epoch, ``n_shifted``
    randomly chosen object types have their QoS frequency multiplied by
    a factor drawn from ``shift_range`` (relative to the *original*
    frequency, so drifts stay bounded)."""
    lo, hi = shift_range
    if not (0.0 < lo <= hi):
        raise ModelError(f"invalid shift range {shift_range}")
    initial = make_instance(ExperimentConfig(
        n_operators=n_operators, alpha=alpha, master_seed=seed,
    ), name=f"freq-shift(n={n_operators}, seed={seed})", prefix=("trace",))
    base_objects = tuple(initial.tree.catalog)
    rng = spawn(seed, "trace", "freq-shift")
    events = []
    factors = [1.0] * len(base_objects)
    for e in range(1, n_epochs + 1):
        picks = rng.choice(
            len(base_objects), size=min(n_shifted, len(base_objects)),
            replace=False,
        )
        for k in picks:
            factors[int(k)] = float(rng.uniform(lo, hi))
        catalog = ObjectCatalog(
            [
                BasicObject(
                    index=o.index,
                    size_mb=o.size_mb,
                    frequency_hz=o.frequency_hz * factors[o.index],
                    name=o.name,
                )
                for o in base_objects
            ]
        )
        events.append(
            TraceEvent(
                time=float(e), kind="frequency",
                label=f"freq-shift x{len(picks)}",
                # frequencies do not enter the δ/w annotation (only
                # sizes do), so the operator records are reused verbatim
                tree=OperatorTree(list(initial.tree), catalog),
            )
        )
    return WorkloadTrace(
        name="freq-shift", seed=seed, initial=initial, events=tuple(events)
    )


def churn_trace(
    *,
    n_operators: int = 30,
    alpha: float = 1.9,
    n_epochs: int = 14,
    rho_base: float = 0.9,
    drift_step: float = 0.12,
    rho_bounds: tuple[float, float] = (0.6, 1.2),
    seed: int = 2009,
) -> WorkloadTrace:
    """Server churn plus throughput drift.

    Each epoch one farm server toggles availability: a live server goes
    down (its exclusively-held objects are adopted by the live server
    with the fewest objects), or a downed server comes back (adoptions
    are dropped and the original placement restored).  At least two
    servers always stay up.  In parallel ρ performs a bounded random
    walk of ±``drift_step`` steps, so the load the platform must carry
    keeps moving while object placement keeps shifting underneath it.
    """
    initial = make_instance(ExperimentConfig(
        n_operators=n_operators, alpha=alpha, rho=rho_base, master_seed=seed,
    ), name=f"churn(n={n_operators}, seed={seed})", prefix=("trace",))
    farm0 = initial.farm
    n_servers = len(farm0)
    base_objects: dict[int, frozenset[int]] = {
        srv.uid: srv.objects for srv in farm0
    }
    used = set(initial.tree.used_objects)
    rng = spawn(seed, "trace", "churn")
    down: set[int] = set()
    rho = rho_base
    lo, hi = rho_bounds
    events = []
    for e in range(1, n_epochs + 1):
        # -- toggle one server ------------------------------------------
        can_down = [u for u in range(n_servers) if u not in down]
        if down and (len(can_down) <= 2 or rng.random() < 0.5):
            back = sorted(down)[int(rng.integers(0, len(down)))]
            down.discard(back)
            what = f"S{back} up"
        else:
            victim = can_down[int(rng.integers(0, len(can_down)))]
            down.add(victim)
            what = f"S{victim} down"
        # rebuild placement: live servers keep their original objects;
        # used objects with no live holder are adopted by the emptiest
        # live server (deterministic tie-break on uid).
        hosted = {
            u: set(base_objects[u]) if u not in down else set()
            for u in range(n_servers)
        }
        live = [u for u in range(n_servers) if u not in down]
        for k in sorted(used):
            if not any(k in hosted[u] for u in live):
                adopter = min(live, key=lambda u: (len(hosted[u]), u))
                hosted[adopter].add(k)
        farm = ServerFarm(
            [
                Server(
                    uid=u, objects=frozenset(hosted[u]),
                    nic_mbps=SERVER_NIC_BANDWIDTH_MBPS,
                )
                for u in range(n_servers)
            ]
        )
        # -- drift the target throughput --------------------------------
        step = drift_step * (1.0 if rng.random() < 0.5 else -1.0)
        rho = min(hi, max(lo, rho + step))
        events.append(
            TraceEvent(
                time=float(e), kind="farm",
                label=f"{what}, rho->{rho:.3f}",
                rho=round(rho, 9), farm=farm,
            )
        )
    return WorkloadTrace(
        name="churn", seed=seed, initial=initial, events=tuple(events)
    )


def multi_app_trace(
    *,
    n_operators: int = 12,
    alpha: float = 1.4,
    n_epochs: int = 8,
    max_apps: int = 4,
    seed: int = 2009,
) -> WorkloadTrace:
    """Application arrival/departure on one shared platform.

    Starts with two applications; each epoch either a new application
    arrives (while fewer than ``max_apps`` run) or the oldest departs
    (while more than one runs).  The instance's tree is always the
    virtual-root forest combination of the active applications, with
    per-app unique operator names for cross-epoch identity.
    """
    catalog = ObjectCatalog.random(15, seed=spawn(seed, "trace", "objects"))
    farm = ServerFarm.random(15, seed=spawn(seed, "trace", "servers"))

    def app(idx: int) -> OperatorTree:
        return _named_tree(
            random_tree(
                n_operators, catalog, alpha=alpha,
                seed=spawn(seed, "trace", "app", idx),
            ),
            f"app{idx}",
        )

    active = [app(0), app(1)]
    next_app = 2
    initial = ProblemInstance(
        tree=combine_forest(active, name="forest"),
        farm=farm, catalog=dell_catalog(), network=NetworkModel(),
        rho=1.0, name=f"multi-app(n={n_operators}, seed={seed})",
    )
    rng = spawn(seed, "trace", "multi-app")
    events = []
    for e in range(1, n_epochs + 1):
        arrive = len(active) < max_apps and (
            len(active) <= 1 or rng.random() < 0.5
        )
        if arrive:
            active.append(app(next_app))
            label = f"{active[-1].name} arrives"
            next_app += 1
        else:
            gone = active.pop(0)
            label = f"{gone.name} departs"
        events.append(
            TraceEvent(
                time=float(e), kind="app-arrival" if arrive else "app-departure",
                label=label,
                tree=combine_forest(list(active), name="forest"),
            )
        )
    return WorkloadTrace(
        name="multi-app", seed=seed, initial=initial, events=tuple(events)
    )


# ----------------------------------------------------------------------
# registry (mirrors core.heuristics.registry)
# ----------------------------------------------------------------------

TRACE_FACTORIES: dict[str, Callable[..., WorkloadTrace]] = {
    "ramp": ramp_trace,
    "diurnal": diurnal_trace,
    "freq-shift": frequency_shift_trace,
    "churn": churn_trace,
    "multi-app": multi_app_trace,
}

#: Canonical presentation order for reports and the CLI.
TRACE_ORDER: tuple[str, ...] = (
    "ramp", "diurnal", "freq-shift", "churn", "multi-app",
)


def make_trace(name: str, *, seed: int = 2009, **kwargs) -> WorkloadTrace:
    """Instantiate a trace generator by name."""
    try:
        factory = TRACE_FACTORIES[name]
    except KeyError:
        known = ", ".join(sorted(TRACE_FACTORIES))
        raise KeyError(f"unknown trace {name!r}; known: {known}") from None
    return factory(seed=seed, **kwargs)
