"""Fluid-flow discrete-event simulator of an allocation in steady state.

The paper's feasibility argument is analytic (Eq. 1–5); this engine
*executes* a purchased platform to check the argument end to end.  It
models exactly the §2.3 runtime:

* every operator is a pipeline stage on its processor: while result
  ``t`` is being computed, result ``t−1``'s output travels to the
  parent and result ``t+1``'s inputs are arriving (full overlap);
* source operators (no operator children) release work at a
  configurable *offered rate* (open loop);
* each processor's CPU is a work-conserving FIFO server of speed
  ``s_u`` operations/second;
* network transfers are fluid flows sharing bandwidth max-min fairly
  under the bounded multi-port model (one aggregate NIC constraint per
  resource, one constraint per link);
* basic-object downloads are periodic: every ``1/f_k`` seconds each
  processor needing object ``k`` pulls ``δ_k`` MB from its selected
  server; a refresh that has not finished when the next one is due
  counts as a *deadline miss* (the next refresh is then skipped —
  the stale copy stays in use, matching how real refresh loops behave).

Flow policy
-----------
``reserved`` (default) caps every flow at its steady-state reservation
(``ρ·δ`` for edge transfers, ``rate_k`` for downloads).  Under this
policy an allocation that satisfies Eq. 1–5 at the offered rate
provably sustains it: every constraint's cap total is within capacity,
so progressive filling grants all caps, and each periodic refresh takes
exactly one period.  A refresh finishing exactly at its deadline is a
*tie*, resolved by an epsilon grace at launch time rather than by
inflating caps (which would oversubscribe NICs the downgrade phase
sized exactly).  ``elastic`` removes the caps, letting transfers grab
spare bandwidth — more realistic, used by the simulator benchmarks.

Flow kernel
-----------
Two kernels, producing **bit identical** :class:`SimulationResult`\\ s
(asserted by the equivalence tests and
``benchmarks/bench_simulator.py``):

* ``warm`` (default, production) — keeps a persistent
  :class:`~repro.simulator.flows.FlowNetwork` across flow events and
  refills only the connected component the changed flow touches; under
  ``reserved`` on a feasible allocation every flow start/finish is
  O(degree) — no filling pass at all.  Refills are memoised by
  component structure, so the periodic flow configurations a
  steady-state run cycles through are filled once and then replayed,
  and each cold fill picks python or numpy filling from its estimated
  work (see :mod:`repro.simulator.flows`).  Hits and cold-fill
  fallbacks are counted in ``SimulationResult.warm_hits`` /
  ``warm_fallbacks``.
* ``naive`` — the reference oracle: rebuilds the flow table and
  recomputes max-min rates from scratch
  (:func:`~repro.simulator.flows.max_min_rates`) on every event.

Both kernels reschedule only flows whose *rate actually changed*, so
they run the same event sequence.

Event core
----------
Both kernels share one event loop over
:class:`~repro.simulator.events.EventQueue`.  An event is a heap entry
``(when, seq, key, handler, args)`` naming the bound ``_on_*`` handler
and its arguments; the loop pops it (one prune, one ``heappop``) and
calls ``handler(*args)``, building no event object.  Transfer
completions are keyed by their flow, so a rate change supersedes the
stale completion inside the queue.

A validated replay (:mod:`repro.dynamic.replay`) runs this simulator
once per distinct platform per replay call: epochs that return to a
platform already validated in the same call (same tree, ρ, processors,
assignment, downloads, farm NICs, links and warm-up) reuse its
:class:`SimulationResult`.

The integration tests drive both directions: feasible allocations must
achieve the offered rate with zero misses; offering well above the
analytic maximum must visibly saturate.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Literal, Mapping

from ..core.mapping import Allocation
from ..errors import ModelError
from ..telemetry import get_registry
from .events import EventQueue
from .flows import CapacityConstraint, FlowNetwork, FlowSpec, max_min_rates

__all__ = [
    "FLOW_KERNELS",
    "InjectedFlow",
    "SteadyStateSimulator",
    "SimulationResult",
    "flow_kernel",
]

_EPS = 1e-9
#: Residual volume (MB) below which an in-flight refresh counts as
#: complete when its deadline arrives (floating-point tie grace).
_DEADLINE_GRACE_MB = 1e-6

FLOW_KERNELS = ("warm", "naive")

#: Process-wide default kernel; see :func:`flow_kernel`.
_default_kernel: str = "warm"

# Run-level telemetry: a handful of counter bumps per *simulation*, not
# per event, so the hot loop stays untouched (the <2% overhead budget
# asserted by benchmarks/bench_simulator.py).
_REG = get_registry()
_M_SIM_RUNS = _REG.counter(
    "repro_sim_runs_total", "Completed simulation runs", ("kernel",)
)
_M_SIM_EVENTS = _REG.counter(
    "repro_sim_events_total", "Discrete events processed by the simulator"
)
_M_SIM_WARM_HITS = _REG.counter(
    "repro_sim_warm_hits_total",
    "Warm-cache refill hits (warm kernel)",
)
_M_SIM_WARM_FALLBACKS = _REG.counter(
    "repro_sim_warm_fallbacks_total",
    "Warm-cache misses that fell back to a cold fill (warm kernel)",
)


@contextmanager
def flow_kernel(kernel: str) -> Iterator[None]:
    """Temporarily change the default flow kernel for simulators built
    inside the ``with`` block (oracle cross-checks, benchmarks)::

        with flow_kernel("naive"):
            result = simulate_allocation(alloc)
    """
    global _default_kernel
    if kernel not in FLOW_KERNELS:
        raise ModelError(f"unknown flow kernel {kernel!r}")
    previous = _default_kernel
    _default_kernel = kernel
    try:
        yield
    finally:
        _default_kernel = previous


@dataclass(frozen=True)
class InjectedFlow:
    """One exogenous transfer injected into the run at ``t = 0``.

    The reconfiguration transition simulator
    (:func:`repro.dynamic.transition.simulate_transition`) uses these
    to model drain + state-transfer traffic: the flows share NICs and
    links with the steady workload under the configured flow policy,
    so the run's completion gaps expose the mid-transition throughput
    dip.  ``constraints`` may name capacities the allocation itself
    does not use (e.g. the NIC of a decommissioned machine) — declare
    them via the simulator's ``extra_constraints``.
    """

    key: object
    volume_mb: float
    constraints: tuple[object, ...]
    #: Optional rate cap, honoured (like every flow cap) only under the
    #: ``reserved`` flow policy; ``None`` shares bandwidth elastically.
    cap: float | None = None


@dataclass(slots=True)
class _Flow:
    volume_left: float
    constraints: tuple[object, ...]
    cap: float | None
    kind: Literal["edge", "download", "injected"]
    payload: tuple
    volume_total: float = 0.0
    rate: float = 0.0
    #: Volume moved since the flow started, flushed to the per-constraint
    #: transfer totals when the flow ends (or at the end of the run).
    moved: float = 0.0


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of one steady-state run."""

    offered_rate: float
    achieved_rate: float
    n_root_results: int
    root_completions: tuple[float, ...]
    download_misses: int
    n_events: int
    sim_time: float
    #: True when the run hit its horizon before producing the requested
    #: results — the offered rate exceeded what the platform sustains.
    saturated: bool
    #: CPU busy fraction per processor uid over the run.
    cpu_utilization: Mapping[int, float] = field(default_factory=dict)
    #: Transferred volume / (capacity × time) per NIC/link constraint id.
    nic_utilization: Mapping[object, float] = field(default_factory=dict)
    #: End-to-end latency (source release → root completion) per result.
    latencies: tuple[float, ...] = ()
    #: Completion time of each injected flow that finished in-run.
    injected_finish: Mapping[object, float] = field(default_factory=dict)
    #: Provenance: which flow kernel produced this result.  Excluded
    #: from equality so cross-kernel ``a == b`` bit-identity checks
    #: compare only the physics.
    kernel: str = field(default="", compare=False)
    #: Warm-start outcomes (``warm`` kernel only; 0 for ``naive``):
    #: refills served from a previously converged component structure
    #: vs. cold fills.  Excluded from equality like ``kernel``.
    warm_hits: int = field(default=0, compare=False)
    warm_fallbacks: int = field(default=0, compare=False)

    @property
    def efficiency(self) -> float:
        """achieved / offered (≈1.0 for feasible operation)."""
        if self.offered_rate <= 0:
            return 0.0
        return self.achieved_rate / self.offered_rate

    @property
    def mean_latency(self) -> float:
        if not self.latencies:
            return float("nan")
        return sum(self.latencies) / len(self.latencies)

    @property
    def max_latency(self) -> float:
        return max(self.latencies) if self.latencies else float("nan")


class SteadyStateSimulator:
    """Simulate one :class:`~repro.core.mapping.Allocation`."""

    def __init__(
        self,
        allocation: Allocation,
        *,
        offered_rate: float | None = None,
        n_results: int = 50,
        flow_policy: Literal["reserved", "elastic"] = "reserved",
        time_limit: float | None = None,
        max_events: int = 2_000_000,
        kernel: str | None = None,
        warmup_results: int = 0,
        inject: "tuple[InjectedFlow, ...]" = (),
        extra_constraints: Mapping[object, float] | None = None,
    ) -> None:
        self.alloc = allocation
        self.inst = allocation.instance
        self.tree = self.inst.tree
        self.rho = (
            self.inst.rho if offered_rate is None else float(offered_rate)
        )
        if self.rho <= 0:
            raise ModelError("offered rate must be positive")
        if n_results <= 0:
            raise ModelError("n_results must be positive")
        self.n_results = n_results
        if warmup_results < 0:
            raise ModelError("warmup_results must be >= 0")
        #: Minimum completions excluded from the achieved-rate window
        #: (0 keeps the historical drop-first-third behaviour exactly).
        self.warmup_results = warmup_results
        self.flow_policy = flow_policy
        self.kernel = _default_kernel if kernel is None else kernel
        if self.kernel not in FLOW_KERNELS:
            raise ModelError(f"unknown flow kernel {self.kernel!r}")
        # default horizon: generous multiple of the ideal makespan
        self.time_limit = (
            time_limit
            if time_limit is not None
            else 20.0 * (n_results + 5) / self.rho
        )
        self.max_events = max_events

        self.procs = allocation.processor_map
        self.speed = {u: p.speed_ops for u, p in self.procs.items()}

        # ---- static flow constraint table -----------------------------
        self.constraints: dict[object, CapacityConstraint] = {}
        self.net = FlowNetwork()
        #: False for the from-scratch ``naive`` oracle, which keeps the
        #: network only as its constraint table.
        self._use_net = self.kernel != "naive"
        for u, p in self.procs.items():
            self._add_constraint(("nic", "P", u), p.nic_mbps)
        for l in self.inst.farm.uids:
            self._add_constraint(("nic", "S", l), self.inst.farm[l].nic_mbps)
        for cid, capacity in (extra_constraints or {}).items():
            if cid not in self.constraints:
                self._add_constraint(cid, capacity)
        self.inject = tuple(inject)
        seen_keys = {f.key for f in self.inject}
        if len(seen_keys) != len(self.inject):
            raise ModelError("injected flow keys must be unique")

        # ---- dynamic state ---------------------------------------------
        self.queue = EventQueue()
        self.flows: dict[object, _Flow] = {}
        self.ready: dict[int, deque] = {u: deque() for u in self.procs}
        self.busy: dict[int, bool] = {u: False for u in self.procs}
        self.computed: dict[int, int] = {
            i: 0 for i in self.tree.operator_indices
        }
        self.released: dict[int, int] = {}
        self.arrivals: dict[int, dict[int, int]] = {
            i: {} for i in self.tree.operator_indices
        }
        #: Highest result index queued for computation per operator:
        #: stream order queues results 1, 2, … contiguously.
        self.queued: dict[int, int] = {
            i: 0 for i in self.tree.operator_indices
        }
        self.root_completions: list[float] = []
        self.download_misses = 0
        self.n_events = 0
        self.cpu_busy: dict[int, float] = {u: 0.0 for u in self.procs}
        self.transferred: dict[object, float] = {}
        self.injected_finish: dict[object, float] = {}
        self._injected_left: set[object] = set()

        self.source_ops = tuple(
            i for i in self.tree.operator_indices if not self.tree.children(i)
        )

        # ---- hot-loop lookup tables ------------------------------------
        # The event handlers fire hundreds of thousands of times per
        # run; these flatten the per-event attribute/method chains into
        # dict lookups.  All values are computed once from the same
        # operands the inline expressions used, so nothing observable
        # changes (the per-op compute duration in particular is the
        # identical IEEE division, done once instead of per event).
        self._parent_of = {
            i: self.tree.parent(i) for i in self.tree.operator_indices
        }
        self._n_children = {
            i: len(self.tree.children(i))
            for i in self.tree.operator_indices
        }
        self._op_uid = {
            i: self.alloc.a(i) for i in self.tree.operator_indices
        }
        self._op_duration = {
            i: (
                self.tree[i].work / self.speed[self._op_uid[i]]
                if self.tree[i].work else 0.0
            )
            for i in self.tree.operator_indices
        }

    # ------------------------------------------------------------------
    # wiring helpers
    # ------------------------------------------------------------------
    def _add_constraint(self, cid: object, capacity: float) -> None:
        self.constraints[cid] = CapacityConstraint(cid, capacity)
        self.net.add_constraint(cid, capacity)

    def _edge_constraints(self, u: int, v: int) -> tuple[object, ...]:
        key = ("plink", min(u, v), max(u, v))
        if key not in self.constraints:
            self._add_constraint(
                key, self.inst.network.processor_link(u, v)
            )
        return (("nic", "P", u), ("nic", "P", v), key)

    def _download_constraints(self, l: int, u: int) -> tuple[object, ...]:
        key = ("slink", l, u)
        if key not in self.constraints:
            self._add_constraint(key, self.inst.network.server_link(l, u))
        return (("nic", "S", l), ("nic", "P", u), key)

    # ------------------------------------------------------------------
    # fluid network
    # ------------------------------------------------------------------
    def _settle(self) -> None:
        """Advance all flow volumes to the current instant."""
        now = self.queue.now
        dt = now - self._last_settle
        if dt > 0:
            for f in self.flows.values():
                if f.rate > 0 and f.volume_left > 0:
                    moved = min(f.volume_left, f.rate * dt)
                    f.volume_left -= moved
                    f.moved += moved
        self._last_settle = now

    def _flush_transferred(self, f: _Flow) -> None:
        if f.moved:
            for cid in f.constraints:
                self.transferred[cid] = (
                    self.transferred.get(cid, 0.0) + f.moved
                )
            f.moved = 0.0

    def _naive_recompute(self) -> dict[object, float]:
        """Reference kernel: rebuild the flow table and recompute max-min
        rates from scratch; only the rates that differ from the current
        ones are reported (so both kernels schedule the same events)."""
        specs = [
            FlowSpec(key, f.constraints, f.cap)
            for key, f in self.flows.items()
        ]
        used = {cid for f in self.flows.values() for cid in f.constraints}
        rates = max_min_rates(
            specs, [self.constraints[cid] for cid in used]
        )
        return {
            key: rate
            for key, rate in rates.items()
            if rate != self.flows[key].rate
        }

    def _apply_rate_changes(self, changed: Mapping[object, float]) -> None:
        """Adopt new rates and (re)schedule completions for exactly the
        flows whose rate moved; everyone else's scheduled event stands."""
        now = self.queue.now
        push = self.queue.push
        on_finished = self._on_transfer_finished
        for key in changed if len(changed) == 1 else sorted(changed):
            f = self.flows[key]
            f.rate = changed[key]
            if f.volume_left <= _EPS:
                push(now, on_finished, key, key=key)
            elif f.rate > _EPS:
                push(now + f.volume_left / f.rate, on_finished, key, key=key)
            else:
                # stalled: no completion until a reallocation revives it
                self.queue.cancel(key)

    def _start_flow(
        self,
        key: object,
        volume: float,
        constraints: tuple[object, ...],
        cap: float | None,
        kind: Literal["edge", "download"],
        payload: tuple,
    ) -> None:
        self._settle()
        self.flows[key] = _Flow(
            volume_left=volume,
            constraints=constraints,
            cap=cap if self.flow_policy == "reserved" else None,
            kind=kind,
            payload=payload,
            volume_total=volume,
        )
        f = self.flows[key]
        if self._use_net:
            changed = self.net.add_flow(key, constraints, f.cap)
        else:
            changed = self._naive_recompute()
        self._apply_rate_changes(changed)
        if key not in changed and f.volume_left <= _EPS:
            # zero-volume transfer at rate 0 (e.g. a δ=0 glue edge):
            # complete immediately, there is nothing to drain.
            self.queue.push(
                self.queue.now, self._on_transfer_finished, key, key=key
            )

    def _finish_flow(self, key: object) -> _Flow:
        self._settle()
        flow = self.flows.pop(key)
        self._flush_transferred(flow)
        self.queue.cancel(key)
        if self._use_net:
            changed = self.net.remove_flow(key)
        else:
            changed = self._naive_recompute()
        self._apply_rate_changes(changed)
        return flow

    def _start_injected(self) -> None:
        """Launch every injected transfer at ``t = 0`` as one batch:
        all flows register first, then the affected components refill
        once (``FlowNetwork.add_flows``) — the reallocation step's flow
        churn costs a single filling pass instead of one per flow.
        The naive kernel mirrors this with one from-scratch
        recompute."""
        if not self.inject:
            return
        self._settle()
        batch = []
        for spec in self.inject:
            cap = spec.cap if self.flow_policy == "reserved" else None
            self.flows[spec.key] = _Flow(
                volume_left=spec.volume_mb,
                constraints=spec.constraints,
                cap=cap,
                kind="injected",
                payload=(),
                volume_total=spec.volume_mb,
            )
            self._injected_left.add(spec.key)
            batch.append((spec.key, spec.constraints, cap))
        if self._use_net:
            changed = self.net.add_flows(batch)
        else:
            changed = self._naive_recompute()
        self._apply_rate_changes(changed)
        for spec in self.inject:
            flow = self.flows[spec.key]
            if spec.key not in changed and flow.volume_left <= _EPS:
                self.queue.push(
                    self.queue.now, self._on_transfer_finished, spec.key,
                    key=spec.key,
                )

    # ------------------------------------------------------------------
    # CPU / pipeline
    # ------------------------------------------------------------------
    def _maybe_enqueue(self, op: int, t: int) -> None:
        """Queue (op, t) for computation when its inputs are complete and
        its predecessor result is done (stream order)."""
        if self.queued[op] >= t or self.computed[op] != t - 1:
            return
        n_children = self._n_children[op]
        if n_children:
            if self.arrivals[op].get(t, 0) < n_children:
                return
        else:
            if self.released.get(op, 0) < t:
                return
        self.queued[op] = t
        u = self._op_uid[op]
        self.ready[u].append((op, t))
        self._maybe_start_cpu(u)

    def _maybe_start_cpu(self, u: int) -> None:
        if self.busy[u] or not self.ready[u]:
            return
        op, t = self.ready[u].popleft()
        self.busy[u] = True
        duration = self._op_duration[op]
        self.cpu_busy[u] += duration
        self.queue.push(
            self.queue.now + duration, self._on_compute_finished, u, op, t
        )

    def _deliver(self, op: int, t: int) -> None:
        """Result ``t`` of ``op`` reached its parent (or the outside)."""
        parent = self._parent_of[op]
        if parent is None:
            self.root_completions.append(self.queue.now)
            return
        self.arrivals[parent][t] = self.arrivals[parent].get(t, 0) + 1
        self._maybe_enqueue(parent, t)

    # ------------------------------------------------------------------
    # event handlers
    # ------------------------------------------------------------------
    def _on_source_release(self, op: int, t: int) -> None:
        """Source ``op`` may begin computing result ``t`` (open-loop
        arrival at the offered rate)."""
        self.released[op] = t
        self._maybe_enqueue(op, t)

    def _on_compute_finished(self, uid: int, op: int, t: int) -> None:
        """Processor ``uid`` finished computing result ``t`` of ``op``."""
        self.computed[op] = t
        self.busy[uid] = False
        self._maybe_start_cpu(uid)
        # output travels to the parent
        parent = self._parent_of[op]
        if parent is not None and self._op_uid[parent] != uid:
            v = self._op_uid[parent]
            self._start_flow(
                key=("edge", op, t),
                volume=self.tree[op].output_mb,
                constraints=self._edge_constraints(uid, v),
                cap=self.rho * self.tree[op].output_mb,
                kind="edge",
                payload=(op, t),
            )
        else:
            self._deliver(op, t)
        # the next result of this operator may already be waiting
        self._maybe_enqueue(op, t + 1)

    def _on_transfer_finished(self, key: object) -> None:
        """The fluid flow under ``key`` drained.  Its completion is
        scheduled under the flow key, so a reallocation that changes
        the flow's rate supersedes the stale completion in the queue
        itself."""
        flow = self.flows.get(key)
        if flow is None:
            return  # defensive: the flow was already closed
        self._settle()
        if flow.volume_left > _EPS:
            # float drift left a residual at the scheduled completion
            # instant: drain the remainder (superseding this event's key)
            if flow.rate > _EPS:
                eta = self.queue.now + flow.volume_left / flow.rate
                self.queue.push(eta, self._on_transfer_finished, key, key=key)
            return
        flow = self._finish_flow(key)
        if flow.kind == "edge":
            op, t = flow.payload
            self._deliver(op, t)
        elif flow.kind == "injected":
            self.injected_finish[key] = self.queue.now
            self._injected_left.discard(key)
        # download completions need no action: freshness bookkeeping is
        # done at launch time.

    def _on_download_launch(self, uid: int, k: int, period: int) -> None:
        """Periodic basic-object refresh: start download number
        ``period`` of object ``k`` to processor ``uid``."""
        key = ("dl", uid, k)
        obj = self.tree.catalog[k]
        if key in self.flows:
            # A refresh at exactly its reserved rate finishes exactly at
            # the deadline; settle and absorb the floating-point tie.
            self._settle()
            flow = self.flows.get(key)
            if flow is not None and flow.volume_left <= _DEADLINE_GRACE_MB:
                self._finish_flow(key)
        if key in self.flows:
            # previous refresh genuinely still in flight: deadline miss;
            # skip this period (the stale copy stays in use).
            self.download_misses += 1
        else:
            l = self.alloc.downloads[(uid, k)]
            self._start_flow(
                key=key,
                volume=obj.size_mb,
                constraints=self._download_constraints(l, uid),
                cap=obj.rate_mbps,
                kind="download",
                payload=(uid, k, period),
            )
        # chain the next period
        nxt = period + 1
        self.queue.push(
            nxt / obj.frequency_hz, self._on_download_launch, uid, k, nxt
        )

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        self._last_settle = 0.0
        # periodic source releases (open loop at the offered rate)
        queue = self.queue
        for op in self.source_ops:
            for t in range(1, self.n_results + 1):
                queue.push((t - 1) / self.rho, self._on_source_release, op, t)
        # periodic downloads
        for (u, k) in self.alloc.downloads:
            queue.push(0.0, self._on_download_launch, u, k, 0)
        # exogenous drain / state-transfer flows, batched at t = 0
        self._start_injected()

        pop = queue.pop
        time_limit = self.time_limit
        max_events = self.max_events
        n_results = self.n_results
        injected_left = self._injected_left
        root_completions = self.root_completions
        n_events = 0
        saturated = False
        # a run with injected transfers keeps going until they all
        # drain (or the horizon trips), so the transition simulator
        # always observes the full drain time
        while len(root_completions) < n_results or injected_left:
            if n_events >= max_events:
                # the event budget is spent: a pending event saturates
                # the run, and a due one counts as the event that
                # tripped the budget
                when = queue.peek_time()
                if when is not None:
                    saturated = True
                    if when <= time_limit:
                        n_events += 1
                break
            entry = pop(time_limit)
            if entry is None:
                # drained, or the next live event is past the horizon
                saturated = bool(queue)
                break
            n_events += 1
            entry[3](*entry[4])
        self.n_events = n_events
        # the leftover entries hold bound handlers: drop them, or the
        # simulator stays alive in a cycle through its own queue
        queue.clear()

        for f in self.flows.values():  # account still-active transfers
            self._flush_transferred(f)

        comps = tuple(self.root_completions)
        achieved = 0.0
        if len(comps) >= 2:
            # steady-state window: drop the first third (pipeline fill);
            # a warm-up floor widens the skip when the fill transient is
            # known to outlast a third of the run (deep pipelines under
            # short validation windows), clamped so at least the last
            # two completions always remain measurable
            start = len(comps) // 3
            if self.warmup_results:
                start = min(
                    max(start, self.warmup_results), len(comps) - 2
                )
            span = comps[-1] - comps[start]
            if span > 0:
                achieved = (len(comps) - 1 - start) / span
            else:
                achieved = float("inf")
        horizon = self.queue.now
        cpu_util = {
            u: (self.cpu_busy[u] / horizon if horizon > 0 else 0.0)
            for u in self.procs
        }
        nic_util = {}
        if horizon > 0:
            for cid, vol in self.transferred.items():
                cap = self.constraints[cid].capacity
                if cap > 0:
                    nic_util[cid] = vol / (cap * horizon)
        latencies = tuple(
            comp - t / self.rho for t, comp in enumerate(comps)
        )
        _M_SIM_RUNS.labels(kernel=self.kernel).inc()
        if self.n_events:
            _M_SIM_EVENTS.inc(self.n_events)
        if self.net.warm_hits:
            _M_SIM_WARM_HITS.inc(self.net.warm_hits)
        if self.net.warm_fallbacks:
            _M_SIM_WARM_FALLBACKS.inc(self.net.warm_fallbacks)
        return SimulationResult(
            offered_rate=self.rho,
            achieved_rate=achieved,
            n_root_results=len(comps),
            root_completions=comps,
            download_misses=self.download_misses,
            n_events=self.n_events,
            sim_time=horizon,
            saturated=saturated or len(comps) < self.n_results,
            cpu_utilization=cpu_util,
            nic_utilization=nic_util,
            latencies=latencies,
            injected_finish=dict(self.injected_finish),
            kernel=self.kernel,
            warm_hits=self.net.warm_hits,
            warm_fallbacks=self.net.warm_fallbacks,
        )
