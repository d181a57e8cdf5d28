"""Traced-run instrumentation: spans around calls into each layer.

The program is not modified.  :func:`instrumented` swaps a few public
entry points for timing wrappers while a traced pass runs and restores
them afterwards:

* ``repro.api.registry.make`` — every placement, server-selection,
  refinement and replay-policy object the program builds comes from
  here, so the objects it returns are wrapped:
  ``core.placement`` (``place``), ``core.server_selection``
  (``select``), ``core.refine`` (the refiner call), ``dynamic.policy``
  (``initial``/``react``) and ``dynamic.settle`` (``settle``);
* ``InstanceSpec.build`` → ``core.instance_build``;
* the pipeline's ``downgrade_processors``, ``verify`` and
  ``max_throughput`` → ``core.downgrade``, ``core.verify``,
  ``core.throughput``;
* the replay engine's ``reconcile_plan`` and ``simulate_transition`` and
  ``repro.simulator.simulate_allocation`` → ``dynamic.reconcile``,
  ``simulator.transition``, ``simulator.steady``;
* ``SteadyStateSimulator.run`` adds its result's event count, warm-start
  counts and flow kernel to the enclosing simulator span.

Spans are kept in memory (:class:`SpanLog`), written to a JSON file when
the run ends, and :func:`layer_totals` computes each layer's self time
from that file: a span's duration minus the part of it its child spans
cover.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict


class SpanLog:
    """In-memory span store of one benchmark run.

    :meth:`span` nests through a stack and is for the single-threaded
    in-process workloads; :meth:`add` records an interval measured
    elsewhere (client threads, spans fetched from the service)."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def new_id(self) -> str:
        return f"b{next(self._ids)}"

    def add(self, name: str, trace_id: str, start: float, end: float, *,
            span_id: "str | None" = None, parent_id: "str | None" = None,
            **attributes) -> dict:
        record = {
            "name": name, "trace_id": trace_id,
            "span_id": span_id or self.new_id(), "parent_id": parent_id,
            "start": start, "end": end, "attributes": attributes,
        }
        with self._lock:
            self.spans.append(record)
        return record

    @contextlib.contextmanager
    def span(self, name: str, trace_id: "str | None" = None, **attributes):
        parent = self._stack[-1] if self._stack else None
        record = {
            "name": name,
            "trace_id": trace_id or (parent["trace_id"] if parent else name),
            "span_id": self.new_id(),
            "parent_id": parent["span_id"] if parent else None,
            "start": time.time(), "end": None, "attributes": attributes,
        }
        self._stack.append(record)
        t0 = time.perf_counter()
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = record["start"] + (time.perf_counter() - t0)
            with self._lock:
                self.spans.append(record)

    def annotate(self, **counts) -> None:
        """Add counts to the innermost open span's attributes."""
        if not self._stack:
            return
        attributes = self._stack[-1]["attributes"]
        for key, value in counts.items():
            if isinstance(value, str):
                attributes.setdefault(key, [])
                if value not in attributes[key]:
                    attributes[key].append(value)
            else:
                attributes[key] = attributes.get(key, 0) + value

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return timed

    def write(self, path, **header) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**header, "spans": self.spans}))


class _Timed:
    """Delegating proxy whose listed methods are timed."""

    def __init__(self, target, methods: dict, log: SpanLog) -> None:
        self._target = target
        self._timed = {
            method: log.wrap(span_name, getattr(target, method))
            for method, span_name in methods.items()
        }

    def __getattr__(self, attr):
        timed = self.__dict__["_timed"]
        if attr in timed:
            return timed[attr]
        return getattr(self.__dict__["_target"], attr)


#: What :func:`instrumented` times on the objects ``registry.make``
#: returns, per registry namespace.
_MADE_METHODS = {
    "placement": {"place": "core.placement"},
    "server": {"select": "core.server_selection"},
    "policy": {"initial": "dynamic.policy", "react": "dynamic.policy",
               "settle": "dynamic.settle"},
}


@contextlib.contextmanager
def instrumented(log: SpanLog):
    """Time the program's layer entry points into ``log`` for the
    duration of the block (see the module docstring)."""
    from repro.api import registry
    from repro.api.requests import InstanceSpec
    from repro.core import pipeline
    import repro.simulator as simulator
    from repro.simulator.engine import SteadyStateSimulator

    # ``repro.dynamic.replay`` the attribute is the deprecated function;
    # the engine module is only reachable through sys.modules
    replay_module = sys.modules["repro.dynamic.replay"]
    original_make = registry.make
    original_run = SteadyStateSimulator.run

    def make(namespace, name, **kwargs):
        made = original_make(namespace, name, **kwargs)
        if namespace == "refine":
            return log.wrap("core.refine", made)
        if namespace in _MADE_METHODS:
            return _Timed(made, _MADE_METHODS[namespace], log)
        return made

    def run(self):
        result = original_run(self)
        log.annotate(
            n_events=result.n_events, warm_hits=result.warm_hits,
            warm_fallbacks=result.warm_fallbacks, kernel=result.kernel,
        )
        return result

    patches = [
        (registry, "make", make),
        (SteadyStateSimulator, "run", run),
        (InstanceSpec, "build",
         log.wrap("core.instance_build", InstanceSpec.build)),
        (pipeline, "downgrade_processors",
         log.wrap("core.downgrade", pipeline.downgrade_processors)),
        (pipeline, "verify", log.wrap("core.verify", pipeline.verify)),
        (pipeline, "max_throughput",
         log.wrap("core.throughput", pipeline.max_throughput)),
        (replay_module, "reconcile_plan",
         log.wrap("dynamic.reconcile", replay_module.reconcile_plan)),
        (replay_module, "simulate_transition",
         log.wrap("simulator.transition", replay_module.simulate_transition)),
        (simulator, "simulate_allocation",
         log.wrap("simulator.steady", simulator.simulate_allocation)),
    ]
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    try:
        for owner, attr, replacement in patches:
            setattr(owner, attr, replacement)
        yield log
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


# ----------------------------------------------------------------------
# self time from the spans file
# ----------------------------------------------------------------------

def load_spans(path) -> list[dict]:
    return json.loads(path.read_text())["spans"]


def self_times(spans: list[dict]) -> dict:
    """span_id → duration minus the union of its children's intervals
    (clipped to the span)."""
    by_id = {s["span_id"]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s.get("parent_id") in by_id:
            children[s["parent_id"]].append(s["span_id"])
    out = {}
    for s in spans:
        lo, hi = s["start"], s["end"]
        covered = 0.0
        reach = lo
        intervals = sorted(
            (max(lo, by_id[c]["start"]), min(hi, by_id[c]["end"]))
            for c in children.get(s["span_id"], ())
        )
        for start, end in intervals:
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        out[s["span_id"]] = max(0.0, (hi - lo) - covered)
    return out


def layer_totals(spans: list[dict]) -> dict:
    """name → {"self_s", "calls", <summed numeric attributes>,
    "kernel": [...]} over every span of that name."""
    selfs = self_times(spans)
    totals: dict = defaultdict(lambda: {"self_s": 0.0, "calls": 0})
    for s in spans:
        entry = totals[s["name"]]
        entry["self_s"] += selfs[s["span_id"]]
        entry["calls"] += 1
        for key, value in (s.get("attributes") or {}).items():
            if isinstance(value, list):
                entry.setdefault(key, [])
                entry[key] += [v for v in value if v not in entry[key]]
            elif isinstance(value, (int, float)) and not isinstance(
                value, bool
            ):
                entry[key] = entry.get(key, 0) + value
    return dict(totals)
