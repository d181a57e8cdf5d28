"""Metrics registries with Prometheus text exposition.

Three instrument kinds, modelled on the Prometheus client data model
but stdlib-only:

* :class:`Counter` — monotonically increasing totals (requests,
  cache hits, evictions);
* :class:`Gauge` — point-in-time levels (queue depth, in-flight,
  connected workers), optionally computed lazily at scrape time via
  :meth:`MetricsRegistry.register_collector`;
* :class:`Histogram` — fixed cumulative buckets plus a bounded sample
  window whose :meth:`~Histogram.summary` is :func:`summarize` over
  :func:`percentile` (this module is the single home of both).

Standing components (each ``AllocationService``, each
``Coordinator``) own a :class:`MetricsRegistry` and record every count
and latency into it exactly once; their JSON stats are read-only views
over it.  The process-wide :data:`REGISTRY` keeps only process-level
families (the simulator's ``repro_sim_*``), and :func:`scrape` renders
it in front of one component's own registry for ``GET /metrics``.
:meth:`MetricsRegistry.export` and :meth:`MetricsRegistry.fold` move
families between registries as JSON-able data (a router's fleet view).

All instruments support Prometheus-style labels: the object returned
by ``registry.counter(...)`` is the *family*; ``family.labels(x="y")``
returns the child actually incremented.  Label-less use increments the
default child directly.  ``registry.render()`` emits the Prometheus
text exposition format (``# HELP`` / ``# TYPE`` + samples) served at
``GET /metrics`` on the service front door and the coordinator stats
port.

Thread-safe throughout — one lock per registry guards family creation,
one lock per family guards its children — because samples arrive from
the asyncio event loop, executor pool threads, and the coordinator's
per-connection reader threads at once.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Callable, Iterable, Mapping

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "get_registry",
    "percentile",
    "scrape",
    "summarize",
]


def percentile(values: "list[float] | tuple[float, ...]", q: float) -> float:
    """Linear-interpolation percentile of ``values`` (``q`` in 0–100).

    Raises ``ValueError`` on an empty series — callers decide how to
    render "no data yet" (the snapshots simply omit the block).
    """
    if not values:
        raise ValueError("percentile of an empty series")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = (len(ordered) - 1) * (q / 100.0)
    lo = int(pos)
    frac = pos - lo
    if lo + 1 >= len(ordered):
        return ordered[-1]
    return ordered[lo] * (1.0 - frac) + ordered[lo + 1] * frac


def summarize(
    window: "list[float]", total: int, digits: int = 6
) -> "dict | None":
    """``{count, window, mean, p50, p90, p99, max}`` of a sample window
    (``total`` = the lifetime sample count it was drawn from), or
    ``None`` when the window is empty."""
    if not window:
        return None
    return {
        "count": total,
        "window": len(window),
        "mean": round(sum(window) / len(window), digits),
        "p50": round(percentile(window, 50.0), digits),
        "p90": round(percentile(window, 90.0), digits),
        "p99": round(percentile(window, 99.0), digits),
        "max": round(max(window), digits),
    }


#: Default histogram buckets (seconds) — spans the service's latency
#: range from sub-millisecond cache hits to multi-second ILP solves.
DEFAULT_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0
)

#: Samples a histogram retains for percentile summaries; a standing
#: service must not grow one float per request forever.
SUMMARY_WINDOW = 4096

_VALID_NAME = set(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:"
)


def _check_name(name: str) -> str:
    if not name or name[0].isdigit() or not set(name) <= _VALID_NAME:
        raise ValueError(f"invalid metric name: {name!r}")
    return name


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace("\n", "\\n").replace('"', '\\"')
    )


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def _label_str(labelnames: "tuple[str, ...]",
               labelvalues: "tuple[str, ...]",
               extra: "tuple[tuple[str, str], ...]" = ()) -> str:
    pairs = list(zip(labelnames, labelvalues)) + list(extra)
    if not pairs:
        return ""
    inner = ",".join(f'{k}="{_escape_label(str(v))}"' for k, v in pairs)
    return "{" + inner + "}"


class _Family:
    """Shared labels machinery: a family holds one child per distinct
    label-value tuple; the label-less child is created on first direct
    use of the family as an instrument."""

    kind = ""

    def __init__(self, name: str, help: str,
                 labelnames: "tuple[str, ...]" = ()) -> None:
        self.name = _check_name(name)
        self.help = help
        self.labelnames = tuple(labelnames)
        for label in self.labelnames:
            _check_name(label)
        self._children: dict = {}
        self._lock = threading.Lock()

    def labels(self, **labelvalues: str):
        if set(labelvalues) != set(self.labelnames):
            raise ValueError(
                f"{self.name} expects labels {self.labelnames}, "
                f"got {tuple(sorted(labelvalues))}"
            )
        key = tuple(str(labelvalues[k]) for k in self.labelnames)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = self._make_child()
            return child

    def _default(self):
        if self.labelnames:
            raise ValueError(
                f"{self.name} has labels {self.labelnames}; "
                "use .labels(...)"
            )
        with self._lock:
            child = self._children.get(())
            if child is None:
                child = self._children[()] = self._make_child()
            return child

    def _make_child(self):  # pragma: no cover - overridden
        raise NotImplementedError

    def children(self) -> dict:
        """``{label values: child}`` for every child created so far;
        reading never creates one."""
        with self._lock:
            return dict(self._children)

    def _export(self) -> dict:
        out = {
            "name": self.name, "kind": self.kind, "help": self.help,
            "labelnames": list(self.labelnames),
        }
        if isinstance(self, Histogram):
            out["buckets"] = list(self.buckets)
        out["children"] = [
            [list(key), child._export()]
            for key, child in self.children().items()
        ]
        return out

    def _samples(self) -> "list[tuple[str, float]]":
        """``(labelled-suffix, value)`` pairs for the renderer."""
        out: list = []
        with self._lock:
            items = sorted(self._children.items())
        for key, child in items:
            out.extend(child._render(self.name, self.labelnames, key))
        return out


class _ValueChild:
    """A counter's or a gauge's child: one number."""

    __slots__ = ("_value", "_lock")

    @property
    def value(self) -> float:
        return self._value

    def _export(self) -> float:
        return self._value

    def _load(self, value: float) -> None:
        self._value = value

    def _render(self, name, labelnames, key):
        return [(f"{name}{_label_str(labelnames, key)}", self._value)]


class _CounterChild(_ValueChild):
    __slots__ = ()

    def __init__(self) -> None:
        # whole-count increments keep the total an int
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        with self._lock:
            self._value += amount


class Counter(_Family):
    """Monotonically increasing total."""

    kind = "counter"

    def _make_child(self) -> _CounterChild:
        return _CounterChild()

    def inc(self, amount: float = 1) -> None:
        self._default().inc(amount)

    @property
    def value(self) -> float:
        return self._default().value

    def totals(self) -> "dict[tuple[str, ...], float]":
        """``{label values: total}`` of every child bumped so far."""
        return {
            key: child.value for key, child in self.children().items()
        }


class _GaugeChild(_ValueChild):
    __slots__ = ()

    def __init__(self) -> None:
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)


class Gauge(_Family):
    """Point-in-time level; can go up and down."""

    kind = "gauge"

    def _make_child(self) -> _GaugeChild:
        return _GaugeChild()

    def set(self, value: float) -> None:
        self._default().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._default().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._default().dec(amount)

    @property
    def value(self) -> float:
        return self._default().value


class _HistogramChild:
    __slots__ = ("_buckets", "_counts", "_sum", "_count",
                 "_window", "_lock")

    def __init__(self, buckets: "tuple[float, ...]") -> None:
        self._buckets = buckets
        self._counts = [0] * len(buckets)
        self._sum = 0.0
        self._count = 0
        self._window: deque = deque(maxlen=SUMMARY_WINDOW)
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._sum += value
            self._count += 1
            self._window.append(value)
            # per-bucket (non-cumulative) counts; the renderer
            # accumulates into the le= cumulative form
            for i, bound in enumerate(self._buckets):
                if value <= bound:
                    self._counts[i] += 1
                    break

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def values(self) -> "list[float]":
        """The retained window, oldest first."""
        with self._lock:
            return list(self._window)

    def summary(self, digits: int = 6) -> "dict | None":
        """:func:`summarize` of the retained window, or ``None`` if no
        observations yet."""
        with self._lock:
            window = list(self._window)
            total = self._count
        return summarize(window, total, digits)

    def _export(self) -> dict:
        with self._lock:
            return {
                "counts": list(self._counts), "sum": self._sum,
                "count": self._count, "window": list(self._window),
            }

    def _load(self, state: Mapping) -> None:
        counts = list(state["counts"])
        if len(counts) != len(self._buckets):
            raise ValueError(
                f"{len(counts)} bucket counts for"
                f" {len(self._buckets)} buckets"
            )
        with self._lock:
            self._counts = counts
            self._sum = state["sum"]
            self._count = state["count"]
            self._window.clear()
            self._window.extend(state["window"])

    def _render(self, name, labelnames, key):
        out = []
        cumulative = 0
        with self._lock:
            counts = list(self._counts)
            total, total_sum = self._count, self._sum
        for bound, n in zip(self._buckets, counts):
            cumulative += n
            suffix = _label_str(
                labelnames, key, (("le", _format_value(bound)),)
            )
            out.append((f"{name}_bucket{suffix}", cumulative))
        inf_suffix = _label_str(labelnames, key, (("le", "+Inf"),))
        out.append((f"{name}_bucket{inf_suffix}", total))
        plain = _label_str(labelnames, key)
        out.append((f"{name}_sum{plain}", total_sum))
        out.append((f"{name}_count{plain}", total))
        return out


class Histogram(_Family):
    """Fixed cumulative buckets + sum/count + a bounded sample window
    for :meth:`summary` percentiles."""

    kind = "histogram"

    def __init__(self, name: str, help: str,
                 labelnames: "tuple[str, ...]" = (),
                 buckets: "Iterable[float]" = DEFAULT_BUCKETS) -> None:
        super().__init__(name, help, labelnames)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket")
        self.buckets = bounds

    def _make_child(self) -> _HistogramChild:
        return _HistogramChild(self.buckets)

    def observe(self, value: float) -> None:
        self._default().observe(value)

    @property
    def count(self) -> int:
        return self._default().count

    @property
    def sum(self) -> float:
        return self._default().sum

    def summary(self, digits: int = 6) -> "dict | None":
        return self._default().summary(digits)


class MetricsRegistry:
    """Idempotent family registry + Prometheus text renderer.

    ``counter/gauge/histogram(name, ...)`` return the existing family
    when the name is already registered (so instrumented modules can be
    imported in any order), raising only if the existing family is a
    different kind.  Collectors registered via
    :meth:`register_collector` run at the top of every :meth:`render` —
    the hook standing components (broker, coordinator) use to refresh
    queue-depth/in-flight gauges lazily at scrape time.
    """

    def __init__(self) -> None:
        self._families: "dict[str, _Family]" = {}
        self._collectors: "list[Callable[[], None]]" = []
        self._lock = threading.Lock()

    def _get_or_make(self, cls, name: str, help: str,
                     labelnames: "tuple[str, ...]", **kwargs):
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if not isinstance(family, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{family.kind}, not {cls.kind}"
                    )
                return family
            family = cls(name, help, tuple(labelnames), **kwargs)
            self._families[name] = family
            return family

    def counter(self, name: str, help: str = "",
                labelnames: "Iterable[str]" = ()) -> Counter:
        return self._get_or_make(Counter, name, help, tuple(labelnames))

    def gauge(self, name: str, help: str = "",
              labelnames: "Iterable[str]" = ()) -> Gauge:
        return self._get_or_make(Gauge, name, help, tuple(labelnames))

    def histogram(self, name: str, help: str = "",
                  labelnames: "Iterable[str]" = (),
                  buckets: "Iterable[float]" = DEFAULT_BUCKETS
                  ) -> Histogram:
        return self._get_or_make(
            Histogram, name, help, tuple(labelnames), buckets=buckets
        )

    def get(self, name: str) -> "_Family | None":
        with self._lock:
            return self._families.get(name)

    def register_collector(self, fn: "Callable[[], None]") -> None:
        with self._lock:
            if fn not in self._collectors:
                self._collectors.append(fn)

    def unregister_collector(self, fn: "Callable[[], None]") -> None:
        with self._lock:
            if fn in self._collectors:
                self._collectors.remove(fn)

    def _collect(self) -> "list[tuple[str, _Family]]":
        """Run the collectors; the families, sorted by name."""
        with self._lock:
            collectors = list(self._collectors)
        for collect in collectors:
            try:
                collect()
            except Exception:  # a dead collector must not kill /metrics
                continue
        with self._lock:
            return sorted(self._families.items())

    def export(self) -> "list[dict]":
        """Run the collectors; every family as JSON-able data: ``name``,
        ``kind``, ``help``, ``labelnames``, a histogram's ``buckets``,
        and ``children`` as ``[label values, state]`` pairs (a number,
        or a histogram's bucket ``counts``, ``sum``, ``count`` and
        ``window``)."""
        return [family._export() for _, family in self._collect()]

    def fold(self, families: "Iterable[Mapping]", **leading: str) -> None:
        """Add :meth:`export`-ed ``families`` to this registry, the
        ``leading`` labels put in front of each family's own."""
        names = tuple(leading)
        values = tuple(str(value) for value in leading.values())
        for data in families:
            labelnames = names + tuple(data["labelnames"])
            family = self._get_or_make(
                _KINDS[data["kind"]], data["name"], data["help"],
                labelnames,
                **({"buckets": data["buckets"]} if "buckets" in data else {}),
            )
            for key, state in data["children"]:
                family.labels(
                    **dict(zip(labelnames, values + tuple(key)))
                )._load(state)

    def render(self) -> str:
        """The Prometheus text exposition format, ready to serve with
        ``Content-Type: text/plain; version=0.0.4`` (empty when no
        family is registered, so renders concatenate cleanly)."""
        return _render(self)


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


def _render(*registries: MetricsRegistry) -> str:
    """The exposition of ``registries`` in order, each sorted by family
    name; a family several of them hold is announced once, at its
    first appearance, with every registry's samples under it."""
    grouped: "dict[str, list[_Family]]" = {}
    for registry in registries:
        for name, family in registry._collect():
            grouped.setdefault(name, []).append(family)
    lines: list = []
    for name, families in grouped.items():
        if families[0].help:
            lines.append(f"# HELP {name} {_escape_help(families[0].help)}")
        lines.append(f"# TYPE {name} {families[0].kind}")
        for family in families:
            for sample_name, value in family._samples():
                lines.append(f"{sample_name} {_format_value(value)}")
    return "".join(line + "\n" for line in lines)


#: The process-wide registry: process-level families only.
REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    return REGISTRY


def scrape(registry: MetricsRegistry) -> str:
    """One component's ``GET /metrics`` body: the process-wide families
    followed by the component's own ``registry``.  A family in both (a
    router's fleet registry holds its shard processes' ``repro_sim_*``)
    is announced once."""
    return _render(REGISTRY, registry)
