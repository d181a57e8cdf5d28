"""Unified telemetry: tracing, metrics, and logging for the platform.

Three stdlib-only pillars (ISSUE 9):

* :mod:`repro.telemetry.trace` — ``span()`` context manager, the
  bounded :data:`TRACE_STORE`, trace-id generation/propagation, and
  the ``repro trace`` tree renderer;
* :mod:`repro.telemetry.metrics` — :class:`MetricsRegistry`
  (counters / gauges / histograms; one per standing component plus the
  process-wide :data:`REGISTRY`) with a Prometheus text renderer
  behind ``GET /metrics``, and the single home of :func:`percentile`
  and :func:`summarize`;
* :mod:`repro.telemetry.logs` — ``configure_logging`` behind
  ``repro --log-level`` / ``REPRO_LOG``.

The cardinal rule: telemetry observes, never participates.  All solver
and simulator outputs are bit-identical with tracing on or off
(asserted in ``bench_simulator``), trace ids come from OS entropy
rather than the seeded RNG, and disabling everything reduces the hooks
to attribute checks.
"""

from repro.telemetry.logs import configure_logging, get_logger
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    REGISTRY,
    get_registry,
    percentile,
    scrape,
    summarize,
)
from repro.telemetry.trace import (
    Span,
    TRACE_STORE,
    TraceStore,
    current_span,
    enabled,
    new_trace_id,
    record_span,
    render_trace,
    set_enabled,
    set_slow_span_threshold,
    span,
    span_from_dict,
    span_to_dict,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "Span",
    "TRACE_STORE",
    "TraceStore",
    "configure_logging",
    "current_span",
    "enabled",
    "get_logger",
    "get_registry",
    "new_trace_id",
    "percentile",
    "record_span",
    "render_trace",
    "scrape",
    "set_enabled",
    "set_slow_span_threshold",
    "span",
    "span_from_dict",
    "span_to_dict",
    "summarize",
]
