"""The metrics registry: instruments, labels, and the text renderer."""

import math

import pytest

from repro.telemetry.metrics import (
    DEFAULT_BUCKETS,
    REGISTRY,
    SUMMARY_WINDOW,
    Counter,
    MetricsRegistry,
    percentile,
    scrape,
    summarize,
)


@pytest.fixture()
def registry():
    """A private registry — tests must not disturb the process-global
    one that instrumented modules share."""
    return MetricsRegistry()


class TestCounter:
    def test_counts_up(self, registry):
        c = registry.counter("t_requests_total", "requests")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_rejects_negative(self, registry):
        c = registry.counter("t_neg_total")
        with pytest.raises(ValueError, match="only go up"):
            c.inc(-1)

    def test_labelled_children_are_independent(self, registry):
        c = registry.counter("t_outcomes_total", "", ("outcome",))
        c.labels(outcome="ok").inc(3)
        c.labels(outcome="err").inc()
        assert c.labels(outcome="ok").value == 3
        assert c.labels(outcome="err").value == 1

    def test_whole_counts_stay_ints(self, registry):
        """JSON views print counters verbatim: ``3``, never ``3.0``."""
        c = registry.counter("t_ints_total", "", ("k",))
        c.labels(k="a").inc()
        c.labels(k="a").inc(2)
        assert c.totals() == {("a",): 3}
        assert isinstance(c.labels(k="a").value, int)

    def test_reading_totals_creates_no_child(self, registry):
        c = registry.counter("t_lazy_total", "", ("k",))
        assert c.totals() == {} and c.children() == {}
        assert "t_lazy_total{" not in registry.render()

    def test_wrong_labels_rejected(self, registry):
        c = registry.counter("t_l_total", "", ("a",))
        with pytest.raises(ValueError, match="expects labels"):
            c.labels(b="x")
        with pytest.raises(ValueError, match="has labels"):
            c.inc()  # label-less use of a labelled family


class TestGauge:
    def test_set_inc_dec(self, registry):
        g = registry.gauge("t_depth")
        g.set(10)
        g.inc(2)
        g.dec(5)
        assert g.value == 7


class TestHistogram:
    def test_bucket_counts_are_cumulative_in_render(self, registry):
        h = registry.histogram("t_lat_seconds", "", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 0.6, 100.0):
            h.observe(v)
        text = registry.render()
        assert 't_lat_seconds_bucket{le="0.1"} 1' in text
        assert 't_lat_seconds_bucket{le="1"} 3' in text
        assert 't_lat_seconds_bucket{le="10"} 3' in text
        assert 't_lat_seconds_bucket{le="+Inf"} 4' in text
        assert "t_lat_seconds_count 4" in text
        assert h.sum == pytest.approx(101.15)

    def test_summary_matches_percentile(self, registry):
        h = registry.histogram("t_s_seconds")
        values = [float(i) for i in range(1, 101)]
        for v in values:
            h.observe(v)
        s = h.summary()
        assert s["count"] == 100
        assert s["p50"] == pytest.approx(percentile(values, 50.0))
        assert s["p99"] == pytest.approx(percentile(values, 99.0))
        assert s["max"] == 100.0

    def test_summary_none_when_empty(self, registry):
        h = registry.histogram("t_empty_seconds")
        assert h.summary() is None
        assert summarize([], 0) is None

    def test_window_keeps_the_newest_samples(self, registry):
        h = registry.histogram("t_window_seconds")
        for i in range(SUMMARY_WINDOW + 10):
            h.observe(float(i))
        child = h.children()[()]
        assert child.values[0] == 10.0 and len(child.values) == 4096
        summary = h.summary()
        assert summary["count"] == SUMMARY_WINDOW + 10
        assert summary["window"] == SUMMARY_WINDOW
        assert summary == summarize(child.values, child.count)

    def test_default_buckets_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


class TestRegistry:
    def test_idempotent_registration(self, registry):
        a = registry.counter("t_same_total", "first help")
        b = registry.counter("t_same_total", "second help ignored")
        assert a is b

    def test_kind_mismatch_raises(self, registry):
        registry.counter("t_kind_total")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("t_kind_total")

    def test_invalid_names_rejected(self, registry):
        for bad in ("", "9lead", "has-dash", "has space"):
            with pytest.raises(ValueError, match="invalid metric name"):
                registry.counter(bad)

    def test_collector_runs_at_render(self, registry):
        g = registry.gauge("t_lazy")

        def collect():
            g.set(42)

        registry.register_collector(collect)
        assert "t_lazy 42" in registry.render()
        registry.unregister_collector(collect)
        g.set(0)
        assert "t_lazy 0" in registry.render()

    def test_dead_collector_does_not_kill_render(self, registry):
        registry.counter("t_alive_total").inc()

        def broken():
            raise RuntimeError("scrape-time failure")

        registry.register_collector(broken)
        assert "t_alive_total 1" in registry.render()


class TestRenderFormat:
    def test_help_type_and_escaping(self, registry):
        c = registry.counter("t_esc_total", 'line1\nline2', ("tag",))
        c.labels(tag='va"l\\ue').inc()
        text = registry.render()
        assert "# HELP t_esc_total line1\\nline2" in text
        assert "# TYPE t_esc_total counter" in text
        assert 't_esc_total{tag="va\\"l\\\\ue"} 1' in text
        assert text.endswith("\n")

    def test_empty_registry_renders_nothing(self, registry):
        assert registry.render() == ""

    def test_scrape_is_process_families_then_own(self, registry):
        registry.counter("t_own_total").inc()
        assert scrape(registry) == REGISTRY.render() + registry.render()
        assert scrape(registry).endswith("t_own_total 1\n")

    def test_parseable_prometheus_lines(self, registry):
        """Every non-comment line is `name{labels} value` with a float
        value — the contract scripts/service_smoke.py asserts on the
        live endpoint."""
        h = registry.histogram("t_p_seconds", "latency", ("op",))
        h.labels(op="solve").observe(0.2)
        registry.gauge("t_p_depth").set(3)
        for line in registry.render().splitlines():
            if not line or line.startswith("#"):
                continue
            name_part, _, value_part = line.rpartition(" ")
            assert name_part
            float(value_part)  # must parse (+Inf handled by float())


class TestPercentile:
    def test_empty_series_contract(self):
        with pytest.raises(ValueError, match="empty series"):
            percentile([], 50.0)

    def test_bad_q_contract(self):
        with pytest.raises(ValueError, match="q must be in"):
            percentile([1.0], 101.0)

    def test_interpolation(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50.0) == 2.5
        assert percentile([5.0], 90.0) == 5.0
        assert not math.isnan(percentile([0.0, 0.0], 99.0))

    def test_extremes(self):
        values = [5.0, 1.0, 3.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 100.0) == 5.0

    def test_matches_numpy_linear(self):
        np = pytest.importorskip("numpy")
        values = [0.3, 1.2, 0.01, 7.5, 2.2, 2.2, 0.9]
        for q in (10, 50, 90, 99):
            assert percentile(values, q) == pytest.approx(
                float(np.percentile(values, q))
            )

    def test_service_reexport_is_same_object(self):
        """``repro.service.percentile`` is this function — one
        implementation, not a copy."""
        from repro.service import percentile as service_percentile

        assert service_percentile is percentile


def test_isinstance_counter_family(registry):
    assert isinstance(registry.counter("t_cls_total"), Counter)
