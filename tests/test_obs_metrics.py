"""Tests of the metrics registry and resource helpers (repro.obs.metrics)
and the trace summariser (repro.obs.summarize)."""

from __future__ import annotations

import builtins
import io
import json
import threading

import pytest

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    PERCENTILE_WINDOW,
    MetricsRegistry,
    iter_samples,
    parse_exposition,
)
from repro.obs.summarize import (
    format_summary,
    load_ndjson,
    summarize_events,
)


@pytest.fixture()
def registry():
    return MetricsRegistry()


class TestCounter:
    def test_inc_accumulates(self, registry):
        counter = registry.counter("c_total", "help")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_negative_inc_rejected(self, registry):
        counter = registry.counter("c_total")
        with pytest.raises(ValueError, match="only go up"):
            counter.inc(-1)


class TestGauge:
    def test_set_inc_dec(self, registry):
        gauge = registry.gauge("g")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(2)
        assert gauge.value == 13.0

    def test_callback_computed_at_read(self, registry):
        state = {"n": 1}
        gauge = registry.gauge("g_cb", callback=lambda: state["n"])
        assert gauge.value == 1.0
        state["n"] = 7
        assert gauge.value == 7.0


class TestHistogram:
    def test_observe_fills_buckets_and_sum(self, registry):
        hist = registry.histogram("h_seconds", buckets=(0.1, 1.0)).labels()
        for value in (0.05, 0.5, 5.0):
            hist.observe(value)
        assert hist.count == 3
        assert hist.sum == pytest.approx(5.55)
        assert hist.cumulative_buckets() == [(0.1, 1), (1.0, 2), (float("inf"), 3)]

    def test_exact_percentiles_over_recent_window(self, registry):
        hist = registry.histogram("h").labels()
        for value in range(1, 101):
            hist.observe(float(value))
        # Nearest-rank (round-half-even): rank 50 of the sorted 100.
        assert hist.percentile(0.5) == 51.0
        assert hist.percentile(0.99) == 99.0
        assert hist.mean_recent() == pytest.approx(50.5)
        assert hist.recent_count() == 100

    def test_window_is_bounded(self, registry):
        hist = registry.histogram("h_bounded", buckets=(1.0,)).labels()
        for _ in range(PERCENTILE_WINDOW + 10):
            hist.observe(0.5)
        assert hist.recent_count() == PERCENTILE_WINDOW
        assert hist.count == PERCENTILE_WINDOW + 10

    def test_empty_percentile_is_zero(self, registry):
        hist = registry.histogram("h_empty").labels()
        assert hist.percentile(0.5) == 0.0
        assert hist.mean_recent() == 0.0

    def test_buckets_are_required(self):
        from repro.obs.metrics import Histogram

        with pytest.raises(ValueError, match="at least one bucket"):
            Histogram(threading.Lock(), ())

    def test_empty_buckets_fall_back_to_defaults(self, registry):
        hist = registry.histogram("h_default", buckets=()).labels()
        assert hist.bounds == DEFAULT_LATENCY_BUCKETS


class TestFamiliesAndRegistry:
    def test_labelled_children_are_lazy_and_cached(self, registry):
        family = registry.counter("req_total", labelnames=("endpoint",))
        a = family.labels(endpoint="route")
        a.inc()
        assert family.labels(endpoint="route") is a
        assert family.labels(endpoint="eco").value == 0.0

    def test_wrong_labels_rejected(self, registry):
        family = registry.counter("req_total", labelnames=("endpoint",))
        with pytest.raises(ValueError, match="takes labels"):
            family.labels(verb="GET")

    def test_labelled_family_refuses_bare_use(self, registry):
        family = registry.counter("req_total", labelnames=("endpoint",))
        with pytest.raises(ValueError, match="use .labels"):
            family.inc()

    def test_registration_is_idempotent(self, registry):
        assert registry.counter("c") is registry.counter("c")

    def test_kind_conflict_rejected(self, registry):
        registry.counter("same_name")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("same_name")


class TestExposition:
    def test_render_and_parse_round_trip(self, registry):
        registry.counter("jobs_total", "Jobs processed").inc(3)
        registry.gauge("depth").set(2.5)
        hist = registry.histogram(
            "latency_seconds", "Request latency", labelnames=("endpoint",),
            buckets=(0.1, 1.0),
        )
        hist.labels(endpoint="route").observe(0.05)
        hist.labels(endpoint="route").observe(2.0)
        text = registry.render()
        assert "# HELP jobs_total Jobs processed" in text
        assert "# TYPE latency_seconds histogram" in text
        samples = parse_exposition(text)
        assert samples["jobs_total"][""] == 3.0
        assert samples["depth"][""] == 2.5
        buckets = samples["latency_seconds_bucket"]
        assert buckets['endpoint="route",le="0.1"'] == 1.0
        assert buckets['endpoint="route",le="+Inf"'] == 2.0
        assert samples["latency_seconds_count"]['endpoint="route"'] == 2.0
        assert samples["latency_seconds_sum"]['endpoint="route"'] == pytest.approx(2.05)

    def test_iter_samples_flattens(self, registry):
        registry.counter("a").inc()
        triples = list(iter_samples(registry.render()))
        assert ("a", "", 1.0) in triples

    def test_parse_rejects_malformed_lines(self):
        with pytest.raises(ValueError, match="malformed"):
            parse_exposition("just_a_name\n")
        with pytest.raises(ValueError):
            parse_exposition("metric not-a-number\n")

    def test_label_values_escaped(self, registry):
        family = registry.counter("esc_total", labelnames=("path",))
        family.labels(path='a"b\\c').inc()
        samples = parse_exposition(registry.render())
        assert samples["esc_total"]['path="a\\"b\\\\c"'] == 1.0

    def test_default_buckets_cover_request_latencies(self):
        assert DEFAULT_LATENCY_BUCKETS[0] <= 0.001
        assert DEFAULT_LATENCY_BUCKETS[-1] >= 60.0
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(DEFAULT_LATENCY_BUCKETS)


# ----------------------------------------------------------------------
# Trace summarisation
# ----------------------------------------------------------------------
def _event(name, span_id, parent_id, seconds):
    return {
        "name": name,
        "span_id": span_id,
        "parent_id": parent_id,
        "thread": 1,
        "start": 0.0,
        "seconds": seconds,
        "attrs": {},
    }


class TestSummarize:
    def test_self_versus_cumulative(self):
        events = [
            _event("child", 2, 1, 0.3),
            _event("child", 3, 1, 0.2),
            _event("root", 1, None, 1.0),
        ]
        rows = {row["name"]: row for row in summarize_events(events)}
        assert rows["root"]["cumulative_seconds"] == pytest.approx(1.0)
        # Self time excludes the children's 0.5s.
        assert rows["root"]["self_seconds"] == pytest.approx(0.5)
        assert rows["child"]["count"] == 2
        assert rows["child"]["self_seconds"] == pytest.approx(0.5)

    def test_rows_sorted_by_cumulative(self):
        events = [
            _event("small", 1, None, 0.1),
            _event("big", 2, None, 0.9),
        ]
        rows = summarize_events(events)
        assert [row["name"] for row in rows] == ["big", "small"]

    def test_percentiles_per_span_name(self):
        events = [
            _event("x", i, None, float(i)) for i in range(1, 101)
        ]
        (row,) = summarize_events(events)
        assert row["p50_seconds"] == pytest.approx(51.0)
        assert row["p99_seconds"] == pytest.approx(99.0)

    def test_format_summary_renders_a_table(self):
        events = [_event("stage", 1, None, 0.25)]
        text = format_summary(summarize_events(events))
        assert "stage" in text
        assert "cum (s)" in text
        assert "total self" in text

    def test_format_summary_empty(self):
        assert "empty trace" in format_summary([])

    def test_load_ndjson_from_path_and_file(self, tmp_path):
        events = [_event("x", 1, None, 0.1)]
        path = tmp_path / "t.ndjson"
        path.write_text(
            "\n".join(json.dumps(e) for e in events) + "\n\n", encoding="utf-8"
        )
        assert load_ndjson(str(path)) == events
        assert load_ndjson(io.StringIO(path.read_text())) == events

    def test_load_ndjson_rejects_missing_keys(self, tmp_path):
        path = tmp_path / "bad.ndjson"
        path.write_text('{"name": "x"}\n', encoding="utf-8")
        with pytest.raises(ValueError, match="line 1"):
            load_ndjson(str(path))

    def test_load_ndjson_rejects_non_objects(self, tmp_path):
        path = tmp_path / "bad.ndjson"
        path.write_text("[1, 2]\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_ndjson(str(path))


# ----------------------------------------------------------------------
# Resource helpers
# ----------------------------------------------------------------------
class TestResourceHelpers:
    def test_peak_rss_mb_falls_back_to_zero_without_resource(self, monkeypatch):
        from repro.obs import metrics

        real_import = builtins.__import__

        def no_resource(name, *args, **kwargs):
            if name == "resource":
                raise ImportError("no resource module on this platform")
            return real_import(name, *args, **kwargs)

        monkeypatch.setattr(builtins, "__import__", no_resource)
        assert metrics.peak_rss_mb() == 0.0
