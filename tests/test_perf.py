"""Tests for span analytics (repro.obs.perf) and Histogram.percentile."""

from __future__ import annotations

import time

import pytest

from repro.obs import (
    build_profile_tree,
    collapse_stacks,
    parse_collapsed,
    render_tree,
    run_profile,
    span,
    write_flame,
)
from repro.obs import trace as obs_trace
from repro.obs.metrics import Histogram, _label_key
from repro.obs.perf import US_PER_S, span_histograms


@pytest.fixture(autouse=True)
def _clean_tracer():
    yield
    obs_trace.disable()


def _span_events(spans):
    """spans: (name, id, parent, dur) tuples → begin/end event stream."""
    events = []
    for name, sid, parent, _dur in spans:
        events.append(
            {"v": 1, "ts": 0.0, "type": "span_begin", "name": name,
             "id": sid, "parent": parent, "fields": {}}
        )
    for name, sid, parent, dur in spans:
        events.append(
            {"v": 1, "ts": 1.0, "type": "span_end", "name": name,
             "id": sid, "parent": parent, "fields": {}, "dur_s": dur,
             "status": "ok"}
        )
    return events


class TestHistogramPercentile:
    def _hist(self, values):
        histogram = Histogram("test", _label_key({}))
        for value in values:
            histogram.observe(value)
        return histogram

    def test_empty_returns_zero(self):
        assert self._hist([]).percentile(0.5) == 0.0

    def test_quantile_out_of_range_rejected(self):
        histogram = self._hist([1])
        with pytest.raises(ValueError):
            histogram.percentile(-0.1)
        with pytest.raises(ValueError):
            histogram.percentile(1.1)

    def test_single_value_recovered_exactly(self):
        # min/max clamping recovers a lone observation at any quantile.
        histogram = self._hist([37])
        for q in (0.0, 0.25, 0.5, 0.99, 1.0):
            assert histogram.percentile(q) == 37

    def test_exact_values_at_bucket_edges(self):
        # One observation per bucket: the estimate lands exactly on each
        # bucket's right edge (a conservative upper bound on the true
        # quantile), and on max at q=1.
        histogram = self._hist([1, 2, 4, 8])
        assert histogram.percentile(0.25) == pytest.approx(2.0)
        assert histogram.percentile(0.50) == pytest.approx(4.0)
        assert histogram.percentile(0.75) == pytest.approx(8.0)
        assert histogram.percentile(1.00) == pytest.approx(8.0)

    def test_zero_quantile_clamps_to_min(self):
        histogram = self._hist([1, 2, 4, 8])
        assert histogram.percentile(0.0) == pytest.approx(1.0)

    def test_monotone_in_q(self):
        histogram = self._hist([3, 3, 5, 9, 17, 100, 1000])
        quantiles = [i / 20 for i in range(21)]
        values = [histogram.percentile(q) for q in quantiles]
        assert values == sorted(values)
        assert values[0] == 3
        assert values[-1] == 1000

    def test_snapshot_carries_percentiles(self):
        from repro.obs.metrics import Registry

        registry = Registry()
        for value in (1, 2, 4, 8):
            registry.histogram("latency").observe(value)
        entry = registry.snapshot()["histograms"][0]
        assert entry["p50"] == pytest.approx(4.0)
        assert entry["p95"] == pytest.approx(8.0)
        assert entry["p99"] == pytest.approx(8.0)


class TestProfileTree:
    def test_self_vs_cumulative(self):
        events = _span_events(
            [
                ("table", 1, None, 10.0),
                ("encode", 2, 1, 6.0),
                ("count", 3, 2, 2.0),
            ]
        )
        root = build_profile_tree(events)
        table = root.children["table"]
        assert table.cum_s == pytest.approx(10.0)
        assert table.self_s == pytest.approx(4.0)  # 10 - encode's 6
        encode = table.children["encode"]
        assert encode.cum_s == pytest.approx(6.0)
        assert encode.self_s == pytest.approx(4.0)  # 6 - count's 2
        assert encode.children["count"].self_s == pytest.approx(2.0)
        assert root.cum_s == pytest.approx(10.0)

    def test_sibling_spans_merge_by_path(self):
        events = _span_events(
            [
                ("table", 1, None, 10.0),
                ("encode", 2, 1, 3.0),
                ("encode", 3, 1, 4.0),
            ]
        )
        root = build_profile_tree(events)
        encode = root.children["table"].children["encode"]
        assert encode.count == 2
        assert encode.cum_s == pytest.approx(7.0)

    def test_unclosed_span_estimated_and_flagged(self):
        events = _span_events([("table", 1, None, 5.0)])
        # A child that began at ts=0 but never ended; last ts is 1.0.
        events.insert(
            1,
            {"v": 1, "ts": 0.25, "type": "span_begin", "name": "encode",
             "id": 2, "parent": 1, "fields": {}},
        )
        root = build_profile_tree(events)
        encode = root.children["table"].children["encode"]
        assert encode.unclosed == 1
        assert encode.cum_s == pytest.approx(0.75)  # 1.0 - 0.25

    def test_error_span_counted(self):
        events = _span_events([("encode", 1, None, 1.0)])
        events[-1]["status"] = "error"
        root = build_profile_tree(events)
        assert root.children["encode"].errors == 1

    def test_render_tree_lists_paths(self):
        events = _span_events(
            [("table", 1, None, 2.0), ("encode", 2, 1, 1.0)]
        )
        text = render_tree(build_profile_tree(events))
        assert "(root)" in text
        assert "table" in text
        assert "encode" in text


class TestCollapsedStacks:
    def test_round_trip(self):
        events = _span_events(
            [
                ("table", 1, None, 10.0),
                ("encode", 2, 1, 6.0),
                ("count", 3, 2, 2.0),
            ]
        )
        lines = collapse_stacks(events)
        parsed = parse_collapsed("\n".join(lines))
        assert parsed[("table",)] == 4 * US_PER_S
        assert parsed[("table", "encode")] == 4 * US_PER_S
        assert parsed[("table", "encode", "count")] == 2 * US_PER_S
        # Total flame width equals total self time equals total wall.
        assert sum(parsed.values()) == 10 * US_PER_S

    def test_zero_self_time_paths_dropped(self):
        # A span fully covered by its child carries no self time.
        events = _span_events(
            [("outer", 1, None, 3.0), ("inner", 2, 1, 3.0)]
        )
        parsed = parse_collapsed("\n".join(collapse_stacks(events)))
        assert ("outer",) not in parsed
        assert parsed[("outer", "inner")] == 3 * US_PER_S

    def test_semicolons_in_names_sanitized(self):
        events = _span_events([("a;b", 1, None, 1.0)])
        lines = collapse_stacks(events)
        parsed = parse_collapsed("\n".join(lines))
        assert list(parsed) == [("a,b",)]

    def test_parser_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse_collapsed("a;b notanumber")
        with pytest.raises(ValueError):
            parse_collapsed("a;;b 10")
        with pytest.raises(ValueError):
            parse_collapsed("a;b -5")

    def test_write_flame_and_reparse(self, tmp_path):
        with obs_trace.capture() as sink:
            with span("table"):
                with span("encode"):
                    time.sleep(0.002)
        target = tmp_path / "flame.txt"
        lines = write_flame(target, sink.events)
        assert lines >= 1
        parsed = parse_collapsed(target.read_text())
        assert ("table", "encode") in parsed
        assert all(value >= 0 for value in parsed.values())


class TestSpanPercentiles:
    def test_percentiles_from_synthetic_durations(self):
        spans = [("encode", i, None, float(d)) for i, d in
                 enumerate([1, 2, 4, 8], start=1)]
        events = _span_events(spans)
        histograms = span_histograms(events, ["encode"])
        assert histograms["encode"].count == 4
        p50 = histograms["encode"].percentile(0.50) / US_PER_S
        p95 = histograms["encode"].percentile(0.95) / US_PER_S
        # Bucket estimates bracket the true quantiles (durations are
        # observed in microseconds, so none of these collapse to zero).
        assert 2.0 <= p50 <= 4.0
        assert p50 <= p95 <= 8.0

    def test_charging_rule_matches_aggregate(self):
        # A nested encode under encode counts once, like aggregate_stages.
        events = _span_events(
            [("encode", 1, None, 4.0), ("encode", 2, 1, 3.0)]
        )
        histograms = span_histograms(events, ["encode"])
        assert histograms["encode"].count == 1


class TestProfileFlamePath:
    def test_run_profile_retains_events_for_flame(self, tmp_path):
        from repro.experiments import table4

        _, result = run_profile(
            "table", lambda: table4(length=200), params={"number": 4}
        )
        assert result.error is None
        assert result.captured_events
        assert "captured_events" not in result.to_dict()
        target = tmp_path / "flame.txt"
        assert write_flame(target, result.captured_events) >= 1
        parsed = parse_collapsed(target.read_text())
        assert any("encode" in frames for frames in parsed)

    def test_stage_percentiles_surface_in_result(self):
        from repro.experiments import table4

        _, result = run_profile("table", lambda: table4(length=200))
        encode = next(s for s in result.stages if s.name == "encode")
        assert encode.p95_s >= encode.p50_s >= 0.0
        stage_dict = next(
            s for s in result.to_dict()["stages"] if s["name"] == "encode"
        )
        assert {"p50_s", "p95_s", "p99_s"} <= set(stage_dict)
