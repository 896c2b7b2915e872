"""Tests for the observability substrate (repro.obs)."""

from __future__ import annotations

import json
import time

import pytest

from repro.core import make_codec
from repro.core.base import encode_stream
from repro.obs import (
    DETERMINISTIC_FIELDS,
    JsonlSink,
    MemorySink,
    Registry,
    aggregate_stages,
    capture,
    collect_manifest,
    counter_deltas,
    deterministic_view,
    digest_text,
    enabled,
    event,
    load_jsonl,
    run_profile,
    span,
    validate_event,
    validate_events,
    write_manifest,
)
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace


@pytest.fixture(autouse=True)
def _clean_tracer():
    """Every test starts and ends with tracing off and no leaked sinks."""
    yield
    obs_trace.disable()


class TestSpans:
    def test_disabled_returns_shared_null_span(self):
        assert not enabled()
        first = span("encode", codec="t0")
        second = span("count")
        assert first is second is obs_trace.NULL_SPAN
        with first as live:
            live.annotate(extra=1)  # no-op, must not raise

    def test_span_nesting_parent_chain(self):
        with capture() as sink:
            with span("outer"):
                with span("inner"):
                    event("tick", n=1)
        begins = {
            e["name"]: e for e in sink.events if e["type"] == "span_begin"
        }
        assert begins["outer"]["parent"] is None
        assert begins["inner"]["parent"] == begins["outer"]["id"]
        (point,) = [e for e in sink.events if e["type"] == "event"]
        assert point["parent"] == begins["inner"]["id"]
        assert point["fields"] == {"n": 1}

    def test_exception_safety(self):
        with capture() as sink:
            with pytest.raises(ValueError):
                with span("doomed"):
                    raise ValueError("boom")
            # The stack must be clean: a new span is a root again.
            with span("after"):
                pass
        ends = {e["name"]: e for e in sink.events if e["type"] == "span_end"}
        assert ends["doomed"]["status"] == "error"
        assert ends["doomed"]["error"] == "ValueError"
        assert ends["after"]["status"] == "ok"
        begins = {
            e["name"]: e for e in sink.events if e["type"] == "span_begin"
        }
        assert begins["after"]["parent"] is None

    def test_annotate_lands_on_span_end(self):
        with capture() as sink:
            with span("work") as s:
                s.annotate(items=42)
        begin, end = sink.events
        assert "items" not in begin["fields"]
        assert end["fields"]["items"] == 42
        assert end["dur_s"] >= 0

    def test_capture_restores_prior_state(self):
        assert not enabled()
        with capture():
            assert enabled()
        assert not enabled()


class TestSchema:
    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path)
        obs_trace.enable(sink)
        with span("encode", codec="t0bi", cycles=10):
            event("checkpoint", at=3)
        obs_trace.disable()

        loaded = list(load_jsonl(path))
        assert [e["type"] for e in loaded] == [
            "span_begin",
            "event",
            "span_end",
        ]
        assert validate_events(loaded) == []
        # Encoded and decoded forms agree exactly.
        with capture() as sink2:
            with span("encode", codec="t0bi", cycles=10):
                event("checkpoint", at=3)
        for direct, reloaded in zip(sink2.events, loaded):
            assert json.loads(json.dumps(direct)) == {
                **direct
            }  # JSON-serializable
            assert direct["name"] == reloaded["name"]
            assert direct["fields"] == reloaded["fields"]

    def test_validate_event_rejects_malformed(self):
        assert validate_event("nope") == ["event is not a JSON object"]
        bad = {
            "v": 99,
            "type": "mystery",
            "name": "",
            "ts": "later",
            "id": "one",
            "parent": "zero",
            "fields": {"obj": {}},
        }
        problems = validate_event(bad)
        assert len(problems) >= 6
        good = {
            "v": 1,
            "type": "span_end",
            "name": "encode",
            "ts": 1.0,
            "id": 7,
            "parent": None,
            "fields": {"codec": "t0"},
            "dur_s": 0.25,
            "status": "ok",
        }
        assert validate_event(good) == []
        assert validate_event({**good, "dur_s": -1}) != []
        assert validate_event({**good, "status": "maybe"}) != []


class TestMetrics:
    def test_counter_identity_and_labels(self):
        registry = Registry()
        a = registry.counter("hits", codec="t0")
        b = registry.counter("hits", codec="t0")
        c = registry.counter("hits", codec="bi")
        assert a is b
        assert a is not c
        a.inc()
        a.inc(4)
        snap = registry.snapshot()
        values = {
            (entry["name"], entry.get("labels", {}).get("codec")): entry[
                "value"
            ]
            for entry in snap["counters"]
        }
        assert values[("hits", "t0")] == 5
        assert values[("hits", "bi")] == 0

    def test_reset_zeroes_in_place(self):
        registry = Registry()
        cached = registry.counter("nodes")
        cached.inc(10)
        registry.reset()
        assert cached.value == 0
        cached.inc(2)  # the cached handle still feeds the registry
        assert registry.snapshot()["counters"][0]["value"] == 2

    def test_histogram_summary(self):
        registry = Registry()
        h = registry.histogram("sizes")
        for v in (1, 2, 4, 1000):
            h.observe(v)
        (entry,) = registry.snapshot()["histograms"]
        assert entry["count"] == 4
        assert entry["min"] == 1
        assert entry["max"] == 1000
        assert entry["mean"] == pytest.approx(1007 / 4)

    def test_counter_deltas(self):
        registry = Registry()
        registry.counter("a").inc(5)
        before = registry.snapshot()
        registry.counter("a").inc(3)
        registry.counter("b", codec="t0").inc(1)
        deltas = counter_deltas(before, registry.snapshot())
        as_map = {
            (d["name"], (d.get("labels") or {}).get("codec")): d["value"]
            for d in deltas
        }
        assert as_map == {("a", None): 3, ("b", "t0"): 1}

    def test_global_instrumentation_counts_encoded_words(self):
        before = obs_metrics.snapshot()
        codec = make_codec("t0", 8)
        encode_stream(codec, [0, 4, 8, 12])
        deltas = counter_deltas(before, obs_metrics.snapshot())
        hit = [
            d
            for d in deltas
            if d["name"] == "core.encoded_words"
            and d.get("labels", {}).get("codec") == "t0"
        ]
        assert hit and hit[0]["value"] == 4


class TestAggregation:
    def _events(self, spans):
        """spans: (name, id, parent, dur) tuples → begin/end event stream."""
        events = []
        for name, sid, parent, dur in spans:
            events.append(
                {
                    "v": 1,
                    "ts": 0.0,
                    "type": "span_begin",
                    "name": name,
                    "id": sid,
                    "parent": parent,
                    "fields": {},
                }
            )
        for name, sid, parent, dur in spans:
            events.append(
                {
                    "v": 1,
                    "ts": 1.0,
                    "type": "span_end",
                    "name": name,
                    "id": sid,
                    "parent": parent,
                    "fields": {},
                    "dur_s": dur,
                    "status": "ok",
                }
            )
        return events

    def test_outermost_charging(self):
        # tracegen(1) contains tracegen(2); only the outer one is charged.
        events = self._events(
            [
                ("tracegen", 1, None, 2.0),
                ("tracegen", 2, 1, 1.5),
                ("encode", 3, None, 1.0),
            ]
        )
        agg = aggregate_stages(events, ["tracegen", "encode"])
        assert agg["tracegen"]["wall_s"] == pytest.approx(2.0)
        assert agg["tracegen"]["spans"] == 1
        assert agg["encode"]["wall_s"] == pytest.approx(1.0)

    def test_nested_under_unrelated_span_still_charged(self):
        # encode under a non-aggregated wrapper span is still outermost
        # *within the stage set*.
        events = self._events(
            [("wrapper", 1, None, 5.0), ("encode", 2, 1, 1.0)]
        )
        agg = aggregate_stages(events, ["encode"])
        assert agg["encode"]["wall_s"] == pytest.approx(1.0)

    def test_unclosed_span_charged_with_estimate(self):
        # A truncated trace (begin at ts=2.0, never ended, last event at
        # ts=5.0) still charges the stage, flagged as unclosed.
        events = self._events([("tracegen", 1, None, 2.0)])
        events.append(
            {
                "v": 1,
                "ts": 2.0,
                "type": "span_begin",
                "name": "encode",
                "id": 2,
                "parent": None,
                "fields": {},
            }
        )
        events.append(
            {"v": 1, "ts": 5.0, "type": "event", "name": "tick", "fields": {}}
        )
        agg = aggregate_stages(events, ["tracegen", "encode"])
        assert agg["tracegen"]["wall_s"] == pytest.approx(2.0)
        assert "unclosed" not in agg["tracegen"]
        assert agg["encode"]["wall_s"] == pytest.approx(3.0)  # 5.0 - 2.0
        assert agg["encode"]["spans"] == 1
        assert agg["encode"]["unclosed"] == 1

    def test_error_status_span_still_charged(self):
        # Span.__exit__ emits span_end with status="error" when the body
        # raises; the stage accounting must charge it like any other.
        events = self._events([("encode", 1, None, 1.5)])
        for entry in events:
            if entry["type"] == "span_end":
                entry["status"] = "error"
        agg = aggregate_stages(events, ["encode"])
        assert agg["encode"]["wall_s"] == pytest.approx(1.5)
        assert agg["encode"]["spans"] == 1

    def test_real_pipeline_stage_sum_close_to_total(self):
        from repro.experiments import table4

        def workload():
            return table4(length=300)

        _, result = run_profile(
            "table", workload, params={"number": 4, "length": 300}
        )
        assert result.schema_errors == []
        assert [s.name for s in result.stages] == [
            "tracegen",
            "encode",
            "count",
        ]
        assert all(s.spans > 0 for s in result.stages)
        # The three stages dominate the run and never exceed the total.
        assert result.staged_s <= result.total_s * 1.01
        assert result.staged_s >= result.total_s * 0.5


class TestOverhead:
    def test_disabled_tracing_overhead_under_budget(self):
        """Encoding 100k addresses with instrumented code paths must cost
        within 5% of the same loop with the span call bypassed."""
        codec = make_codec("t0", 32)
        addresses = [(i * 4) & 0xFFFFFFFF for i in range(100_000)]
        encoder = codec.make_encoder()

        def bare():
            # The same work encode_stream does, minus the obs call sites.
            encoder.reset()
            return [encoder.encode(a) for a in addresses]

        def instrumented():
            return encode_stream(codec, addresses)

        bare()
        instrumented()  # warm-up
        # One span + one counter bump across 100k encodes is noise-level;
        # take the best of several interleaved runs so scheduler jitter on
        # a loaded box cannot fail the 5% budget, then re-measure once
        # before declaring a violation.
        for _attempt in range(2):
            bare_times, instr_times = [], []
            for _ in range(5):
                bare_times.append(_timed(bare))
                instr_times.append(_timed(instrumented))
            bare_t, instr_t = min(bare_times), min(instr_times)
            if instr_t <= bare_t * 1.05:
                break
        assert instr_t <= bare_t * 1.05, (
            f"disabled-mode overhead above 5%: {instr_t:.4f}s vs "
            f"{bare_t:.4f}s bare"
        )


def _timed(fn):
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


class TestManifests:
    def test_manifest_roundtrip_and_write(self, tmp_path):
        manifest = collect_manifest(
            command="table",
            argv=["table", "4", "--length", "2000"],
            seed=101,
            stream_length=2000,
            wall_s=1.5,
            stages={"encode": {"wall_s": 1.0, "spans": 9}},
            result_text="Table 4 ...",
        )
        path = write_manifest(tmp_path / "m" / "table4.json", manifest)
        assert path.exists()
        loaded = json.loads(path.read_text())
        assert loaded["command"] == "table"
        assert loaded["seed"] == 101
        assert loaded["result_digest"] == digest_text("Table 4 ...")
        assert loaded["stages"]["encode"]["spans"] == 9

    def test_deterministic_view_is_rerun_stable(self):
        def make():
            return collect_manifest(
                command="table",
                argv=["table", "4"],
                seed=101,
                stream_length=2000,
                result_text="identical output",
            )

        first = make()
        obs_metrics.counter("some.counter").inc(7)  # volatile state drifts
        time.sleep(0.01)
        second = make()
        assert deterministic_view(first) == deterministic_view(second)
        # And the volatile parts really did differ, so the view earns its keep.
        assert first["started_at"] != second["started_at"]

    def test_deterministic_view_covers_declared_fields(self):
        manifest = collect_manifest(command="x")
        assert set(deterministic_view(manifest)) == set(DETERMINISTIC_FIELDS)

    def test_seeded_pipeline_digest_is_stable(self):
        from repro.experiments import table2

        def digest_of_run():
            return digest_text(table2(length=120).render())

        assert digest_of_run() == digest_of_run()


class TestProfileRunner:
    def test_run_profile_returns_value_and_counters(self):
        def workload():
            obs_metrics.counter("test.profile.widget").inc(3)
            with span("encode", codec="t0"):
                pass
            return "payload"

        value, result = run_profile("table", workload)
        assert value == "payload"
        widget = [
            d
            for d in result.counters
            if d["name"] == "test.profile.widget"
        ]
        assert widget and widget[0]["value"] == 3
        assert result.events == 2
        assert result.schema_errors == []
        rendered = result.render()
        assert "encode" in rendered
        assert "test.profile.widget" in rendered

    def test_run_profile_json_shape(self):
        _, result = run_profile("table", lambda: None)
        data = result.to_dict()
        assert set(data) >= {
            "workload",
            "total_s",
            "stages",
            "counters",
            "events",
            "schema_errors",
            "error",
        }
        json.dumps(data)  # must be serializable

    def test_workload_that_raises_mid_stage_is_still_charged(self):
        """Regression: an exception escaping a stage span must not lose
        the time of the stages that ran (ISSUE 9, satellite 3)."""

        def workload():
            with span("tracegen"):
                time.sleep(0.01)
            with span("encode"):
                time.sleep(0.005)
                raise RuntimeError("boom mid-encode")

        value, result = run_profile("table", workload)
        assert value is None
        assert result.error == "RuntimeError: boom mid-encode"
        by_name = {s.name: s for s in result.stages}
        assert by_name["tracegen"].wall_s >= 0.01
        assert by_name["tracegen"].spans == 1
        # The stage the exception escaped from is charged too.
        assert by_name["encode"].wall_s >= 0.005
        assert by_name["encode"].spans == 1
        rendered = result.render()
        assert "workload FAILED: RuntimeError: boom mid-encode" in rendered
        assert result.to_dict()["error"] == "RuntimeError: boom mid-encode"


class TestReplayEdgeCases:
    def test_replay_of_empty_trace_file_is_noop(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        events = list(load_jsonl(empty))
        assert events == []
        with capture() as sink:
            obs_trace.replay_events(events)
        assert sink.events == []

    def test_replay_while_disabled_is_noop(self):
        assert not enabled()
        # Must not raise and must not resurrect any sink.
        obs_trace.replay_events(
            [{"v": 1, "ts": 0.0, "type": "event", "name": "x", "fields": {}}]
        )
        assert not enabled()

    def test_orphaned_child_reparented_to_current_span(self):
        # A child whose parent id never appears in the replayed stream
        # (e.g. the trace was truncated at a chunk boundary) is adopted
        # by the caller's current span instead of dangling.
        orphan = [
            {
                "v": 1,
                "ts": 0.0,
                "type": "span_begin",
                "name": "lost-child",
                "id": 99,
                "parent": 12345,  # never defined in this stream
                "fields": {},
            },
            {
                "v": 1,
                "ts": 1.0,
                "type": "span_end",
                "name": "lost-child",
                "id": 99,
                "parent": 12345,
                "fields": {},
                "dur_s": 1.0,
                "status": "ok",
            },
        ]
        with capture() as sink:
            with span("host") as host_span:
                obs_trace.replay_events(orphan)
                host_id = host_span.span_id
        replayed = [e for e in sink.events if e["name"] == "lost-child"]
        assert len(replayed) == 2
        assert all(e["parent"] == host_id for e in replayed)
        # Ids are remapped, never reused verbatim.
        assert all(e["id"] != 99 for e in replayed)

    def test_replayed_ids_do_not_collide_across_workers(self):
        # Two workers both allocated span id 1; the merged trace must
        # keep them distinct.
        def worker_events(name):
            return [
                {
                    "v": 1,
                    "ts": 0.0,
                    "type": "span_begin",
                    "name": name,
                    "id": 1,
                    "parent": None,
                    "fields": {},
                }
            ]

        with capture() as sink:
            obs_trace.replay_events(worker_events("w1"))
            obs_trace.replay_events(worker_events("w2"))
        ids = [e["id"] for e in sink.events]
        assert len(set(ids)) == 2

    def test_counter_deltas_across_reset(self):
        registry = Registry()
        registry.counter("work.items").inc(10)
        before = registry.snapshot()
        registry.reset()
        registry.counter("work.items").inc(3)
        deltas = counter_deltas(before, registry.snapshot())
        # Reset zeroed the instrument, so the delta is negative — the
        # caller sees exactly what happened rather than a silent clamp.
        assert deltas == [{"name": "work.items", "value": -7}]
        # And a fresh baseline after reset behaves normally.
        after_reset = registry.snapshot()
        registry.counter("work.items").inc(5)
        assert counter_deltas(after_reset, registry.snapshot()) == [
            {"name": "work.items", "value": 5}
        ]


class TestDeterministicViewEdgeCases:
    def test_missing_fields_surface_as_none(self):
        # A hand-rolled or truncated manifest still yields a view with
        # every declared field, so == comparisons never KeyError.
        view = deterministic_view({"command": "table"})
        assert set(view) == set(DETERMINISTIC_FIELDS)
        assert view["command"] == "table"
        assert view["result_digest"] is None
        assert view["seed"] is None

    def test_extra_fields_are_ignored(self):
        manifest = collect_manifest(command="x", result_text="out")
        manifest["wall_s"] = 123.0
        manifest["custom"] = {"noise": True}
        view = deterministic_view(manifest)
        assert "custom" not in view
        assert "wall_s" not in view

    def test_empty_manifest_view_is_stable(self):
        assert deterministic_view({}) == deterministic_view({})


class TestSinks:
    def test_memory_sink_close_is_safe(self):
        sink = MemorySink()
        sink.emit({"a": 1})
        sink.close()
        assert sink.events == [{"a": 1}]

    def test_jsonl_sink_borrowed_stream_not_closed(self, tmp_path):
        import io

        stream = io.StringIO()
        sink = JsonlSink(stream)
        sink.emit({"v": 1})
        sink.close()
        assert not stream.closed  # borrowed streams stay open
        assert json.loads(stream.getvalue()) == {"v": 1}
