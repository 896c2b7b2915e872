"""The batch execution engine: caching, parallel merge, CLI parity.

Covers the tentpole guarantees: content-addressed cache keys that react
to codec params and code versions (and nothing else), byte-identical
results under worker pools, warm runs that perform zero encode work, and
the ``repro-bus tables`` command matching ``table N`` exactly.
"""

from __future__ import annotations

import json

import pytest

from repro.core import make_codec
from repro.engine import (
    BatchEngine,
    ExecutionConfig,
    METRIC_BINARY,
    METRIC_CODEC,
    ResultCache,
    cell_key,
    code_version,
    comparison_cells,
    compute_cell,
    make_cell,
    row_from_results,
)
from repro.metrics import compare_codecs
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace

from tests.conftest import make_mixed_stream, oracle_row


@pytest.fixture
def stream():
    return make_mixed_stream(length=500, seed=9)


@pytest.fixture
def codecs():
    return [make_codec(name, 32) for name in ("t0", "bus-invert", "dualt0bi")]


def _codec_map(codecs):
    return {codec.name: codec for codec in codecs}


class TestCellKeys:
    def test_key_is_deterministic(self, stream):
        addresses, sels = stream
        codec = make_codec("t0", 32)
        cell = make_cell(METRIC_CODEC, "b", addresses, sels, codec=codec)
        version = code_version(METRIC_CODEC, codec)
        assert cell_key(cell, version) == cell_key(cell, version)

    def test_key_changes_with_params(self, stream):
        addresses, sels = stream
        cells = [
            make_cell(
                METRIC_CODEC,
                "b",
                addresses,
                sels,
                codec=make_codec("t0", 32, stride=stride),
            )
            for stride in (4, 8)
        ]
        version = code_version(METRIC_CODEC, make_codec("t0", 32))
        assert cell_key(cells[0], version) != cell_key(cells[1], version)

    def test_key_changes_with_code_version(self, stream):
        addresses, sels = stream
        codec = make_codec("t0", 32)
        cell = make_cell(METRIC_CODEC, "b", addresses, sels, codec=codec)
        assert cell_key(cell, "v1") != cell_key(cell, "v2")

    def test_key_changes_with_stream(self, stream):
        addresses, sels = stream
        codec = make_codec("t0", 32)
        a = make_cell(METRIC_CODEC, "b", addresses, sels, codec=codec)
        b = make_cell(
            METRIC_CODEC, "b", [x ^ 4 for x in addresses], sels, codec=codec
        )
        version = code_version(METRIC_CODEC, codec)
        assert cell_key(a, version) != cell_key(b, version)

    def test_key_ignores_trace_name(self, stream):
        """Content-addressed: renaming a benchmark reuses its entries."""
        addresses, sels = stream
        codec = make_codec("t0", 32)
        a = make_cell(METRIC_CODEC, "gzip", addresses, sels, codec=codec)
        b = make_cell(METRIC_CODEC, "gcc", addresses, sels, codec=codec)
        version = code_version(METRIC_CODEC, codec)
        assert cell_key(a, version) == cell_key(b, version)

    def test_code_version_distinguishes_codecs(self):
        # t0 and gray live in different modules, so their tags differ.
        assert code_version(METRIC_CODEC, make_codec("t0", 32)) != code_version(
            METRIC_CODEC, make_codec("gray", 32)
        )


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("a" * 64, {"x": 1})
        assert cache.get("a" * 64) == {"x": 1}
        assert len(cache) == 1

    def test_miss(self, tmp_path):
        assert ResultCache(tmp_path).get("b" * 64) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "c" * 64
        cache.put(key, {"x": 1})
        cache._path(key).write_text("{truncated")
        assert cache.get(key) is None

    def test_wrong_key_inside_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "d" * 64
        cache.put(key, {"x": 1})
        cache._path(key).write_text(
            json.dumps({"key": "e" * 64, "payload": {"x": 1}})
        )
        assert cache.get(key) is None

    @staticmethod
    def _corrupt_count():
        return obs_metrics.counter("engine.cache_corrupt").value

    def test_edited_payload_number_is_a_counted_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "f" * 64
        cache.put(key, {"transitions": 120, "cycles": 40})
        path = cache._path(key)
        entry = json.loads(path.read_text())
        entry["payload"]["transitions"] = 121  # still well-formed JSON
        path.write_text(json.dumps(entry))
        before = self._corrupt_count()
        assert cache.get(key) is None
        assert self._corrupt_count() == before + 1
        cache.put(key, {"transitions": 120, "cycles": 40})  # a put heals it
        assert cache.get(key) == {"transitions": 120, "cycles": 40}

    def test_truncated_entry_is_a_counted_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "0" * 64
        cache.put(key, {"transitions": 120, "cycles": 40})
        path = cache._path(key)
        path.write_bytes(path.read_bytes()[:-7])
        before = self._corrupt_count()
        assert cache.get(key) is None
        assert self._corrupt_count() == before + 1

    def test_absent_entry_is_not_counted_corrupt(self, tmp_path):
        before = self._corrupt_count()
        assert ResultCache(tmp_path).get("1" * 64) is None
        assert self._corrupt_count() == before


def _assert_matches_oracle_row(stream, codecs):
    addresses, sels = stream
    expected = oracle_row(codecs, addresses, sels, benchmark="b")
    for config in (
        None,
        ExecutionConfig(),
        ExecutionConfig(kernels=False),
        ExecutionConfig(jobs=2),
        ExecutionConfig(jobs=2, kernels=False),
    ):
        row = compare_codecs(
            codecs, addresses, sels, benchmark="b", config=config
        )
        assert row == expected


class TestEngineRuns:
    def test_matches_scalar_oracle_row(self, stream, codecs):
        _assert_matches_oracle_row(stream, codecs)

    def test_fallback_roster_matches_scalar_oracle_row(self, stream):
        # mtf and wze have no encode kernel, so their cells run
        # encode_stream, here also inside pool workers.
        _assert_matches_oracle_row(
            stream, [make_codec(name, 32) for name in ("mtf", "wze", "inc-xor")]
        )

    def test_removed_kwargs_raise_type_error(self, stream, codecs):
        from repro.experiments import simulate_codecs, table2

        addresses, sels = stream
        with pytest.raises(TypeError, match="engine"):
            compare_codecs(
                codecs, addresses, sels, engine=BatchEngine(jobs=1)
            )
        with pytest.raises(TypeError, match="use_kernels"):
            compare_codecs(codecs, addresses, sels, use_kernels=True)
        with pytest.raises(TypeError, match="engine"):
            table2(120, engine=BatchEngine(jobs=1))
        with pytest.raises(TypeError, match="engine"):
            simulate_codecs("gzip", 50, engine=BatchEngine(jobs=1))

    @pytest.mark.parametrize("jobs", (1, 2))
    def test_one_span_and_counter_per_computed_cell(
        self, stream, jobs
    ):
        """In-process cells emit their spans live and pool cells are
        replayed: either way each span appears exactly once."""
        addresses, sels = stream
        codecs = [make_codec(name, 32) for name in ("t0", "bus-invert")]
        before = obs_metrics.snapshot()
        with obs_trace.capture() as sink:
            row = compare_codecs(
                codecs, addresses, sels, config=ExecutionConfig(jobs=jobs)
            )
        spans: dict = {}
        for event in sink.events:
            if event["type"] == "span_begin":
                key = (event["name"], event["fields"].get("codec"))
                spans[key] = spans.get(key, 0) + 1
        assert spans == {
            ("engine", None): 1,
            ("count", "binary"): 1,
            ("encode", "t0"): 1,
            ("count", "t0"): 1,
            ("encode", "bus-invert"): 1,
            ("count", "bus-invert"): 1,
        }
        deltas = {
            d["labels"]["codec"]: d["value"]
            for d in obs_metrics.counter_deltas(before, obs_metrics.snapshot())
            if d["name"] == "metrics.transitions"
        }
        assert deltas == {
            "binary": row.binary_transitions,
            "t0": row.result("t0").transitions,
            "bus-invert": row.result("bus-invert").transitions,
        }

    def test_config_memoizes_one_engine(self):
        config = ExecutionConfig(jobs=1)
        assert config.engine() is config.engine()
        with pytest.raises(ValueError):
            ExecutionConfig(jobs=0)
        with pytest.raises(ValueError):
            ExecutionConfig(cache_max_bytes=0)

    def test_deterministic_under_jobs_4(self, stream, codecs):
        """Merged output is index-ordered, not completion-ordered."""
        addresses, sels = stream
        cells = comparison_cells(codecs, addresses, sels, benchmark="b")
        reference = BatchEngine(jobs=1).run(cells, codecs=_codec_map(codecs))
        for _ in range(3):
            parallel = BatchEngine(jobs=4).run(
                cells, codecs=_codec_map(codecs)
            )
            assert parallel == reference
        row = row_from_results(codecs, reference, len(addresses), benchmark="b")
        assert row == oracle_row(codecs, addresses, sels, benchmark="b")

    def test_warm_run_is_all_hits_and_no_encode_work(
        self, tmp_path, stream, codecs
    ):
        addresses, sels = stream
        cells = comparison_cells(codecs, addresses, sels, benchmark="b")
        cold = BatchEngine(jobs=1, cache_dir=tmp_path)
        cold_payloads = cold.run(cells, codecs=_codec_map(codecs))
        assert cold.stats.misses == len(cells)

        before = obs_metrics.snapshot()
        warm = BatchEngine(jobs=1, cache_dir=tmp_path)
        with obs_trace.capture() as sink:
            warm_payloads = warm.run(cells, codecs=_codec_map(codecs))
        assert warm_payloads == cold_payloads
        assert warm.stats.hits == len(cells)
        assert warm.stats.misses == 0
        # Zero codec encode work: no encode spans, no encoded-word counts.
        span_names = [
            event["name"]
            for event in sink.events
            if event["type"] == "span_begin"
        ]
        assert "encode" not in span_names
        deltas = obs_metrics.counter_deltas(before, obs_metrics.snapshot())
        encoded = [d for d in deltas if d["name"] == "core.encoded_words"]
        assert encoded == []

    def test_refresh_recomputes(self, tmp_path, stream, codecs):
        addresses, sels = stream
        cells = comparison_cells(codecs, addresses, sels, benchmark="b")
        BatchEngine(jobs=1, cache_dir=tmp_path).run(
            cells, codecs=_codec_map(codecs)
        )
        refreshed = BatchEngine(jobs=1, cache_dir=tmp_path, refresh=True)
        refreshed.run(cells, codecs=_codec_map(codecs))
        assert refreshed.stats.hits == 0
        assert refreshed.stats.misses == len(cells)

    def test_code_version_edit_invalidates_only_that_codec(
        self, tmp_path, stream, codecs
    ):
        """Simulate editing one codec: its cells recompute, others hit."""
        addresses, sels = stream
        cells = comparison_cells(codecs, addresses, sels, benchmark="b")
        cold = BatchEngine(jobs=1, cache_dir=tmp_path)
        payloads = cold.run(cells, codecs=_codec_map(codecs))
        # Rewrite the t0 cells' entries under a bumped version tag, as if
        # t0.py had changed; leave every other codec's entries alone.
        cache = ResultCache(tmp_path)
        for cell, payload in zip(cells, payloads):
            if cell.codec_name == "t0":
                old = cell_key(
                    cell, code_version(cell.metric, _codec_map(codecs)["t0"])
                )
                assert cache.get(old) is not None
                assert cache.get(cell_key(cell, "edited-t0")) is None

    def test_trained_codec_runs_inline_uncached(self, tmp_path, stream):
        addresses, sels = stream
        beach = make_codec("beach", 32, training=addresses[:100])
        cells = comparison_cells([beach], addresses, sels, benchmark="b")
        engine = BatchEngine(jobs=2, cache_dir=tmp_path)
        payloads = engine.run(cells, codecs={"beach": beach})
        assert engine.stats.uncacheable == 1  # the beach cell
        row = row_from_results([beach], payloads, len(addresses), benchmark="b")
        assert row == oracle_row([beach], addresses, sels, benchmark="b")

    def test_trained_codec_without_live_codec_raises(self, stream):
        addresses, sels = stream
        beach = make_codec("beach", 32, training=addresses[:100])
        cells = comparison_cells([beach], addresses, sels, benchmark="b")
        with pytest.raises(KeyError, match="beach"):
            BatchEngine(jobs=1).run(cells)

    def test_binary_reference_cell(self, stream):
        from repro.engine import report_from_payload
        from repro.metrics import count_transitions, in_sequence_fraction
        from repro.core.word import EncodedWord

        addresses, _ = stream
        cell = make_cell(METRIC_BINARY, "b", addresses, width=32)
        payload = compute_cell(cell)
        expected = count_transitions(
            [EncodedWord(a) for a in addresses], width=32
        )
        assert report_from_payload(payload["report"]) == expected
        assert payload["in_sequence"] == in_sequence_fraction(addresses, 4)


class TestEngineTelemetry:
    @pytest.fixture(autouse=True)
    def _fresh_metrics(self):
        # Zero the process-global registry so per-run gauges and path
        # histograms are attributable to this test's engine run alone.
        obs_metrics.REGISTRY.reset()
        yield

    def _snapshot_by_name(self, section):
        snap = obs_metrics.snapshot("engine.")
        out = {}
        for item in snap[section]:
            key = (item["name"], tuple(sorted(item.get("labels", {}).items())))
            out[key] = item
        return out

    def test_cell_path_per_metric(self, stream, codecs):
        from repro.engine.cells import METRIC_POWER, cell_path

        addresses, sels = stream
        binary = make_cell(METRIC_BINARY, "b", addresses, width=32)
        assert cell_path(binary) == "columnar"
        codec = codecs[0]  # t0 has a columnar encode kernel
        coded = make_cell(METRIC_CODEC, "b", addresses, sels, codec=codec)
        assert cell_path(coded, use_kernels=True) == "kernel"
        assert cell_path(coded, use_kernels=False) == "steppable"
        power = make_cell(
            METRIC_POWER, "b", addresses[:50], codec_name="t0"
        )
        assert cell_path(power) == "gate-sim"

    def test_run_populates_path_split_and_gauges(self, stream, codecs):
        addresses, sels = stream
        cells = comparison_cells(codecs, addresses, sels, benchmark="b")
        engine = BatchEngine(jobs=1)
        engine.run(cells, codecs=_codec_map(codecs))

        gauges = self._snapshot_by_name("gauges")
        assert ("engine.worker_utilization", ()) in gauges
        utilization = gauges[("engine.worker_utilization", ())]["value"]
        assert 0.0 <= utilization <= 1.0
        assert gauges[("engine.cache.hit_rate", ())]["value"] == 0.0

        histograms = self._snapshot_by_name("histograms")
        compute = histograms[
            ("engine.cell_compute_us", (("path", "kernel"),))
        ]
        assert compute["count"] >= len(codecs)
        assert compute["p95"] >= compute["p50"] >= 0.0
        columnar = histograms[
            ("engine.cell_compute_us", (("path", "columnar"),))
        ]
        assert columnar["count"] == 1  # the binary-reference cell
        queue = histograms[("engine.cell_queue_us", ())]
        assert queue["count"] == len(cells)

        counters = self._snapshot_by_name("counters")
        assert ("engine.path_wall_ms", (("path", "kernel"),)) in counters
        assert engine.stats.queue_wall_s >= 0.0
        assert "queued" in engine.stats.summary()

    def test_steppable_path_labelled_without_kernels(self, stream, codecs):
        addresses, sels = stream
        cells = comparison_cells(
            codecs, addresses[:120], sels[:120], benchmark="b"
        )
        BatchEngine(jobs=1, use_kernels=False).run(
            cells, codecs=_codec_map(codecs)
        )
        histograms = self._snapshot_by_name("histograms")
        steppable = histograms[
            ("engine.cell_compute_us", (("path", "steppable"),))
        ]
        assert steppable["count"] >= len(codecs)

    def test_warm_run_reports_full_hit_rate(self, tmp_path, stream, codecs):
        addresses, sels = stream
        cells = comparison_cells(codecs, addresses, sels, benchmark="b")
        BatchEngine(jobs=1, cache_dir=tmp_path).run(
            cells, codecs=_codec_map(codecs)
        )
        BatchEngine(jobs=1, cache_dir=tmp_path).run(
            cells, codecs=_codec_map(codecs)
        )
        gauges = self._snapshot_by_name("gauges")
        assert gauges[("engine.cache.hit_rate", ())]["value"] == 1.0

    def test_manifest_carries_gauges_and_histograms(self, stream, codecs):
        from repro.obs.manifest import collect_manifest

        addresses, sels = stream
        cells = comparison_cells(codecs, addresses, sels, benchmark="b")
        BatchEngine(jobs=1).run(cells, codecs=_codec_map(codecs))
        manifest = collect_manifest(command="pytest-engine-telemetry")
        gauge_names = {item["name"] for item in manifest["gauges"]}
        assert "engine.worker_utilization" in gauge_names
        assert "engine.cache.hit_rate" in gauge_names
        histogram_names = {item["name"] for item in manifest["histograms"]}
        assert "engine.cell_compute_us" in histogram_names
        assert "engine.cell_queue_us" in histogram_names

    def test_queue_wait_measured_under_worker_pool(self, stream, codecs):
        addresses, sels = stream
        cells = comparison_cells(codecs, addresses, sels, benchmark="b")
        engine = BatchEngine(jobs=2)
        reference = BatchEngine(jobs=1).run(cells, codecs=_codec_map(codecs))
        payloads = engine.run(cells, codecs=_codec_map(codecs))
        # Telemetry must never leak into payloads (cache bit-identity).
        assert payloads == reference
        assert engine.stats.queue_wall_s >= 0.0


class TestEnginePowerCells:
    def test_power_runs_match_scalar_oracle(self):
        from repro.experiments.power_tables import simulate_codecs
        from repro.metrics import count_transitions
        from repro.rtl.codecs import DECODER_BUILDERS, ENCODER_BUILDERS
        from repro.rtl.power import estimate_from_simulation
        from repro.tracegen import get_profile, multiplexed_trace

        trace = multiplexed_trace(get_profile("gzip"), 200)
        enc_result, words = ENCODER_BUILDERS["t0"](32).run(
            trace.addresses, trace.sels
        )
        dec_result, decoded = DECODER_BUILDERS["t0"](32).run(
            words, trace.sels
        )
        assert list(decoded) == list(trace.addresses)
        oracle = {"encoder_result": enc_result, "decoder_result": dec_result}
        report = count_transitions(words, width=32)
        for config in (None, ExecutionConfig(jobs=2)):
            run = simulate_codecs("gzip", 200, codes=("t0",), config=config)[
                "t0"
            ]
            for side, expected in oracle.items():
                assert estimate_from_simulation(
                    getattr(run, side), output_load=0.4e-12
                ) == estimate_from_simulation(expected, output_load=0.4e-12)
            assert run.encoded_transitions_per_cycle == report.per_cycle
            assert run.line_count == 32 + words[0].extra_count


class TestTablesCli:
    def test_tables_output_matches_table(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["table", "2", "--length", "120"]) == 0
        sequential = capsys.readouterr().out
        cache = str(tmp_path / "cache")
        assert (
            main(["tables", "2", "--length", "120", "--cache", cache]) == 0
        )
        cold = capsys.readouterr()
        assert cold.out == sequential
        assert "27 cells" in cold.err
        assert "27 computed" in cold.err
        # warm rerun: all 27 cells served from cache
        assert (
            main(["tables", "2", "--length", "120", "--cache", cache]) == 0
        )
        warm = capsys.readouterr()
        assert warm.out == sequential
        assert "27 cached" in warm.err

    def test_tables_jobs_matches_table(self, capsys):
        from repro.cli import main

        assert main(["table", "3", "--length", "120"]) == 0
        sequential = capsys.readouterr().out
        assert (
            main(
                ["tables", "3", "--length", "120", "--jobs", "2", "--no-cache"]
            )
            == 0
        )
        assert capsys.readouterr().out == sequential

    def test_tables_rejects_bad_arguments(self, capsys):
        from repro.cli import main

        assert main(["tables", "12"]) == 2
        assert "no such table" in capsys.readouterr().err
        assert main(["tables", "2", "--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err
