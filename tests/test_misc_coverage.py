"""Focused tests for remaining corner paths across modules."""

import pytest

from repro.core import make_codec
from repro.core.word import EncodedWord
from repro.experiments.power_tables import (
    simulate_codecs,
    render_table8,
    render_table9,
    table8,
    table9,
)
from repro.metrics import count_transitions
from repro.tracegen import AddressTrace, get_profile, multiplexed_trace


class TestPowerTablePlumbing:
    @pytest.fixture(scope="class")
    def runs(self):
        return simulate_codecs(length=250, codes=("binary", "t0"))

    def test_custom_code_subset(self, runs):
        assert set(runs) == {"binary", "t0"}
        rows = table8(runs, loads=[0.2e-12])
        assert set(rows[0].encoder_mw) == {"binary", "t0"}

    def test_roundtrip_check_enforced(self, runs):
        # The runs were produced with a verified roundtrip; the recorded
        # activity reflects the encoded stream (reduced vs binary).
        assert (
            runs["t0"].encoded_transitions_per_cycle
            < runs["binary"].encoded_transitions_per_cycle
        )

    def test_renderers_handle_subsets(self, runs):
        assert "t0" in render_table8(table8(runs, loads=[0.1e-12]))
        assert "best" in render_table9(table9(runs, loads=[50e-12]))

    def test_line_count_includes_extras(self, runs):
        assert runs["binary"].line_count == 32
        assert runs["t0"].line_count == 33


class TestCliPowerTables:
    def test_table8_via_cli(self, capsys):
        from repro.cli import main

        assert main(["table", "8", "--length", "250"]) == 0
        out = capsys.readouterr().out
        assert "Table 8" in out

    def test_table9_via_cli(self, capsys):
        from repro.cli import main

        assert main(["table", "9", "--length", "250"]) == 0
        out = capsys.readouterr().out
        assert "Table 9" in out
        assert "best" in out


class TestTraceCorners:
    def test_head_preserves_sels(self):
        trace = AddressTrace(
            "m", (1, 2, 3, 4), sels=(1, 0, 1, 0), kind="multiplexed"
        )
        head = trace.head(2)
        assert head.sels == (1, 0)
        assert head.kind == "multiplexed"

    def test_iteration(self):
        trace = AddressTrace("x", (10, 20))
        assert list(trace) == [10, 20]

    def test_decoder_stream_resets_between_calls(self):
        codec = make_codec("t0", 32)
        words = codec.make_encoder().encode_stream([0x100, 0x104, 0x108])
        decoder = codec.make_decoder()
        first = decoder.decode_stream(words)
        second = decoder.decode_stream(words)
        assert first == second == [0x100, 0x104, 0x108]


class TestMetricsCorners:
    def test_count_transitions_with_initial_and_extras(self):
        stream = [EncodedWord(0b11, (1,))]
        report = count_transitions(
            stream, width=2, initial=EncodedWord(0b00, (0,))
        )
        assert report.total == 3
        assert report.extra_transitions == 1

    def test_benchmark_streams_have_distinct_seeds(self):
        """Different benchmarks must not share address streams."""
        a = multiplexed_trace(get_profile("gzip"), 500).addresses
        b = multiplexed_trace(get_profile("latex"), 500).addresses
        assert a != b
