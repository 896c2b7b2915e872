"""Tests for the nine calibrated benchmark profiles."""

import pytest

from repro.metrics import in_sequence_fraction, per_type_in_sequence_fraction
from repro.tracegen import (
    BENCHMARK_NAMES,
    BENCHMARKS,
    all_traces,
    data_trace,
    get_profile,
    instruction_trace,
    multiplexed_trace,
)


class TestProfileTable:
    def test_nine_benchmarks(self):
        assert len(BENCHMARKS) == 9
        assert set(BENCHMARK_NAMES) == {
            "gzip", "gunzip", "ghostview", "espresso", "nova",
            "jedi", "latex", "matlab", "oracle",
        }

    def test_lookup(self):
        assert get_profile("gzip").name == "gzip"
        with pytest.raises(KeyError):
            get_profile("doom")

    def test_targets_average_to_paper_statistics(self):
        """The calibration contract: targets average to the paper's stream
        statistics (63.04 % instruction / 11.39 % data in-sequence)."""
        instruction_mean = sum(p.instruction_in_seq for p in BENCHMARKS) / 9
        data_mean = sum(p.data_in_seq for p in BENCHMARKS) / 9
        assert instruction_mean == pytest.approx(0.6304, abs=0.005)
        assert data_mean == pytest.approx(0.1139, abs=0.005)

    def test_compression_benchmarks_most_sequential(self):
        gzip = get_profile("gzip")
        jedi = get_profile("jedi")
        assert gzip.instruction_in_seq > jedi.instruction_in_seq
        assert gzip.data_in_seq > jedi.data_in_seq


class TestGeneratedTraces:
    @pytest.mark.parametrize(
        "maker", [instruction_trace, data_trace, multiplexed_trace]
    )
    def test_negative_length_is_an_error(self, maker):
        with pytest.raises(ValueError, match="non-negative"):
            maker(get_profile("gzip"), -1)

    @pytest.mark.parametrize("name", ["gzip", "jedi"])
    def test_instruction_trace_near_target(self, name):
        profile = get_profile(name)
        trace = instruction_trace(profile, 15000)
        measured = in_sequence_fraction(trace.addresses, 4)
        assert measured == pytest.approx(profile.instruction_in_seq, abs=0.05)

    @pytest.mark.parametrize("name", ["gzip", "jedi"])
    def test_data_trace_near_target(self, name):
        profile = get_profile(name)
        trace = data_trace(profile, 15000)
        measured = in_sequence_fraction(trace.addresses, 4)
        assert measured == pytest.approx(profile.data_in_seq, abs=0.05)

    def test_multiplexed_trace_structure(self):
        trace = multiplexed_trace(get_profile("gzip"), 4000)
        assert trace.sels is not None
        data_share = 1 - sum(trace.sels) / len(trace.sels)
        assert 0.2 < data_share < 0.55
        per_type = per_type_in_sequence_fraction(trace.addresses, trace.sels, 4)
        raw = in_sequence_fraction(trace.addresses, 4)
        assert per_type > raw  # splitting by type recovers sequentiality

    def test_default_lengths_from_profile(self):
        profile = get_profile("gzip")
        trace = instruction_trace(profile)
        assert len(trace) == profile.instruction_length

    def test_all_traces(self):
        traces = all_traces("instruction", 500)
        assert len(traces) == 9
        assert {t.name.split(".")[0] for t in traces} == set(BENCHMARK_NAMES)
        with pytest.raises(ValueError):
            all_traces("bogus")

    def test_traces_are_deterministic(self):
        first = instruction_trace(get_profile("latex"), 1000).addresses
        second = instruction_trace(get_profile("latex"), 1000).addresses
        assert first == second
