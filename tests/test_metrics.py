"""Tests for transition counting and stream statistics."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.word import EncodedWord, hamming
from repro.metrics import (
    binary_transitions,
    count_transitions,
    in_sequence_fraction,
    mean_jump_hamming,
    per_type_in_sequence_fraction,
    run_length_histogram,
    stream_statistics,
)


def words(*values):
    return [EncodedWord(v) for v in values]


class TestCountTransitions:
    def test_empty_stream(self):
        report = count_transitions([])
        assert report.total == 0
        assert report.cycles == 0
        assert report.per_cycle == 0.0

    def test_single_word_counts_nothing(self):
        report = count_transitions(words(0xFF), width=8)
        assert report.total == 0
        assert report.cycles == 0

    def test_known_sequence(self):
        report = count_transitions(words(0b0000, 0b0011, 0b0110), width=4)
        assert report.total == 2 + 2
        assert report.cycles == 2
        assert report.per_cycle == 2.0

    def test_per_line_attribution(self):
        report = count_transitions(words(0b00, 0b01, 0b11, 0b10), width=2)
        # line 0: 0->1->1->0 = 2 toggles; line 1: 0->0->1->1 = 1 toggle.
        assert report.per_line == (2, 1)
        assert report.total == 3

    def test_extras_counted_separately(self):
        stream = [EncodedWord(0b01, (0,)), EncodedWord(0b01, (1,))]
        report = count_transitions(stream, width=2)
        assert report.bus_transitions == 0
        assert report.extra_transitions == 1
        assert report.per_line == (0, 0, 1)

    def test_initial_word_adds_a_cycle(self):
        stream = words(0b1111)
        report = count_transitions(stream, width=4, initial=EncodedWord(0))
        assert report.total == 4
        assert report.cycles == 1

    def test_inconsistent_extras_rejected(self):
        stream = [EncodedWord(0, (1,)), EncodedWord(0)]
        with pytest.raises(ValueError):
            count_transitions(stream, width=4)

    def test_per_line_per_cycle(self):
        report = count_transitions(words(0b00, 0b11), width=2)
        assert report.per_line_per_cycle == 1.0

    @given(
        st.lists(st.integers(min_value=0, max_value=2**16 - 1), min_size=2, max_size=60)
    )
    def test_total_equals_sum_of_per_line(self, values):
        report = count_transitions(words(*values), width=16)
        assert report.total == sum(report.per_line)

    @given(
        st.lists(st.integers(min_value=0, max_value=2**16 - 1), min_size=2, max_size=60)
    )
    def test_matches_profile_and_fast_path(self, values):
        report = count_transitions(words(*values), width=16)
        stream = words(*values)
        assert report.total == sum(
            hamming(prev.packed(16), cur.packed(16))
            for prev, cur in zip(stream, stream[1:])
        )
        assert report.total == binary_transitions(values)


class TestStreamStatistics:
    def test_in_sequence_fraction(self):
        stream = [0, 4, 8, 100, 104]
        assert in_sequence_fraction(stream, stride=4) == pytest.approx(3 / 4)

    def test_in_sequence_short_stream(self):
        assert in_sequence_fraction([42], stride=4) == 0.0
        assert in_sequence_fraction([], stride=4) == 0.0

    def test_per_type_fraction(self):
        # I: 0, 4, 8 (both steps sequential); D: 100, 96 (not sequential).
        addresses = [0, 100, 4, 96, 8]
        sels = [1, 0, 1, 0, 1]
        assert per_type_in_sequence_fraction(addresses, sels, stride=4) == (
            pytest.approx(2 / 3)
        )

    def test_run_length_histogram(self):
        stream = [0, 4, 8, 100, 200, 204]
        histogram = run_length_histogram(stream, stride=4)
        assert histogram == {3: 1, 1: 1, 2: 1}

    def test_mean_jump_hamming(self):
        stream = [0b0000, 0b0100, 0b0111]  # +4 (in-seq), then a 2-bit jump
        assert mean_jump_hamming(stream, stride=4) == 2.0

    def test_mean_jump_hamming_all_sequential(self):
        assert mean_jump_hamming([0, 4, 8], stride=4) == 0.0

    def test_stream_statistics_summary(self):
        stats = stream_statistics([0, 4, 8, 100], stride=4)
        assert stats.length == 4
        assert stats.in_sequence == pytest.approx(2 / 3)
        assert stats.unique_addresses == 4
        assert stats.address_span == 100

    def test_stream_statistics_empty(self):
        stats = stream_statistics([], stride=4)
        assert stats.length == 0
        assert stats.in_sequence == 0.0

    @given(
        st.lists(st.integers(min_value=0, max_value=2**20), min_size=2, max_size=80),
        st.sampled_from([1, 2, 4, 8]),
    )
    def test_histogram_accounts_every_address(self, stream, stride):
        histogram = run_length_histogram(stream, stride)
        assert sum(length * count for length, count in histogram.items()) == len(stream)

    @given(
        st.lists(st.integers(min_value=0, max_value=2**20), min_size=2, max_size=80)
    )
    def test_in_sequence_consistent_with_histogram(self, stream):
        fraction = in_sequence_fraction(stream, stride=4)
        histogram = run_length_histogram(stream, stride=4)
        sequential_steps = sum(
            (length - 1) * count for length, count in histogram.items()
        )
        assert fraction == pytest.approx(sequential_steps / (len(stream) - 1))
