"""Tests for the bus-invert code (paper Section 2.1)."""

import math
import random

from hypothesis import given
from hypothesis import strategies as st

from repro.core import BusInvertEncoder, make_codec, verify_roundtrip
from repro.core.word import hamming
from repro.metrics import count_transitions

addresses = st.lists(
    st.integers(min_value=0, max_value=2**32 - 1), min_size=1, max_size=200
)


class TestBusInvertMechanics:
    def test_first_word_not_inverted_for_light_address(self):
        encoder = BusInvertEncoder(32)
        word = encoder.encode(0x0000000F)  # H = 4 <= 16 from all-zero state
        assert word.extras == (0,)
        assert word.bus == 0x0000000F

    def test_first_word_inverted_for_heavy_address(self):
        encoder = BusInvertEncoder(32)
        word = encoder.encode(0xFFFFFF00)  # H = 24 > 16
        assert word.extras == (1,)
        assert word.bus == 0x000000FF

    def test_threshold_boundary_exact_half_not_inverted(self):
        """The paper's equation: invert strictly when H > N/2."""
        encoder = BusInvertEncoder(32)
        word = encoder.encode(0x0000FFFF)  # H = 16 == N/2 exactly
        assert word.extras == (0,)

    def test_threshold_boundary_half_plus_one_inverted(self):
        encoder = BusInvertEncoder(32)
        word = encoder.encode(0x0001FFFF)  # H = 17 > 16
        assert word.extras == (1,)

    def test_inv_line_counts_in_hamming(self):
        """After an inversion, the asserted INV contributes to the next H."""
        encoder = BusInvertEncoder(4)
        first = encoder.encode(0b1110)  # H = 3 > 2 -> inverted, bus=0001, INV=1
        assert first.extras == (1,)
        # Candidate 0b0001 vs state (0001 | INV=1): H = 0 + 1 = 1 <= 2.
        second = encoder.encode(0b0001)
        assert second.extras == (0,)

    def test_reset_restores_power_up_state(self):
        encoder = BusInvertEncoder(32)
        encoder.encode(0xFFFFFFFF)
        encoder.reset()
        word = encoder.encode(0x1)
        assert word.extras == (0,)


class TestBusInvertGuarantee:
    @given(addresses)
    def test_roundtrip(self, stream):
        verify_roundtrip(make_codec("bus-invert", 32), stream)

    @given(addresses)
    def test_per_cycle_transitions_bounded(self, stream):
        """The defining property: at most ceil((N+1)/2) wires toggle."""
        codec = make_codec("bus-invert", 32)
        words = codec.make_encoder().encode_stream(stream)
        for prev, cur in zip(words, words[1:]):
            assert hamming(prev.packed(32), cur.packed(32)) <= (32 + 1 + 1) // 2

    def test_random_stream_close_to_lambda(self):
        """Empirical average within a few percent of Equation 5."""
        from repro.power.analytical import bus_invert_random_transitions

        rng = random.Random(42)
        stream = [rng.randrange(1 << 32) for _ in range(6000)]
        words = make_codec("bus-invert", 32).make_encoder().encode_stream(stream)
        report = count_transitions(words, width=32)
        expected = bus_invert_random_transitions(32)
        assert math.isclose(report.per_cycle, expected, rel_tol=0.03)

    def test_never_worse_than_binary_on_random(self):
        rng = random.Random(7)
        stream = [rng.randrange(1 << 32) for _ in range(2000)]
        bi_words = make_codec("bus-invert", 32).make_encoder().encode_stream(stream)
        bi_total = count_transitions(bi_words, width=32).total
        binary_total = sum(hamming(a, b) for a, b in zip(stream, stream[1:]))
        assert bi_total <= binary_total
