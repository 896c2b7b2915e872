"""Tests for Dinero trace I/O, DMA streams, fast metrics and new stats."""

import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.word import EncodedWord
from repro.metrics import (
    count_transitions,
    count_transitions_fast,
    in_sequence_fraction,
    in_sequence_fraction_fast,
)
from repro.tracegen import (
    dma_stream,
    get_profile,
    load_dinero,
    multiplexed_trace,
    save_dinero,
)

streams = st.lists(
    st.integers(min_value=0, max_value=2**32 - 1), min_size=0, max_size=200
)


class TestDinero:
    def test_roundtrip(self, tmp_path):
        trace = multiplexed_trace(get_profile("gzip"), 500)
        path = tmp_path / "gzip.din"
        save_dinero(trace, path)
        loaded = load_dinero(path)
        assert loaded.addresses == trace.addresses
        assert loaded.sels == trace.sels
        assert loaded.kind == "multiplexed"

    def test_parses_handwritten_file(self, tmp_path):
        path = tmp_path / "hand.din"
        path.write_text(
            "# a comment\n"
            "2 400000\n"
            "0 7fffe000\n"
            "1 10010000\n"
            "\n"
            "2 400004\n"
        )
        trace = load_dinero(path)
        assert trace.addresses == (0x400000, 0x7FFFE000, 0x10010000, 0x400004)
        assert trace.sels == (1, 0, 0, 1)

    @pytest.mark.parametrize(
        "content,message",
        [
            ("2\n", "expected"),
            ("9 400000\n", "unknown Dinero label"),
            ("x 400000\n", "invalid literal"),
            ("", "no accesses"),
        ],
    )
    def test_errors(self, tmp_path, content, message):
        path = tmp_path / "bad.din"
        path.write_text(content)
        with pytest.raises(ValueError, match=message):
            load_dinero(path)

    def test_width_masking(self, tmp_path):
        path = tmp_path / "wide.din"
        path.write_text("2 1ffffffff\n")
        trace = load_dinero(path, width=32)
        assert trace.addresses == (0xFFFFFFFF,)


class TestDmaStream:
    def test_highly_sequential(self):
        trace = dma_stream(5000, seed=1)
        assert in_sequence_fraction(trace.addresses, 4) > 0.85

    def test_t0_thrives_on_dma(self):
        from repro.core import make_codec
        from repro.metrics import count_transitions

        trace = dma_stream(3000, seed=2)
        t0 = make_codec("t0", 32).make_encoder().encode_stream(trace.addresses)
        binary = make_codec("binary", 32).make_encoder().encode_stream(trace.addresses)
        assert (
            count_transitions(t0, width=32).total
            < 0.2 * count_transitions(binary, width=32).total
        )

    def test_exact_length_and_determinism(self):
        assert len(dma_stream(777, seed=3)) == 777
        assert dma_stream(300, seed=4).addresses == dma_stream(300, seed=4).addresses


class TestFastMetrics:
    @given(streams, st.sampled_from([1, 4, 8]))
    def test_in_sequence_matches_scalar(self, values, stride):
        fast = in_sequence_fraction_fast(values, stride)
        scalar = in_sequence_fraction(values, stride)
        assert fast == pytest.approx(scalar)

    @pytest.mark.parametrize("width", [1, 8, 32, 63, 64, 80])
    def test_count_transitions_fast_matches_scalar(self, width):
        # One redundant line: 64 lines at width 63 is the widest packed
        # stream, 65 at width 64 already goes to the scalar oracle.
        rng = random.Random(width)
        words = [
            EncodedWord(rng.getrandbits(width), (rng.getrandbits(1),))
            for _ in range(100)
        ]
        initial = EncodedWord(0, (0,))
        assert count_transitions_fast(words, width) == count_transitions(
            words, width
        )
        assert count_transitions_fast(
            words, width, initial=initial
        ) == count_transitions(words, width, initial=initial)

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            in_sequence_fraction_fast(np.zeros((2, 2), dtype=np.uint64))
