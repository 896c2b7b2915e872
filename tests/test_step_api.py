"""Stepping a codec: one cycle or one chunk at a time, on copied instances.

A codec end is a small register machine: ``encode``/``decode`` advance it
by one clock cycle in place, and all of its registers live on the
instance.  :func:`repro.analysis.contracts.explore_state_space` relies on
that: it branches the joint encoder/decoder state with ``copy.deepcopy``
and steps each copy by one cycle.  These tests lock the property for every
registered codec, every chunk size and every sel pattern: an instance
copied at any cycle boundary resumes bit-identically to the uncut
``encode_stream``/``decode_stream`` run.
"""

from __future__ import annotations

import copy

import pytest

from repro.core import available_codecs, make_codec
from repro.core.base import SEL_DATA, SEL_INSTRUCTION

from tests.conftest import make_mixed_stream

CHUNK_SIZES = (1, 7, 1024)

SEL_PATTERNS = {
    "mixed": None,  # the stream's own instruction/data mix
    "all-instruction": SEL_INSTRUCTION,
    "all-data": SEL_DATA,
}


def _stream(pattern: str, length: int = 300, seed: int = 5):
    addresses, sels = make_mixed_stream(length=length, seed=seed)
    fill = SEL_PATTERNS[pattern]
    if fill is not None:
        sels = [fill] * length
    return addresses, sels


def _codec(name: str, width: int = 32):
    if name == "beach":
        addresses, _ = _stream("mixed")
        return make_codec(name, width, training=addresses[:100])
    return make_codec(name, width)


#: Every registered codec, the trained beach code included.
ALL_CODECS = available_codecs()


class TestStepEquivalence:
    @pytest.mark.parametrize("name", ALL_CODECS)
    def test_single_step_matches_encode(self, name):
        addresses, sels = _stream("mixed")
        codec = _codec(name)
        reference = codec.make_encoder().encode_stream(addresses, sels)
        encoder = codec.make_encoder()
        encoder.reset()
        words = []
        for address, sel in zip(addresses, sels):
            # Every cycle runs on a copy of the previous cycle's encoder,
            # the branch explore_state_space takes at each reachable state.
            encoder = copy.deepcopy(encoder)
            words.append(encoder.encode(address, sel))
        assert words == reference

    @pytest.mark.parametrize("name", ALL_CODECS)
    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    @pytest.mark.parametrize("pattern", sorted(SEL_PATTERNS))
    def test_chunked_matches_unchunked(self, name, chunk_size, pattern):
        addresses, sels = _stream(pattern)
        codec = _codec(name)
        reference = codec.make_encoder().encode_stream(addresses, sels)
        encoder = codec.make_encoder()
        encoder.reset()
        words = []
        for start in range(0, len(addresses), chunk_size):
            encoder = copy.deepcopy(encoder)
            words.extend(
                encoder.encode(address, sel)
                for address, sel in zip(
                    addresses[start : start + chunk_size],
                    sels[start : start + chunk_size],
                )
            )
        assert words == reference

    @pytest.mark.parametrize("name", ALL_CODECS)
    def test_decoder_step_stream_roundtrips(self, name):
        addresses, sels = _stream("mixed")
        codec = _codec(name)
        words = codec.make_encoder().encode_stream(addresses, sels)
        decoder = codec.make_decoder()
        decoder.reset()
        decoded = []
        for start in range(0, len(words), 13):
            decoder = copy.deepcopy(decoder)
            decoded.extend(
                decoder.decode(word, sel)
                for word, sel in zip(
                    words[start : start + 13], sels[start : start + 13]
                )
            )
        assert decoded == addresses
