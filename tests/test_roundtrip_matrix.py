"""Roundtrip matrix: every codec × widths {1, 4, 8, 32} × three stream shapes.

Uses :func:`repro.analysis.small_width_params` so codecs whose registry
defaults target 32-bit buses still build at the narrow widths.  ``mtf`` is
structurally impossible below 3 bits and is skipped there.
"""

import random

import pytest

from repro.analysis import small_width_params
from repro.core.base import decode_stream, encode_stream, verify_roundtrip
from repro.core.registry import available_codecs, make_codec

WIDTHS = [1, 4, 8, 32]


def _random_stream(width, length=200, seed=0):
    rng = random.Random(seed)
    mask = (1 << width) - 1
    addresses = [rng.randrange(mask + 1) for _ in range(length)]
    sels = [rng.randrange(2) for _ in range(length)]
    return addresses, sels


def _sequential_stream(width, length=200):
    mask = (1 << width) - 1
    addresses = [i & mask for i in range(length)]
    sels = [1] * length
    return addresses, sels


def _sel_toggling_stream(width, length=200, seed=1):
    """Alternating instruction/data slots with per-slot locality — the
    multiplexed-bus pattern the dual codes are built for."""
    rng = random.Random(seed)
    mask = (1 << width) - 1
    instruction = 0
    data = mask // 2
    addresses, sels = [], []
    for cycle in range(length):
        if cycle % 2 == 0:
            instruction = (instruction + 1) & mask
            addresses.append(instruction)
            sels.append(1)
        else:
            if rng.random() < 0.3:
                data = rng.randrange(mask + 1)
            addresses.append(data)
            sels.append(0)
    return addresses, sels


STREAMS = {
    "random": _random_stream,
    "sequential": _sequential_stream,
    "sel-toggling": _sel_toggling_stream,
}


@pytest.mark.parametrize("stream_kind", sorted(STREAMS))
@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("name", available_codecs())
def test_roundtrip(name, width, stream_kind):
    params = small_width_params(name, width)
    if params is None:
        pytest.skip(f"{name} is not constructible at width {width}")
    codec = make_codec(name, width, **params)
    addresses, sels = STREAMS[stream_kind](width)
    # verify_roundtrip raises RoundTripError on the first lost address.
    words = verify_roundtrip(codec, addresses, sels)
    assert len(words) == len(addresses)


@pytest.mark.parametrize("name", available_codecs())
def test_fresh_instances_are_independent(name):
    """Two encoders from one codec do not share state."""
    width = 8
    codec = make_codec(name, width, **small_width_params(name, width))
    first = codec.make_encoder()
    second = codec.make_encoder()
    addresses, sels = _random_stream(width, length=50, seed=7)
    words_first = [first.encode(a, s) for a, s in zip(addresses, sels)]
    words_second = [second.encode(a, s) for a, s in zip(addresses, sels)]
    assert words_first == words_second


class TestStreamLengthValidation:
    def test_encode_stream_rejects_mismatched_lengths(self):
        codec = make_codec("t0", 32)
        with pytest.raises(ValueError, match="3.*2|addresses length"):
            encode_stream(codec, [0, 4, 8], [1, 1])

    def test_decode_stream_rejects_mismatched_lengths(self):
        codec = make_codec("t0", 32)
        words = encode_stream(codec, [0, 4, 8], [1, 1, 1])
        with pytest.raises(ValueError, match="words length 3 != sels length 1"):
            decode_stream(codec, words, [1])

    def test_error_reports_both_lengths(self):
        codec = make_codec("gray", 32)
        with pytest.raises(
            ValueError, match="addresses length 4 != sels length 2"
        ):
            encode_stream(codec, [0, 4, 8, 12], [1, 0])
