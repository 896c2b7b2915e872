"""Tests for the codec registry and the stream helpers."""

import pytest

from repro.core import (
    Codec,
    RoundTripError,
    available_codecs,
    decode_stream,
    encode_stream,
    make_codec,
    register_codec,
    verify_roundtrip,
)
from repro.core.binary import BinaryDecoder, BinaryEncoder
from repro.core.word import EncodedWord

from tests.conftest import ALL_SIMPLE_CODECS


class TestRegistry:
    def test_all_expected_codecs_registered(self):
        names = available_codecs()
        for expected in (
            "binary",
            "gray",
            "bus-invert",
            "t0",
            "t0bi",
            "dualt0",
            "dualt0bi",
            "offset",
            "inc-xor",
            "wze",
            "beach",
        ):
            assert expected in names

    def test_unbuildable_params_raise_at_make_codec(self):
        with pytest.raises(ValueError, match="cannot split 3 lines"):
            make_codec("pbi", 3)

    def test_unknown_codec_raises_with_listing(self):
        with pytest.raises(KeyError, match="binary"):
            make_codec("nonsense")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            register_codec("binary", BinaryEncoder)(lambda width: None)  # type: ignore[arg-type]

    def test_params_recorded(self):
        codec = make_codec("t0", 32, stride=8)
        assert codec.params == {"stride": 8}

    def test_fresh_instances_per_factory_call(self):
        codec = make_codec("t0", 32)
        one = codec.make_encoder()
        two = codec.make_encoder()
        one.encode(0x1000)
        # `two` must not share state with `one`.
        assert two.encode(0x1004).extras == (0,)

    def test_extra_lines_property(self):
        assert make_codec("binary", 32).extra_lines == ()
        assert make_codec("t0bi", 32).extra_lines == ("INC", "INV")


class TestStreamHelpers:
    def test_encode_decode_stream(self):
        codec = make_codec("t0", 32)
        stream = [0x100, 0x104, 0x108, 0x200]
        words = encode_stream(codec, stream)
        assert decode_stream(codec, words) == stream

    def test_verify_roundtrip_detects_corruption(self):
        broken = Codec(
            name="broken",
            width=32,
            encoder_factory=lambda: BinaryEncoder(32),
            decoder_factory=lambda: _OffByOneDecoder(32),
        )
        with pytest.raises(RoundTripError) as excinfo:
            verify_roundtrip(broken, [1, 2, 3])
        assert excinfo.value.codec_name == "broken"
        assert excinfo.value.index == 0

    def test_encoders_validate_width(self):
        with pytest.raises(ValueError):
            BinaryEncoder(0)

    def test_codec_repr_mentions_params(self):
        codec = make_codec("t0", 32, stride=8)
        assert "stride=8" in repr(codec)


class _OffByOneDecoder(BinaryDecoder):
    def decode(self, word: EncodedWord, sel: int = 1) -> int:
        return (super().decode(word, sel) + 1) & 0xFFFFFFFF


def _codec(name: str, width: int = 32):
    return make_codec(name, width)


class TestExtraLines:
    @pytest.mark.parametrize("name", ALL_SIMPLE_CODECS)
    def test_matches_encoder_instance(self, name):
        codec = _codec(name)
        assert codec.extra_lines == tuple(codec.make_encoder().extra_lines)

    def test_pbi_partition_dependent_lines(self):
        assert make_codec("pbi", 32, partitions=2).extra_lines == (
            "INV0",
            "INV1",
        )
        assert make_codec("pbi", 32, partitions=4).extra_lines == (
            "INV0",
            "INV1",
            "INV2",
            "INV3",
        )

    def test_property_does_not_rebuild_encoders(self):
        codec = make_codec("t0", 32)
        built = []
        original = codec.encoder_factory
        codec.encoder_factory = lambda: built.append(1) or original()
        assert codec.extra_lines == ("INC",)
        assert codec.extra_lines == ("INC",)
        assert built == []  # class-declared lines: no instance ever built

    def test_property_caches_instance_probe(self):
        codec = make_codec("pbi", 32, partitions=2)
        built = []
        original = codec.encoder_factory
        codec.encoder_factory = lambda: built.append(1) or original()
        assert codec.extra_lines == ("INV0", "INV1")
        assert codec.extra_lines == ("INV0", "INV1")
        assert len(built) == 1  # instance-declared lines: probed once
