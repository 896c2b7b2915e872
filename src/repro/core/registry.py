"""Codec registry: build any of the implemented codes by name.

``make_codec(name, width, **params)`` is the package's main factory.  Names:

=============  ==========================================================
``binary``     plain binary (the savings baseline)
``gray``       Gray code, ``stride`` selects the byte-addressable variant
``bus-invert`` Stan & Burleson bus-invert
``t0``         T0 asymptotic zero-transition code, parametric ``stride``
``t0bi``       T0 + bus-invert mixed code (paper Section 3.1)
``dualt0``     SEL-gated T0 for multiplexed buses (Section 3.2)
``dualt0bi``   SEL-gated T0 + bus-invert, shared INCV line (Section 3.3)
``pbi``        partitioned bus-invert, one INV wire per sub-bus (extension)
``mtf``        adaptive self-organizing sector list, one HIT wire (extension)
``offset``     irredundant modular-difference code (extension)
``inc-xor``    irredundant transition-signalled prediction XOR (extension)
``wze``        simplified working-zone encoding (extension)
``beach``      Beach-style trained code — pass ``training`` addresses
=============  ==========================================================
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

from repro.core.base import Codec
from repro.core.beach import BeachDecoder, BeachEncoder, train_beach_code
from repro.core.binary import BinaryDecoder, BinaryEncoder
from repro.core.businvert import BusInvertDecoder, BusInvertEncoder
from repro.core.dualt0 import DualT0Decoder, DualT0Encoder
from repro.core.dualt0bi import DualT0BIDecoder, DualT0BIEncoder
from repro.core.gray import GrayDecoder, GrayEncoder
from repro.core.mtf import MtfDecoder, MtfEncoder
from repro.core.partitioned import (
    PartitionedBusInvertDecoder,
    PartitionedBusInvertEncoder,
)
from repro.core.t0 import T0Decoder, T0Encoder
from repro.core.t0bi import T0BIDecoder, T0BIEncoder
from repro.core.wze import WorkingZoneDecoder, WorkingZoneEncoder
from repro.core.xor import (
    IncXorDecoder,
    IncXorEncoder,
    OffsetDecoder,
    OffsetEncoder,
)

CodecBuilder = Callable[..., Codec]

#: Codecs built from stream data (``training=``): no command can build
#: them from a name and command-line flags alone.
TRAINED_CODECS = ("beach",)

#: Name -> (builder, encoder class).  The encoder class is recorded at
#: registration so a name resolves to its defining module without
#: building (for a trained code, training) anything.
_REGISTRY: Dict[str, Tuple[CodecBuilder, type]] = {}


def register_codec(
    name: str, encoder_cls: type
) -> Callable[[CodecBuilder], CodecBuilder]:
    """Decorator adding a codec builder, and its encoder class, to the
    registry."""

    def decorator(builder: CodecBuilder) -> CodecBuilder:
        if name in _REGISTRY:
            raise ValueError(f"codec {name!r} registered twice")
        _REGISTRY[name] = (builder, encoder_cls)
        return builder

    return decorator


def available_codecs() -> List[str]:
    """Sorted names of all registered codecs."""
    return sorted(_REGISTRY)


def _entry(name: str) -> Tuple[CodecBuilder, type]:
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(available_codecs())
        raise KeyError(f"unknown codec {name!r}; available: {known}") from None


def encoder_class(name: str) -> type:
    """The encoder class registered under ``name`` (``KeyError`` for a
    name the registry does not know)."""
    return _entry(name)[1]


def make_codec(name: str, width: int = 32, **params: object) -> Codec:
    """Build a fresh :class:`~repro.core.base.Codec` by registry name.

    One encoder and one decoder are built and discarded before returning,
    so a width/parameter combination the codec cannot realise (``pbi``
    with more partitions than lines) raises ``ValueError`` here rather
    than at the first encode.
    """
    builder, encoder_cls = _entry(name)
    codec = builder(width=width, **params)
    codec.encoder_cls = encoder_cls
    codec.make_encoder()
    codec.make_decoder()
    return codec


@register_codec("binary", BinaryEncoder)
def _binary(width: int) -> Codec:
    return Codec(
        name="binary",
        width=width,
        encoder_factory=lambda: BinaryEncoder(width),
        decoder_factory=lambda: BinaryDecoder(width),
    )


@register_codec("gray", GrayEncoder)
def _gray(width: int, stride: int = 1) -> Codec:
    return Codec(
        name="gray",
        width=width,
        encoder_factory=lambda: GrayEncoder(width, stride),
        decoder_factory=lambda: GrayDecoder(width, stride),
        params={"stride": stride},
    )


@register_codec("bus-invert", BusInvertEncoder)
def _bus_invert(width: int) -> Codec:
    return Codec(
        name="bus-invert",
        width=width,
        encoder_factory=lambda: BusInvertEncoder(width),
        decoder_factory=lambda: BusInvertDecoder(width),
    )


@register_codec("t0", T0Encoder)
def _t0(width: int, stride: int = 4) -> Codec:
    return Codec(
        name="t0",
        width=width,
        encoder_factory=lambda: T0Encoder(width, stride),
        decoder_factory=lambda: T0Decoder(width, stride),
        params={"stride": stride},
    )


@register_codec("t0bi", T0BIEncoder)
def _t0bi(width: int, stride: int = 4) -> Codec:
    return Codec(
        name="t0bi",
        width=width,
        encoder_factory=lambda: T0BIEncoder(width, stride),
        decoder_factory=lambda: T0BIDecoder(width, stride),
        params={"stride": stride},
    )


@register_codec("dualt0", DualT0Encoder)
def _dualt0(width: int, stride: int = 4) -> Codec:
    return Codec(
        name="dualt0",
        width=width,
        encoder_factory=lambda: DualT0Encoder(width, stride),
        decoder_factory=lambda: DualT0Decoder(width, stride),
        params={"stride": stride},
    )


@register_codec("dualt0bi", DualT0BIEncoder)
def _dualt0bi(width: int, stride: int = 4) -> Codec:
    return Codec(
        name="dualt0bi",
        width=width,
        encoder_factory=lambda: DualT0BIEncoder(width, stride),
        decoder_factory=lambda: DualT0BIDecoder(width, stride),
        params={"stride": stride},
    )


@register_codec("mtf", MtfEncoder)
def _mtf(width: int, offset_bits: int = 12, sectors: int = 8) -> Codec:
    return Codec(
        name="mtf",
        width=width,
        encoder_factory=lambda: MtfEncoder(width, offset_bits, sectors),
        decoder_factory=lambda: MtfDecoder(width, offset_bits, sectors),
        params={"offset_bits": offset_bits, "sectors": sectors},
    )


@register_codec("pbi", PartitionedBusInvertEncoder)
def _partitioned_bus_invert(width: int, partitions: int = 4) -> Codec:
    return Codec(
        name="pbi",
        width=width,
        encoder_factory=lambda: PartitionedBusInvertEncoder(width, partitions),
        decoder_factory=lambda: PartitionedBusInvertDecoder(width, partitions),
        params={"partitions": partitions},
    )


@register_codec("offset", OffsetEncoder)
def _offset(width: int) -> Codec:
    return Codec(
        name="offset",
        width=width,
        encoder_factory=lambda: OffsetEncoder(width),
        decoder_factory=lambda: OffsetDecoder(width),
    )


@register_codec("inc-xor", IncXorEncoder)
def _inc_xor(width: int, stride: int = 4) -> Codec:
    return Codec(
        name="inc-xor",
        width=width,
        encoder_factory=lambda: IncXorEncoder(width, stride),
        decoder_factory=lambda: IncXorDecoder(width, stride),
        params={"stride": stride},
    )


@register_codec("wze", WorkingZoneEncoder)
def _wze(width: int, zones: int = 4, stride: int = 4) -> Codec:
    return Codec(
        name="wze",
        width=width,
        encoder_factory=lambda: WorkingZoneEncoder(width, zones, stride),
        decoder_factory=lambda: WorkingZoneDecoder(width, zones, stride),
        params={"zones": zones, "stride": stride},
    )


@register_codec("beach", BeachEncoder)
def _beach(
    width: int,
    training: Sequence[int] = (),
    cluster_size: int = 4,
    seed: int = 0,
) -> Codec:
    if len(training) < 2:
        raise ValueError(
            "the beach codec is stream-adaptive: pass training=<address list>"
        )
    # The training stream is a param like any other: it keys the code's
    # cache entries and lets a worker retrain the same code by name.
    training = tuple(int(address) for address in training)
    code = train_beach_code(
        training, width=width, cluster_size=cluster_size, seed=seed
    )
    return Codec(
        name="beach",
        width=width,
        encoder_factory=lambda: BeachEncoder(width, code),
        decoder_factory=lambda: BeachDecoder(width, code),
        params={
            "training": training,
            "cluster_size": cluster_size,
            "seed": seed,
        },
    )
