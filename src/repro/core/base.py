"""Encoder/decoder base classes and stream helpers.

The paper's codes are *stateful*: both ends of the bus keep small registers
(the previous address, the previous encoded word) and must stay in lock-step.
That contract is mutable and per cycle: ``reset()`` returns a codec end to
its power-up state, and ``encode(address, sel)`` / ``decode(word, sel)``
advance it by one clock cycle in place.  ``encode_stream``/``decode_stream``
run a whole stream from reset; they are the reference every faster path
(the columnar kernels, the gate-level circuits) is tested against.

``sel`` is the instruction/data select signal of a multiplexed address bus
(``1`` = instruction slot, ``0`` = data slot).  It is *already present* on a
multiplexed bus regardless of the encoding, so it is not counted as a
redundant line; codes that ignore it (binary, Gray, bus-invert, plain T0)
simply do not read it.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.word import EncodedWord, mask
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span as obs_span

#: Select-line value marking an instruction slot on a multiplexed bus.
SEL_INSTRUCTION = 1
#: Select-line value marking a data slot on a multiplexed bus.
SEL_DATA = 0


def _paired_streams(
    first: Iterable[Any], second: Iterable[Any], first_name: str, second_name: str
) -> Tuple[List[Any], List[Any]]:
    """Materialize two parallel streams, rejecting length mismatches.

    ``zip`` would silently truncate to the shorter stream — a lost bus
    cycle that corrupts every downstream transition count — so mismatched
    lengths are an error, reported with both lengths.
    """
    first_list = list(first)
    second_list = list(second)
    if len(first_list) != len(second_list):
        raise ValueError(
            f"{first_name} length {len(first_list)} != "
            f"{second_name} length {len(second_list)}"
        )
    return first_list, second_list


class BusEncoder(abc.ABC):
    """Transforms an address stream into an encoded bus-word stream.

    Parameters
    ----------
    width:
        Number of address lines ``N``.
    """

    #: Names of the code's redundant lines, in ``EncodedWord.extras`` order.
    extra_lines: Tuple[str, ...] = ()

    def __init__(self, width: int):
        if width <= 0:
            raise ValueError(f"bus width must be positive, got {width}")
        self.width = width
        self._mask = mask(width)

    @abc.abstractmethod
    def reset(self) -> None:
        """Return the encoder to its power-up state."""

    @abc.abstractmethod
    def encode(self, address: int, sel: int = SEL_INSTRUCTION) -> EncodedWord:
        """Encode one address; advances the encoder by one clock cycle."""

    def encode_stream(
        self, addresses: Iterable[int], sels: Optional[Iterable[int]] = None
    ) -> List[EncodedWord]:
        """Encode a whole stream (resets first)."""
        self.reset()
        if sels is None:
            return [self.encode(address) for address in addresses]
        addresses, sels = _paired_streams(addresses, sels, "addresses", "sels")
        return [
            self.encode(address, sel) for address, sel in zip(addresses, sels)
        ]

    def _check_address(self, address: int) -> int:
        if address < 0:
            raise ValueError(f"address must be non-negative, got {address}")
        if address > self._mask:
            raise ValueError(
                f"address {address:#x} does not fit on a {self.width}-bit bus"
            )
        return address


class BusDecoder(abc.ABC):
    """Recovers the address stream from the encoded bus-word stream."""

    def __init__(self, width: int):
        if width <= 0:
            raise ValueError(f"bus width must be positive, got {width}")
        self.width = width
        self._mask = mask(width)

    @abc.abstractmethod
    def reset(self) -> None:
        """Return the decoder to its power-up state."""

    @abc.abstractmethod
    def decode(self, word: EncodedWord, sel: int = SEL_INSTRUCTION) -> int:
        """Decode one bus word; advances the decoder by one clock cycle."""

    def decode_stream(
        self, words: Iterable[EncodedWord], sels: Optional[Iterable[int]] = None
    ) -> List[int]:
        """Decode a whole stream (resets first)."""
        self.reset()
        if sels is None:
            return [self.decode(word) for word in words]
        words, sels = _paired_streams(words, sels, "words", "sels")
        return [self.decode(word, sel) for word, sel in zip(words, sels)]


@dataclass
class Codec:
    """A named encoder/decoder pair factory.

    ``make_encoder()`` / ``make_decoder()`` build fresh, reset instances so a
    single :class:`Codec` can serve many streams concurrently.
    """

    name: str
    width: int
    encoder_factory: Callable[[], BusEncoder]
    decoder_factory: Callable[[], BusDecoder]
    params: Dict[str, object] = field(default_factory=dict)
    encoder_cls: Optional[type] = None
    _extra_lines_cache: Optional[Tuple[str, ...]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def make_encoder(self) -> BusEncoder:
        return self.encoder_factory()

    def make_decoder(self) -> BusDecoder:
        return self.decoder_factory()

    @property
    def extra_lines(self) -> Tuple[str, ...]:
        """Redundant line names added by this code (empty for irredundant codes).

        Read from the encoder *class* attribute when the class declares one;
        codes whose redundant-line count depends on construction parameters
        (e.g. partitioned bus-invert) set ``extra_lines`` per instance, so
        for those one encoder is built once and the answer cached — not
        rebuilt on every property access.
        """
        if self._extra_lines_cache is not None:
            return self._extra_lines_cache
        lines: Optional[Tuple[str, ...]] = None
        if self.encoder_cls is not None:
            for klass in type.mro(self.encoder_cls):
                if klass is BusEncoder:
                    # The base default () would shadow per-instance
                    # extra_lines (partitioned bus-invert); probe instead.
                    break
                declared = klass.__dict__.get("extra_lines")
                if isinstance(declared, tuple):
                    lines = declared
                    break
        if lines is None:
            lines = tuple(self.make_encoder().extra_lines)
        self._extra_lines_cache = lines
        return lines

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        extras = ", ".join(f"{k}={v}" for k, v in self.params.items())
        return f"Codec({self.name!r}, width={self.width}{', ' + extras if extras else ''})"


def _sized(stream: Optional[Iterable[Any]]) -> Any:
    """Materialize a stream once so its length can be read for the span.

    The encoder/decoder methods accept arbitrary iterables, but the obs
    span wants ``len()`` up front — a generator input must be drained
    here (exactly once), not crash on the length call.
    """
    if stream is None or hasattr(stream, "__len__"):
        return stream
    return list(stream)


def encode_stream(
    codec: Codec,
    addresses: Iterable[int],
    sels: Optional[Iterable[int]] = None,
) -> List[EncodedWord]:
    """Encode ``addresses`` with a fresh encoder from ``codec``."""
    addresses = _sized(addresses)
    sels = _sized(sels)
    with obs_span("encode", codec=codec.name, cycles=len(addresses)):
        words = codec.make_encoder().encode_stream(addresses, sels)
    obs_metrics.counter("core.encoded_words", codec=codec.name).inc(len(words))
    return words


def decode_stream(
    codec: Codec,
    words: Iterable[EncodedWord],
    sels: Optional[Iterable[int]] = None,
) -> List[int]:
    """Decode ``words`` with a fresh decoder from ``codec``."""
    words = _sized(words)
    sels = _sized(sels)
    with obs_span("decode", codec=codec.name, cycles=len(words)):
        decoded = codec.make_decoder().decode_stream(words, sels)
    obs_metrics.counter("core.decoded_words", codec=codec.name).inc(len(decoded))
    return decoded


def verify_roundtrip(
    codec: Codec,
    addresses: Sequence[int],
    sels: Optional[Sequence[int]] = None,
) -> List[EncodedWord]:
    """Encode ``addresses`` and verify the decoder recovers them exactly.

    Returns the encoded words; raises :class:`RoundTripError` on the first
    mismatch.  This is the correctness gate every code must pass — a bus code
    that loses addresses saves power by breaking the machine.
    """
    words = encode_stream(codec, addresses, sels)
    decoded = decode_stream(codec, words, sels)
    for index, (expected, actual) in enumerate(zip(addresses, decoded)):
        if expected != actual:
            raise RoundTripError(codec.name, index, expected, actual)
    return words


class RoundTripError(AssertionError):
    """Raised when decode(encode(stream)) does not reproduce the stream."""

    def __init__(self, codec_name: str, index: int, expected: int, actual: int):
        super().__init__(
            f"codec {codec_name!r} corrupted address #{index}: "
            f"expected {expected:#x}, decoded {actual:#x}"
        )
        self.codec_name = codec_name
        self.index = index
        self.expected = expected
        self.actual = actual
