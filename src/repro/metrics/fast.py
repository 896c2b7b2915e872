"""numpy-accelerated transition counting and stream statistics.

:func:`count_packed` is the one vectorised transition counter: every
:class:`~repro.metrics.transitions.TransitionReport` the engine cells and
the columnar kernels produce is a fold of packed uint64 words through it.
The scalar :func:`~repro.metrics.transitions.count_transitions` and
:func:`~repro.metrics.stats.in_sequence_fraction` are the oracles the
test suite checks this module against; they also count the streams wider
than 64 lines (:func:`_scalar_oracle`).
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from repro.core.word import EncodedWord
from repro.metrics.stats import in_sequence_fraction
from repro.metrics.transitions import TransitionReport, count_transitions

ArrayLike = Union[Sequence[int], np.ndarray]


def _as_u64(addresses: ArrayLike, width: Optional[int] = None) -> np.ndarray:
    """Convert an address stream to uint64, validating like the scalar path.

    A bare ``np.asarray(..., dtype=np.uint64)`` either wraps negative
    inputs silently or raises a numpy-version-dependent casting error;
    both diverge from the scalar encoders' ``_check_address``.  Negative
    and (with ``width``) too-wide addresses instead raise the same
    ``ValueError`` messages the scalar path produces, reporting the first
    offending value in stream order.
    """
    array = np.asarray(addresses)
    if array.dtype.kind == "f" and not isinstance(addresses, np.ndarray):
        # Python ints past 2**63 next to smaller ones widen to float64 and
        # lose their low bits; an object array keeps them exact.
        array = np.array(addresses, dtype=object)
    if array.ndim != 1:
        raise ValueError(f"expected a 1-D address array, got shape {array.shape}")
    if array.dtype == np.uint64:
        converted = array
    else:
        if array.size and array.dtype.kind in ("i", "f", "O"):
            negative = np.flatnonzero(array < 0)
            if negative.size:
                value = array[negative[0]]
                raise ValueError(
                    f"address must be non-negative, got {int(value)}"
                )
            if array.dtype.kind == "O":
                # Python ints past 64 bits would overflow the cast itself.
                wide = np.flatnonzero(array > (1 << 64) - 1)
                if wide.size:
                    value = int(array[wide[0]])
                    bits = width if width is not None else 64
                    raise ValueError(
                        f"address {value:#x} does not fit on a {bits}-bit bus"
                    )
        converted = array.astype(np.uint64)
    if width is not None and width < 64 and converted.size:
        limit = np.uint64((1 << width) - 1)
        wide = np.flatnonzero(converted > limit)
        if wide.size:
            value = int(converted[wide[0]])
            raise ValueError(
                f"address {value:#x} does not fit on a {width}-bit bus"
            )
    return converted


def _popcount(values: np.ndarray) -> np.ndarray:
    """Vectorised population count (SWAR, 64-bit)."""
    v = values.astype(np.uint64, copy=True)
    m1 = np.uint64(0x5555_5555_5555_5555)
    m2 = np.uint64(0x3333_3333_3333_3333)
    m4 = np.uint64(0x0F0F_0F0F_0F0F_0F0F)
    h01 = np.uint64(0x0101_0101_0101_0101)
    v = v - ((v >> np.uint64(1)) & m1)
    v = (v & m2) + ((v >> np.uint64(2)) & m2)
    v = (v + (v >> np.uint64(4))) & m4
    return ((v * h01) >> np.uint64(56)).astype(np.int64)


def _scalar_oracle(lines: int) -> bool:
    """Whether a stream of ``lines`` wires is counted by the scalar oracle.

    The one place the vectorised entry points choose the scalar oracle
    (:func:`~repro.metrics.transitions.count_transitions`,
    :func:`~repro.metrics.stats.in_sequence_fraction`) over the packed
    path: one uint64 holds at most 64 wires, so a wider stream has no
    packed form.  :func:`count_packed` itself never falls back; it raises.
    """
    return lines > 64


def _address_lines(addresses: ArrayLike) -> int:
    """Lines a bare address stream needs: its widest address's bit length
    (at most 64 for a numeric numpy array)."""
    if isinstance(addresses, np.ndarray) and addresses.dtype != object:
        return 64
    return int(max(addresses, default=0)).bit_length()


def in_sequence_fraction_fast(addresses: ArrayLike, stride: int = 4) -> float:
    """Vectorised :func:`repro.metrics.in_sequence_fraction` (identical
    output)."""
    if _scalar_oracle(_address_lines(addresses)):
        return in_sequence_fraction(addresses, stride)
    array = _as_u64(addresses)
    if array.size < 2:
        return 0.0
    step = np.uint64(stride)
    following = array[1:]
    # ``>= step`` drops sums that wrapped past 2**64 - 1: the scalar
    # metric compares unbounded integers.
    hits = np.count_nonzero(
        (following == array[:-1] + step) & (following >= step)
    )
    return float(hits) / (array.size - 1)


def count_packed(packed: np.ndarray, width: int, lines: int) -> TransitionReport:
    """The transition report of a packed stream: per-line toggle counts of
    its XOR-diff words.

    ``packed[t]`` holds cycle ``t``'s wires as
    :meth:`~repro.core.word.EncodedWord.packed` lays them out: the
    ``width`` bus bits low and redundant lines above, ``lines`` wires in
    all; bits at or above ``lines`` are not wires and are not counted.
    Per-line counts come from one 256-bin ``bincount`` per byte lane of
    the diffs, folded through a 256x8 table of each byte's bits.  The
    totals are sums of the per-line counts, since every toggle is a toggle
    of exactly one line.  Raises ``ValueError`` for more than 64 lines.
    """
    if lines > 64:
        raise ValueError(f"cannot count {lines} lines in packed 64-bit words")
    if packed.size == 0:
        return TransitionReport(0, 0, 0, 0, ())
    diffs = packed[1:] ^ packed[:-1]
    lanes = diffs.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)
    # byte_bits[v, j] is bit j of byte value v (built per call: no
    # module-global state on the worker path).
    byte_bits = np.unpackbits(
        np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little"
    ).astype(np.int64)
    counts = np.empty(64, dtype=np.int64)
    for lane in range((lines + 7) // 8):
        histogram = np.bincount(
            np.ascontiguousarray(lanes[:, lane]), minlength=256
        )
        counts[8 * lane : 8 * lane + 8] = histogram @ byte_bits
    per_line = tuple(int(count) for count in counts[:lines])
    total = sum(per_line)
    bus_transitions = sum(per_line[:width])
    return TransitionReport(
        total=total,
        bus_transitions=bus_transitions,
        extra_transitions=total - bus_transitions,
        cycles=int(diffs.size),
        per_line=per_line,
    )


def pack_words(words: Sequence[EncodedWord], width: int = 32) -> np.ndarray:
    """Pack an encoded stream into a uint64 array of ``word.packed(width)``.

    Requires ``width + extra_count <= 64`` and a consistent redundant-line
    count (the same error the scalar counter raises).
    """
    if not words:
        return np.zeros(0, dtype=np.uint64)
    extra_count = words[0].extra_count
    if width + extra_count > 64:
        raise ValueError(
            f"cannot pack {width}+{extra_count} lines into 64-bit words"
        )
    for word in words:
        if word.extra_count != extra_count:
            raise ValueError(
                "inconsistent redundant-line count within one stream: "
                f"{word.extra_count} vs {extra_count}"
            )
    return np.fromiter(
        (word.packed(width) for word in words),
        dtype=np.uint64,
        count=len(words),
    )


def count_transitions_fast(
    words: Sequence[EncodedWord],
    width: int = 32,
    initial: Optional[EncodedWord] = None,
) -> TransitionReport:
    """Vectorised :func:`repro.metrics.count_transitions` (identical output)."""
    if not words:
        return TransitionReport(0, 0, 0, 0, ())
    lines = width + words[0].extra_count
    if _scalar_oracle(lines):
        return count_transitions(words, width=width, initial=initial)
    stream = words if initial is None else [initial, *words]
    return count_packed(pack_words(stream, width=width), width, lines)


def binary_reference_report(
    addresses: ArrayLike, width: int = 32
) -> TransitionReport:
    """The plain-binary reference of a comparison row: equal to
    ``count_transitions([EncodedWord(a) for a in addresses], width)``
    without materialising any :class:`EncodedWord` (on up to 64 lines)."""
    if _scalar_oracle(width):
        return count_transitions(
            [EncodedWord(int(address)) for address in addresses], width=width
        )
    return count_packed(_as_u64(addresses), width, width)


