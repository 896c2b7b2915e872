"""Columnar numpy encode/decode kernels for the registered codecs.

The steppable API in :mod:`repro.core.base` is the *reference*
implementation: one Python-level ``encode``/``decode`` call per bus cycle,
one :class:`~repro.core.word.EncodedWord` per cycle.  That is the right
shape for formal word-level reasoning and for chunked state handoff, but
it is the wrong shape for million-address traces — the engine's cold path
spends essentially all of its time in per-cycle Python dispatch.

These kernels compute the same streams as whole-array operations on a
uint64 vector: each cycle's wires are packed exactly like
:meth:`EncodedWord.packed` (redundant lines above the ``width`` bus bits),
so Hamming distance between consecutive packed words is the number of
toggling wires, and :meth:`KernelResult.report` is one call of the fold
every vectorised :class:`~repro.metrics.transitions.TransitionReport`
comes from, :func:`repro.metrics.fast.count_packed`.

Two facts make the paper's codes vectorizable despite their statefulness:

* The T0 family freezes the bus during in-sequence runs, so the bus value
  at any cycle is the value at the most recent *setter* (non-frozen)
  cycle — a gather through a running-maximum index, not a scan.
* The bus-invert family's INV/INCV line obeys the two-valued recurrence
  ``x[t] = b[t] if x[t-1] else a[t]`` with data-independent ``a``/``b``
  per cycle, which has a closed form: positions with ``a == b`` force the
  value, and between forced positions the value either copies or toggles,
  so a cumulative toggle parity settles every cycle at once
  (:func:`_binary_recurrence`).

Kernels exist for every registered codec except the table-driven ones
(``mtf``, ``wze``, ``beach``), whose per-cycle data-dependent table state
has no closed form; callers must treat :func:`has_encode_kernel` /
:func:`has_decode_kernel` as the capability test and fall back to the
reference path (the engine does exactly that).
Kernels also require all wires to fit one uint64, i.e.
``width + len(extra_lines) <= 64`` — the same packing limit
:func:`repro.metrics.fast.count_packed` enforces.

Bit-identity with the reference path — including the power-up conventions
and the exact validation errors — is locked by ``tests/test_kernels.py``
over every kernel codec, width and sel pattern.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.base import SEL_INSTRUCTION, Codec
from repro.core.partitioned import partition_bounds
from repro.core.t0 import check_stride
from repro.core.word import EncodedWord
from repro.metrics.fast import _as_u64, _popcount, count_packed
from repro.metrics.transitions import TransitionReport
from repro.obs import metrics as obs_metrics

ArrayLike = Union[Sequence[int], np.ndarray]

_ONE = np.uint64(1)


def _u64_mask(width: int) -> np.uint64:
    return np.uint64((1 << width) - 1) if width < 64 else ~np.uint64(0)


def _hold_indices(setter: np.ndarray) -> np.ndarray:
    """For each position, the index of the most recent True in ``setter``.

    ``setter[0]`` must be True (every kernel's cycle 0 is a setter: the
    power-up state admits no frozen first cycle).
    """
    n = setter.size
    return np.maximum.accumulate(np.where(setter, np.arange(n), 0))


def _binary_recurrence(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``x[t] = b[t] if x[t-1] else a[t]`` with ``x[-1] = False``.

    ``a``/``b`` are boolean arrays (the cycle's outcome under a previous
    value of 0 resp. 1).  Where ``a == b`` the outcome is forced; between
    forced positions the step either copies the previous value
    (``a=False, b=True``) or toggles it (``a=True, b=False``), so each
    position is the last forced value XOR the parity of the toggles since
    — all computable in one pass.
    """
    n = a.size
    if n == 0:
        return np.zeros(0, dtype=bool)
    forced = a == b
    toggle = a & ~b
    index = np.arange(n)
    last_forced = np.maximum.accumulate(np.where(forced, index, -1))
    prefix = np.concatenate(
        [np.zeros(1, dtype=np.int64), np.cumsum(toggle, dtype=np.int64)]
    )
    flips = prefix[index + 1] - prefix[last_forced + 1]
    base = np.where(last_forced >= 0, a[np.maximum(last_forced, 0)], False)
    return base ^ (flips & 1).astype(bool)


def _prepended(array: np.ndarray, first: int = 0) -> np.ndarray:
    """``array`` shifted right by one cycle, with ``first`` at cycle 0."""
    if array.size == 0:
        return array.copy()
    out = np.empty_like(array)
    out[0] = first
    out[1:] = array[:-1]
    return out


def _stride_of(codec: Codec, default: int = 4) -> np.uint64:
    value = codec.params.get("stride", default)
    return np.uint64(check_stride(int(value)))  # type: ignore[arg-type]


def _in_sequence(
    a: np.ndarray, stride: np.uint64, m: np.uint64
) -> np.ndarray:
    """``a[t] == (a[t-1] + stride) & mask`` with cycle 0 never in sequence."""
    flags = np.zeros(a.size, dtype=bool)
    if a.size > 1:
        flags[1:] = a[1:] == ((a[:-1] + stride) & m)
    return flags


def _instruction_flags(
    sels: Optional[np.ndarray], n: int
) -> np.ndarray:
    if sels is None:
        return np.ones(n, dtype=bool)
    return sels == SEL_INSTRUCTION


# ---------------------------------------------------------------------------
# Encode kernels: (codec, addresses-u64, sels-or-None) -> packed-u64
# ---------------------------------------------------------------------------


def _encode_binary(
    codec: Codec, a: np.ndarray, sels: Optional[np.ndarray]
) -> np.ndarray:
    return a.copy()


def _encode_gray(
    codec: Codec, a: np.ndarray, sels: Optional[np.ndarray]
) -> np.ndarray:
    stride = int(codec.params.get("stride", 1))
    if stride < 1 or (stride & (stride - 1)) != 0:
        raise ValueError(f"stride must be a power of two, got {stride}")
    offset_bits = np.uint64(stride.bit_length() - 1)
    offset_mask = np.uint64(stride - 1)
    m = _u64_mask(codec.width)
    word_part = a >> offset_bits
    coded = (word_part ^ (word_part >> _ONE)) << offset_bits
    return (coded | (a & offset_mask)) & m


def _encode_businvert(
    codec: Codec, a: np.ndarray, sels: Optional[np.ndarray]
) -> np.ndarray:
    width = codec.width
    m = _u64_mask(width)
    # h[t] = Hamming(a[t-1], a[t]); the power-up bus is all zeros so the
    # first cycle measures against a virtual previous address of 0.
    h = _popcount(a ^ _prepended(a))
    # INV recurrence over the previous cycle's INV: the candidate distance
    # is h + prev_inv when the previous word was uninverted, and
    # (width - h) + prev_inv when it was inverted (XOR against ~a[t-1]).
    invert_if_low = 2 * h > width
    invert_if_high = 2 * (width - h + 1) > width
    inv = _binary_recurrence(invert_if_low, invert_if_high)
    bus = np.where(inv, ~a & m, a)
    return bus | (inv.astype(np.uint64) << np.uint64(width))


def _encode_t0(
    codec: Codec, a: np.ndarray, sels: Optional[np.ndarray]
) -> np.ndarray:
    width = codec.width
    m = _u64_mask(width)
    in_seq = _in_sequence(a, _stride_of(codec), m)
    bus = a[_hold_indices(~in_seq)]  # frozen at the last out-of-sequence bus
    return bus | (in_seq.astype(np.uint64) << np.uint64(width))


def _encode_t0bi(
    codec: Codec, a: np.ndarray, sels: Optional[np.ndarray]
) -> np.ndarray:
    width = codec.width
    m = _u64_mask(width)
    in_seq = _in_sequence(a, _stride_of(codec), m)
    # Setters are the out-of-sequence cycles: only they choose a polarity
    # and place a fresh value on the bus.  Cycle 0 is always a setter.
    setters = np.flatnonzero(~in_seq)
    sa = a[setters]
    h = _popcount(sa ^ _prepended(sa))
    # prev_inc is 1 exactly when the preceding cycle was in-sequence; in
    # that case the preceding INV was 0, and otherwise the preceding cycle
    # is the previous setter whose INV feeds the recurrence (+1 either way
    # in the inverted branch, since an inverted setter contributes its own
    # INV bit instead of the INC bit).
    gap = np.zeros(setters.size, dtype=np.int64)
    if setters.size > 1:
        gap[1:] = in_seq[setters[1:] - 1]
    invert_if_low = 2 * (h + gap) > width + 2
    invert_if_high = 2 * (width - h + 1) > width + 2
    inv_s = _binary_recurrence(invert_if_low, invert_if_high)
    bus_s = np.where(inv_s, ~sa & m, sa)
    bus_full = np.zeros(a.size, dtype=np.uint64)
    bus_full[setters] = bus_s
    inv_full = np.zeros(a.size, dtype=bool)
    inv_full[setters] = inv_s
    bus = bus_full[_hold_indices(~in_seq)]
    return (
        bus
        | (in_seq.astype(np.uint64) << np.uint64(width))
        | (inv_full.astype(np.uint64) << np.uint64(width + 1))
    )


def _dual_in_sequence(
    codec: Codec, a: np.ndarray, sels: Optional[np.ndarray]
) -> Tuple[np.ndarray, np.ndarray]:
    """(in_seq, is_inst) for the SEL-gated codes: the sequentiality test
    runs against the address of the most recent *instruction* slot."""
    m = _u64_mask(codec.width)
    stride = _stride_of(codec)
    is_inst = _instruction_flags(sels, a.size)
    index = np.arange(a.size)
    held = np.maximum.accumulate(np.where(is_inst, index, -1))
    prev_inst = _prepended(held, -1)
    has_ref = prev_inst >= 0
    ref = a[np.maximum(prev_inst, 0)]
    in_seq = is_inst & has_ref & (a == ((ref + stride) & m))
    return in_seq, is_inst


def _encode_dualt0(
    codec: Codec, a: np.ndarray, sels: Optional[np.ndarray]
) -> np.ndarray:
    in_seq, _ = _dual_in_sequence(codec, a, sels)
    bus = a[_hold_indices(~in_seq)]
    return bus | (in_seq.astype(np.uint64) << np.uint64(codec.width))


def _encode_dualt0bi(
    codec: Codec, a: np.ndarray, sels: Optional[np.ndarray]
) -> np.ndarray:
    width = codec.width
    m = _u64_mask(width)
    in_seq, is_inst = _dual_in_sequence(codec, a, sels)
    setters = np.flatnonzero(~in_seq)
    sa = a[setters]
    h = _popcount(sa ^ _prepended(sa))
    gap = np.zeros(setters.size, dtype=np.int64)
    if setters.size > 1:
        gap[1:] = in_seq[setters[1:] - 1]
    # Only data setters take the bus-invert branch; instruction setters
    # transmit plain binary with INCV=0, which forces the recurrence.
    is_data = ~is_inst[setters]
    invert_if_low = is_data & (2 * (h + gap) > width)
    invert_if_high = is_data & (2 * (width - h + 1) > width)
    incv_s = _binary_recurrence(invert_if_low, invert_if_high)
    bus_s = np.where(incv_s, ~sa & m, sa)
    bus_full = np.zeros(a.size, dtype=np.uint64)
    bus_full[setters] = bus_s
    incv_full = in_seq.copy()
    incv_full[setters] = incv_s
    bus = bus_full[_hold_indices(~in_seq)]
    return bus | (incv_full.astype(np.uint64) << np.uint64(width))


def _encode_pbi(
    codec: Codec, a: np.ndarray, sels: Optional[np.ndarray]
) -> np.ndarray:
    width = codec.width
    partitions = int(codec.params.get("partitions", 4))  # type: ignore[arg-type]
    bounds = partition_bounds(width, partitions)
    packed = np.zeros(a.size, dtype=np.uint64)
    for index, (low, size) in enumerate(bounds):
        field_mask = _u64_mask(size)
        field = (a >> np.uint64(low)) & field_mask
        h = _popcount(field ^ _prepended(field))
        invert_if_low = 2 * h > size
        invert_if_high = 2 * (size - h + 1) > size
        inv = _binary_recurrence(invert_if_low, invert_if_high)
        out = np.where(inv, ~field & field_mask, field)
        packed |= out << np.uint64(low)
        packed |= inv.astype(np.uint64) << np.uint64(width + index)
    return packed


def _encode_offset(
    codec: Codec, a: np.ndarray, sels: Optional[np.ndarray]
) -> np.ndarray:
    m = _u64_mask(codec.width)
    return (a - _prepended(a)) & m


def _encode_incxor(
    codec: Codec, a: np.ndarray, sels: Optional[np.ndarray]
) -> np.ndarray:
    m = _u64_mask(codec.width)
    stride = _stride_of(codec)
    logical = np.empty_like(a)
    if a.size:
        logical[0] = a[0]  # no prediction on the first cycle
        logical[1:] = a[1:] ^ ((a[:-1] + stride) & m)
    # bus[t] = logical[t] ^ bus[t-1]: a running XOR of the logical words.
    return np.bitwise_xor.accumulate(logical)


# ---------------------------------------------------------------------------
# Decode kernels: (codec, packed-u64, sels-or-None) -> addresses-u64
# ---------------------------------------------------------------------------


def _split_packed(
    packed: np.ndarray, width: int, extras: int
) -> Tuple[np.ndarray, List[np.ndarray]]:
    m = _u64_mask(width)
    bus = packed & m
    lines = [
        ((packed >> np.uint64(width + index)) & _ONE).astype(bool)
        for index in range(extras)
    ]
    return bus, lines


def _decode_binary(
    codec: Codec, packed: np.ndarray, sels: Optional[np.ndarray]
) -> np.ndarray:
    return packed & _u64_mask(codec.width)


def _decode_gray(
    codec: Codec, packed: np.ndarray, sels: Optional[np.ndarray]
) -> np.ndarray:
    stride = int(codec.params.get("stride", 1))
    if stride < 1 or (stride & (stride - 1)) != 0:
        raise ValueError(f"stride must be a power of two, got {stride}")
    offset_bits = np.uint64(stride.bit_length() - 1)
    offset_mask = np.uint64(stride - 1)
    m = _u64_mask(codec.width)
    coded = packed & m
    value = coded >> offset_bits
    for shift in (1, 2, 4, 8, 16, 32):  # prefix-XOR inverts the Gray map
        value = value ^ (value >> np.uint64(shift))
    return ((value << offset_bits) | (coded & offset_mask)) & m


def _decode_businvert(
    codec: Codec, packed: np.ndarray, sels: Optional[np.ndarray]
) -> np.ndarray:
    m = _u64_mask(codec.width)
    bus, (inv,) = _split_packed(packed, codec.width, 1)
    return np.where(inv, ~bus & m, bus)


def _decode_pbi(
    codec: Codec, packed: np.ndarray, sels: Optional[np.ndarray]
) -> np.ndarray:
    width = codec.width
    partitions = int(codec.params.get("partitions", 4))  # type: ignore[arg-type]
    bounds = partition_bounds(width, partitions)
    bus, invs = _split_packed(packed, width, partitions)
    address = np.zeros(packed.size, dtype=np.uint64)
    for (low, size), inv in zip(bounds, invs):
        field_mask = _u64_mask(size)
        field = (bus >> np.uint64(low)) & field_mask
        field = np.where(inv, ~field & field_mask, field)
        address |= field << np.uint64(low)
    return address


def _decode_offset(
    codec: Codec, packed: np.ndarray, sels: Optional[np.ndarray]
) -> np.ndarray:
    m = _u64_mask(codec.width)
    return np.cumsum(packed & m, dtype=np.uint64) & m


def _decode_t0(
    codec: Codec, packed: np.ndarray, sels: Optional[np.ndarray]
) -> np.ndarray:
    m = _u64_mask(codec.width)
    stride = _stride_of(codec)
    bus, (inc,) = _split_packed(packed, codec.width, 1)
    if inc.size and inc[0]:
        raise ValueError("INC asserted on the first bus cycle")
    # During an INC run the bus is frozen at the run's base address, so the
    # decoded address is base + stride * (cycles since the base).
    run = np.arange(packed.size) - _hold_indices(~inc)
    return (bus + stride * run.astype(np.uint64)) & m


def _decode_t0bi(
    codec: Codec, packed: np.ndarray, sels: Optional[np.ndarray]
) -> np.ndarray:
    m = _u64_mask(codec.width)
    stride = _stride_of(codec)
    bus, (inc, inv) = _split_packed(packed, codec.width, 2)
    if inc.size and inc[0]:
        raise ValueError("INC asserted on the first bus cycle")
    base = np.where(inv & ~inc, ~bus & m, bus)
    hold = _hold_indices(~inc)
    run = np.arange(packed.size) - hold
    return (base[hold] + stride * run.astype(np.uint64)) & m


def _dual_decode_refs(
    bus: np.ndarray,
    advance: np.ndarray,
    is_inst: np.ndarray,
    stride: np.uint64,
    m: np.uint64,
    error: str,
) -> Tuple[np.ndarray, np.ndarray]:
    """Solve the SEL-gated reference register for the dual codes.

    ``advance`` marks the cycles decoded as "reference + stride".  The
    register is updated at every instruction slot with that slot's decoded
    address, so over the instruction subsequence it is an affine
    recurrence: a run of advancing instruction slots counts up from the
    last plainly-transmitted instruction address.  Returns the reference
    value *before* each cycle (undefined where no reference exists yet)
    and the decoded addresses of the instruction slots scattered over the
    full timeline.
    """
    n = bus.size
    index = np.arange(n)
    held = np.maximum.accumulate(np.where(is_inst, index, -1))
    prev_inst = _prepended(held, -1)
    if bool(np.any(advance & (prev_inst < 0))):
        raise ValueError(error)
    inst = np.flatnonzero(is_inst)
    inst_addr = np.zeros(n, dtype=np.uint64)
    if inst.size:
        bus_i = bus[inst]
        advance_i = advance[inst]
        hold = _hold_indices(~advance_i)
        run = (np.arange(inst.size) - hold).astype(np.uint64)
        inst_addr[inst] = (bus_i[hold] + stride * run) & m
    ref_before = inst_addr[np.maximum(prev_inst, 0)]
    return ref_before, inst_addr


def _decode_dualt0(
    codec: Codec, packed: np.ndarray, sels: Optional[np.ndarray]
) -> np.ndarray:
    m = _u64_mask(codec.width)
    stride = _stride_of(codec)
    bus, (inc,) = _split_packed(packed, codec.width, 1)
    is_inst = _instruction_flags(sels, packed.size)
    ref_before, inst_addr = _dual_decode_refs(
        bus, inc, is_inst, stride, m,
        "INC asserted before any instruction slot",
    )
    address = np.where(inc, (ref_before + stride) & m, bus)
    address[is_inst] = inst_addr[is_inst]
    return address


def _decode_dualt0bi(
    codec: Codec, packed: np.ndarray, sels: Optional[np.ndarray]
) -> np.ndarray:
    m = _u64_mask(codec.width)
    stride = _stride_of(codec)
    bus, (incv,) = _split_packed(packed, codec.width, 1)
    is_inst = _instruction_flags(sels, packed.size)
    ref_before, inst_addr = _dual_decode_refs(
        bus, incv & is_inst, is_inst, stride, m,
        "INCV asserted before any instruction slot",
    )
    # Data slots re-invert on INCV; instruction slots come from the
    # reference recurrence (plain bus when INCV is low).
    address = np.where(incv, ~bus & m, bus)
    address[is_inst] = inst_addr[is_inst]
    return address


_ENCODE_KERNELS: Dict[
    str, Callable[[Codec, np.ndarray, Optional[np.ndarray]], np.ndarray]
] = {
    "binary": _encode_binary,
    "gray": _encode_gray,
    "bus-invert": _encode_businvert,
    "t0": _encode_t0,
    "t0bi": _encode_t0bi,
    "dualt0": _encode_dualt0,
    "dualt0bi": _encode_dualt0bi,
    "pbi": _encode_pbi,
    "offset": _encode_offset,
    "inc-xor": _encode_incxor,
}

#: inc-xor has no decode kernel: its decoder mixes XOR with modular
#: addition per cycle, which has no closed-form scan.
_DECODE_KERNELS: Dict[
    str, Callable[[Codec, np.ndarray, Optional[np.ndarray]], np.ndarray]
] = {
    "binary": _decode_binary,
    "gray": _decode_gray,
    "bus-invert": _decode_businvert,
    "t0": _decode_t0,
    "t0bi": _decode_t0bi,
    "dualt0": _decode_dualt0,
    "dualt0bi": _decode_dualt0bi,
    "pbi": _decode_pbi,
    "offset": _decode_offset,
}


@dataclass(frozen=True, eq=False)
class KernelResult:
    """An encoded stream as one packed uint64 vector.

    ``packed[t]`` is exactly ``EncodedWord.packed(width)`` of cycle ``t``:
    bus bits low, redundant lines (``extra_names`` order) above them.
    """

    codec_name: str
    width: int
    extra_names: Tuple[str, ...]
    packed: np.ndarray

    @property
    def cycles(self) -> int:
        return int(self.packed.size)

    def report(self) -> TransitionReport:
        """The stream's transition report: the packed words folded through
        :func:`repro.metrics.fast.count_packed`."""
        return count_packed(
            self.packed, self.width, self.width + len(self.extra_names)
        )

    def to_words(self) -> List[EncodedWord]:
        """Materialize the per-cycle :class:`EncodedWord` objects (slow —
        for verification against the reference path, not the hot path)."""
        bus_mask = (1 << self.width) - 1
        extras = len(self.extra_names)
        return [
            EncodedWord(
                value & bus_mask,
                tuple(
                    (value >> (self.width + line)) & 1
                    for line in range(extras)
                ),
            )
            for value in self.packed.tolist()
        ]


def has_encode_kernel(codec: Codec) -> bool:
    """Can :func:`encode_stream_kernel` handle this codec?"""
    return (
        codec.name in _ENCODE_KERNELS
        and codec.width + len(codec.extra_lines) <= 64
    )


def has_decode_kernel(codec: Codec) -> bool:
    """Can :func:`decode_stream_kernel` handle this codec?"""
    return (
        codec.name in _DECODE_KERNELS
        and codec.width + len(codec.extra_lines) <= 64
    )


def _paired_sels(
    sels: Optional[ArrayLike], length: int, first_name: str
) -> Optional[np.ndarray]:
    if sels is None:
        return None
    array = np.asarray(sels)
    if array.ndim != 1:
        raise ValueError(
            f"expected a 1-D sel array, got shape {array.shape}"
        )
    if array.size != length:
        raise ValueError(
            f"{first_name} length {length} != sels length {array.size}"
        )
    return array


def encode_stream_kernel(
    codec: Codec,
    addresses: ArrayLike,
    sels: Optional[ArrayLike] = None,
) -> KernelResult:
    """Encode a whole stream through the codec's columnar kernel.

    Bit-identical to ``codec.make_encoder().encode_stream(...)`` packed
    via :meth:`EncodedWord.packed`, including the validation errors.
    Raises :class:`KeyError` when the codec has no kernel — callers
    gate on :func:`has_encode_kernel` and fall back to the reference path.
    """
    if not has_encode_kernel(codec):
        raise KeyError(f"no encode kernel for codec {codec.name!r}")
    a = _as_u64(addresses, width=codec.width)
    sel_array = _paired_sels(sels, a.size, "addresses")
    packed = _ENCODE_KERNELS[codec.name](codec, a, sel_array)
    obs_metrics.counter("core.kernel_words", codec=codec.name).inc(
        int(packed.size)
    )
    return KernelResult(
        codec_name=codec.name,
        width=codec.width,
        extra_names=tuple(codec.extra_lines),
        packed=packed,
    )


def decode_stream_kernel(
    codec: Codec,
    words: Union[KernelResult, ArrayLike],
    sels: Optional[ArrayLike] = None,
) -> np.ndarray:
    """Decode a packed stream back into addresses (uint64 array).

    Accepts a :class:`KernelResult` or a packed uint64 vector.  Raises
    the reference decoders' errors (``"INC asserted..."``) on malformed
    streams and :class:`KeyError` when the codec has no decode kernel.
    """
    if not has_decode_kernel(codec):
        raise KeyError(f"no decode kernel for codec {codec.name!r}")
    if isinstance(words, KernelResult):
        packed = words.packed
    else:
        packed = np.asarray(words, dtype=np.uint64)
    if packed.ndim != 1:
        raise ValueError(
            f"expected a 1-D packed array, got shape {packed.shape}"
        )
    sel_array = _paired_sels(sels, packed.size, "words")
    decoded = _DECODE_KERNELS[codec.name](codec, packed, sel_array)
    obs_metrics.counter("core.kernel_decoded_words", codec=codec.name).inc(
        int(decoded.size)
    )
    return decoded
