"""Address-stream statistics.

The paper characterises each benchmark stream by its **in-sequence
percentage**: the fraction of bus cycles whose address equals the previous
address plus the stride (Tables 2–4, "In-Seq Addr." column).  This module
computes that figure plus the auxiliary statistics used to calibrate and
validate the synthetic trace generators (run lengths, jump distances,
working-set spread).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.base import SEL_INSTRUCTION
from repro.core.word import EncodedWord, hamming
from repro.metrics.transitions import count_transitions


def in_sequence_fraction(
    addresses: Sequence[int],
    stride: int = 4,
    sels: Optional[Sequence[int]] = None,
) -> float:
    """Fraction of cycles with ``b(t) == b(t-1) + stride``.

    With ``sels`` given, the test is still applied to raw consecutive bus
    cycles (the paper measures sequentiality *on the bus*, which is exactly
    what plain T0 sees on a multiplexed stream).
    """
    if len(addresses) < 2:
        return 0.0
    hits = sum(
        1
        for prev, cur in zip(addresses, addresses[1:])
        if cur == prev + stride
    )
    return hits / (len(addresses) - 1)


def instruction_slot_sequence_fraction(
    addresses: Sequence[int], sels: Sequence[int], stride: int = 4
) -> float:
    """Fraction of instruction slots in sequence w.r.t. the *previous
    instruction slot* — the quantity the dual T0 reference register sees."""
    prev_instruction: Optional[int] = None
    hits = 0
    slots = 0
    for address, sel in zip(addresses, sels):
        if sel == SEL_INSTRUCTION:
            if prev_instruction is not None:
                slots += 1
                if address == prev_instruction + stride:
                    hits += 1
            prev_instruction = address
    return hits / slots if slots else 0.0


def per_type_in_sequence_fraction(
    addresses: Sequence[int], sels: Sequence[int], stride: int = 4
) -> float:
    """Fraction of cycles in sequence w.r.t. the previous cycle *of the same
    SEL type* (instruction vs data).

    This is the natural sequentiality measure of a multiplexed stream — each
    sub-stream keeps its own notion of "previous address" — and the
    interpretation under which the paper's Table 4 average (57.62 %) is
    consistent with its Table 2/3 averages (63.04 % / 11.39 %) at the data
    traffic share of a MIPS multiplexed bus.
    """
    last: Dict[int, int] = {}
    hits = 0
    counted = 0
    for address, sel in zip(addresses, sels):
        if sel in last:
            counted += 1
            if address == last[sel] + stride:
                hits += 1
        last[sel] = address
    return hits / counted if counted else 0.0


def run_length_histogram(
    addresses: Sequence[int], stride: int = 4
) -> Dict[int, int]:
    """Histogram of maximal in-sequence run lengths (in addresses).

    A run of length ``k`` means ``k`` consecutive addresses each equal to the
    previous plus the stride (so a stream with no sequentiality is all runs
    of length 1).
    """
    histogram: Dict[int, int] = {}
    run = 1
    for prev, cur in zip(addresses, addresses[1:]):
        if cur == prev + stride:
            run += 1
        else:
            histogram[run] = histogram.get(run, 0) + 1
            run = 1
    histogram[run] = histogram.get(run, 0) + 1
    return histogram


def mean_jump_hamming(addresses: Sequence[int], stride: int = 4) -> float:
    """Average Hamming distance of the *out-of-sequence* steps.

    This is the quantity that decides how much an interrupted sequential
    stream costs under binary (and therefore how big T0's relative savings
    can be): local branches flip few wires, segment changes flip many.
    """
    distances: List[int] = []
    for prev, cur in zip(addresses, addresses[1:]):
        if cur != prev + stride:
            distances.append(hamming(prev, cur))
    return sum(distances) / len(distances) if distances else 0.0


def line_activity_profile(
    addresses: Sequence[int], width: int = 32
) -> List[float]:
    """Per-line transitions per cycle of the raw (binary) stream, LSB first.

    The signature the codes exploit is visible here: low lines toggle at
    counter rates, mid lines carry the jump randomness, high lines move only
    on region changes — which is why bus-invert's majority vote keys off the
    high half and T0 freezes the low half.
    """
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    report = count_transitions([EncodedWord(a) for a in addresses], width=width)
    cycles = max(report.cycles, 1)
    return [count / cycles for count in report.per_line or [0] * width]


def address_entropy(addresses: Sequence[int]) -> float:
    """Shannon entropy (bits) of the address distribution.

    Low entropy marks the repetitive embedded workloads where the trained
    Beach code thrives; high entropy marks the random data traffic where
    only bus-invert style codes help.
    """
    if not addresses:
        return 0.0
    from math import log2

    counts: Dict[int, int] = {}
    for address in addresses:
        counts[address] = counts.get(address, 0) + 1
    total = len(addresses)
    return -sum(
        (count / total) * log2(count / total) for count in counts.values()
    )


@dataclass(frozen=True)
class StreamStatistics:
    """Summary statistics of one address stream."""

    length: int
    in_sequence: float
    mean_run_length: float
    mean_jump_hamming: float
    unique_addresses: int
    address_span: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"length={self.length} in_seq={self.in_sequence:.2%} "
            f"mean_run={self.mean_run_length:.1f} "
            f"jump_H={self.mean_jump_hamming:.1f} "
            f"unique={self.unique_addresses} span={self.address_span:#x}"
        )


def stream_statistics(
    addresses: Sequence[int], stride: int = 4
) -> StreamStatistics:
    """Compute the summary statistics used throughout the benches and docs."""
    if not addresses:
        return StreamStatistics(0, 0.0, 0.0, 0.0, 0, 0)
    histogram = run_length_histogram(addresses, stride)
    total_runs = sum(histogram.values())
    mean_run = (
        sum(length * count for length, count in histogram.items()) / total_runs
        if total_runs
        else 0.0
    )
    return StreamStatistics(
        length=len(addresses),
        in_sequence=in_sequence_fraction(addresses, stride),
        mean_run_length=mean_run,
        mean_jump_hamming=mean_jump_hamming(addresses, stride),
        unique_addresses=len(set(addresses)),
        address_span=(max(addresses) - min(addresses)) if addresses else 0,
    )
