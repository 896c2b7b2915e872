"""Transition counting on encoded bus-word streams.

The paper's power metric is the number of wire transitions per benchmark run
(Tables 2–7) or per clock cycle (Table 1).  A transition is one wire changing
value between two consecutive clock cycles, counted over the address lines
*and* the code's redundant lines.  The ``SEL`` wire of a multiplexed bus is
excluded: it is present (and identical) under every code, so it cancels out
of any comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.core.word import EncodedWord


@dataclass(frozen=True)
class TransitionReport:
    """Transition statistics for one encoded stream.

    Attributes
    ----------
    total:
        Total wire transitions over the whole stream.
    bus_transitions:
        Transitions on the ``N`` address lines only.
    extra_transitions:
        Transitions on the redundant lines only (``total - bus_transitions``).
    cycles:
        Number of bus cycles counted (stream length minus one when starting
        from the first word, stream length when an initial word is given).
    per_line:
        Transition count of every wire, address lines first then redundant
        lines in declaration order.
    """

    total: int
    bus_transitions: int
    extra_transitions: int
    cycles: int
    per_line: Tuple[int, ...]

    @property
    def per_cycle(self) -> float:
        """Average wire transitions per clock cycle."""
        return self.total / self.cycles if self.cycles else 0.0

    @property
    def per_line_per_cycle(self) -> float:
        """Average transitions per wire per clock cycle."""
        if not self.cycles or not self.per_line:
            return 0.0
        return self.total / (self.cycles * len(self.per_line))


def count_transitions(
    words: Sequence[EncodedWord],
    width: int = 32,
    initial: Optional[EncodedWord] = None,
) -> TransitionReport:
    """Count wire transitions across a stream of encoded words.

    Parameters
    ----------
    words:
        The encoded stream, in bus order.
    width:
        Bus width ``N`` (number of address lines).
    initial:
        Optional bus state *before* the first word (e.g. the power-up
        all-zeros word).  When omitted, counting starts at the first word,
        giving ``len(words) - 1`` counted cycles — the convention the paper's
        tables use.
    """
    if not words:
        return TransitionReport(0, 0, 0, 0, ())
    extra_count = words[0].extra_count
    line_count = width + extra_count
    per_line = [0] * line_count
    total = 0
    bus_transitions = 0
    cycles = 0

    prev = initial
    for word in words:
        if word.extra_count != extra_count:
            raise ValueError(
                "inconsistent redundant-line count within one stream: "
                f"{word.extra_count} vs {extra_count}"
            )
        if prev is not None:
            diff = prev.packed(width) ^ word.packed(width)
            flips = diff.bit_count()
            total += flips
            bus_transitions += (diff & ((1 << width) - 1)).bit_count()
            cycles += 1
            while diff:
                low = diff & -diff
                per_line[low.bit_length() - 1] += 1
                diff ^= low
        prev = word

    return TransitionReport(
        total=total,
        bus_transitions=bus_transitions,
        extra_transitions=total - bus_transitions,
        cycles=cycles,
        per_line=tuple(per_line),
    )


def binary_transitions(addresses: Sequence[int]) -> int:
    """Fast path: total transitions of a plain-binary address stream."""
    total = 0
    for prev, cur in zip(addresses, addresses[1:]):
        total += (prev ^ cur).bit_count()
    return total
