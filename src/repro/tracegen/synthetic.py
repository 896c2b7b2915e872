"""Calibrated synthetic address-stream generators.

The paper measured real MIPS traces of nine UNIX programs, which we cannot
obtain; DESIGN.md documents the substitution.  These generators produce
streams whose *statistics* match what the paper reports and what the codes
are sensitive to:

* **instruction streams** — a two-phase Markov walk: *loop* phases of long
  sequential fetch runs (straight-line/loop code) alternating with *branchy*
  phases of back-to-back control transfers.  Jump targets are mostly local
  (small Hamming cost), occasionally calls to hot functions and rarely far
  (library) — this bimodal run-length structure is what lets T0 reach the
  paper's ~35 % savings at only ~63 % in-sequence addresses.

* **data streams** — a pattern mixture: sequential array sweeps (the only
  source of in-sequence addresses), stack-frame accesses, hot globals and
  heap pointer chasing.  The alternation between the stack segment
  (``0x7FFF_xxxx``) and the data/heap segments (``0x10xx_xxxx``) produces
  the high-Hamming swings that make bus-invert profitable on data buses.

* **multiplexed streams** — the instruction walk with data bursts spliced in
  at a configurable rate; splices chop instruction runs exactly the way time
  multiplexing does on the real bus.

Every generator is deterministic given its seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.base import SEL_DATA, SEL_INSTRUCTION
from repro.tracegen import layout
from repro.tracegen.trace import (
    KIND_DATA,
    KIND_INSTRUCTION,
    KIND_MULTIPLEXED,
    AddressTrace,
)

WORD = layout.WORD_BYTES


def _geometric(rng: random.Random, mean: float) -> int:
    """Geometric-ish burst length with the given mean, minimum 1."""
    if mean <= 1.0:
        return 1
    p = 1.0 / mean
    length = 1
    while rng.random() > p:
        length += 1
    return length


# ---------------------------------------------------------------------------
# Instruction streams
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InstructionProfile:
    """Knobs of the instruction-stream generator.

    ``loop_run_mean`` and ``branchy_run_mean`` control the bimodal run-length
    mix; the resulting in-sequence fraction is approximately
    ``(loop_run_mean - 1) / (loop_run_mean + branchy_run_mean)`` per
    loop/branchy cycle, refined by the share of loop re-entries.
    """

    loop_run_mean: float = 24.0  # sequential fetches per loop burst
    branchy_run_mean: float = 12.0  # consecutive jump targets per branchy burst
    p_call: float = 0.10  # a branchy jump is a call to a hot function
    p_far: float = 0.02  # a branchy jump goes to the library segment
    local_span: int = 4096  # byte window of local branch displacement
    hot_loops: int = 24  # distinct loop entry points the program revisits
    hot_functions: int = 16
    text_base: int = layout.TEXT_BASE
    text_span: int = layout.TEXT_SPAN

    @classmethod
    def for_in_sequence(
        cls, target: float, branchy_run_mean: float = 12.0, **overrides: object
    ) -> "InstructionProfile":
        """Pick ``loop_run_mean`` so the stream lands near ``target`` in-seq.

        From the phase structure: a cycle of one loop burst (length ``k``)
        and one branchy burst (length ``m``) contributes ``k - 1`` sequential
        steps out of ``k + m`` cycles, so ``k = (1 + t*(m + 1)) / (1 - t)``
        solves ``(k - 1)/(k + m + 1) = t`` (the +1 accounts for the jump into
        the loop).
        """
        if not 0.0 < target < 0.95:
            raise ValueError(f"target in-sequence must be in (0, 0.95), got {target}")
        m = branchy_run_mean
        k = (1.0 + target * (m + 1.0)) / (1.0 - target)
        return cls(loop_run_mean=k, branchy_run_mean=m, **overrides)  # type: ignore[arg-type]


def generate_instruction_addresses(
    profile: InstructionProfile, length: int, seed: int = 0
) -> List[int]:
    """Raw instruction fetch addresses (word aligned)."""
    rng = random.Random(seed)
    text_end = profile.text_base + profile.text_span
    loop_sites = [
        layout.align(rng.randrange(profile.text_base, text_end))
        for _ in range(profile.hot_loops)
    ]
    function_sites = [
        layout.align(rng.randrange(profile.text_base, text_end))
        for _ in range(profile.hot_functions)
    ]
    addresses: List[int] = []
    pc = loop_sites[0]

    def emit(value: int) -> None:
        addresses.append(value & layout.ADDRESS_MASK)

    while len(addresses) < length:
        # Loop phase: jump to a hot loop site, then run sequentially.
        pc = rng.choice(loop_sites)
        for _ in range(_geometric(rng, profile.loop_run_mean)):
            emit(pc)
            pc += WORD
            if len(addresses) >= length:
                return addresses
        # Branchy phase: a chain of control transfers.
        for _ in range(_geometric(rng, profile.branchy_run_mean)):
            roll = rng.random()
            if roll < profile.p_far:
                pc = layout.align(
                    layout.LIBRARY_BASE + rng.randrange(layout.LIBRARY_SPAN)
                )
            elif roll < profile.p_far + profile.p_call:
                pc = rng.choice(function_sites) + WORD * rng.randrange(16)
            else:
                displacement = rng.randrange(-profile.local_span, profile.local_span)
                pc = layout.align(
                    min(max(pc + displacement, profile.text_base), text_end - WORD)
                )
                if displacement == WORD:  # avoid accidentally sequential jumps
                    pc += WORD
            emit(pc)
            if len(addresses) >= length:
                return addresses
    return addresses


def synthetic_instruction_stream(
    length: int,
    profile: Optional[InstructionProfile] = None,
    seed: int = 0,
    name: str = "synthetic.instruction",
) -> AddressTrace:
    """An instruction-address trace from the two-phase Markov model."""
    profile = profile or InstructionProfile()
    return AddressTrace(
        name=name,
        addresses=tuple(generate_instruction_addresses(profile, length, seed)),
        kind=KIND_INSTRUCTION,
    )


# ---------------------------------------------------------------------------
# Data streams
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DataProfile:
    """Knobs of the data-stream generator (weights need not be normalised)."""

    w_array: float = 0.25  # sequential array sweeps — the in-seq source
    w_stack: float = 0.35  # stack-frame accesses
    w_global: float = 0.20  # hot static scalars
    w_chase: float = 0.20  # heap pointer chasing
    array_run_mean: float = 12.0  # elements per sweep burst
    stack_burst_mean: float = 3.5
    global_burst_mean: float = 2.5
    chase_burst_mean: float = 3.0
    hot_arrays: int = 8
    hot_globals: int = 12
    frame_span: int = 128  # bytes of active stack frame

    @classmethod
    def for_in_sequence(cls, target: float, **overrides: object) -> "DataProfile":
        """Scale the array weight so the stream lands near ``target`` in-seq.

        A sweep burst of mean length ``A`` yields ``A - 1`` sequential steps;
        the other patterns yield none.  Solving for the address share ``s``
        spent in sweeps: ``s = target / (1 - 1/A)``; the remaining weight is
        split among the other patterns in their default proportions.
        """
        if not 0.0 <= target < 0.8:
            raise ValueError(f"target in-sequence must be in [0, 0.8), got {target}")
        defaults = cls()
        arr_mean = float(overrides.get("array_run_mean", defaults.array_run_mean))
        stack_mean = float(overrides.get("stack_burst_mean", defaults.stack_burst_mean))
        global_mean = float(overrides.get("global_burst_mean", defaults.global_burst_mean))
        chase_mean = float(overrides.get("chase_burst_mean", defaults.chase_burst_mean))
        share = target / (1.0 - 1.0 / arr_mean) if target else 0.0
        # Convert the desired *address* share into a *burst weight*: bursts of
        # pattern i contribute (weight_i * mean_len_i) addresses.
        rest = 1.0 - share
        other_total = defaults.w_stack + defaults.w_global + defaults.w_chase
        w_array = share / arr_mean if arr_mean else 0.0
        scale = rest / other_total
        return cls(
            w_array=w_array,
            w_stack=defaults.w_stack * scale / stack_mean,
            w_global=defaults.w_global * scale / global_mean,
            w_chase=defaults.w_chase * scale / chase_mean,
            **overrides,  # type: ignore[arg-type]
        )


def generate_data_addresses(
    profile: DataProfile, length: int, seed: int = 0
) -> List[int]:
    """Raw data-access addresses (word aligned)."""
    rng = random.Random(seed + 0x5EED)
    arrays = [
        layout.align(layout.HEAP_BASE + rng.randrange(layout.HEAP_SPAN))
        for _ in range(profile.hot_arrays)
    ]
    globals_ = [
        layout.align(layout.DATA_BASE + rng.randrange(layout.DATA_SPAN))
        for _ in range(profile.hot_globals)
    ]
    frame_base = layout.align(layout.STACK_TOP - rng.randrange(layout.STACK_SPAN // 2))
    addresses: List[int] = []
    weights = [profile.w_array, profile.w_stack, profile.w_global, profile.w_chase]
    patterns = ["array", "stack", "global", "chase"]

    while len(addresses) < length:
        pattern = rng.choices(patterns, weights=weights, k=1)[0]
        if pattern == "array":
            pointer = rng.choice(arrays) + WORD * rng.randrange(64)
            for _ in range(_geometric(rng, profile.array_run_mean)):
                addresses.append(pointer & layout.ADDRESS_MASK)
                pointer += WORD
                if len(addresses) >= length:
                    return addresses
        elif pattern == "stack":
            for _ in range(_geometric(rng, profile.stack_burst_mean)):
                offset = WORD * rng.randrange(profile.frame_span // WORD)
                addresses.append((frame_base - offset) & layout.ADDRESS_MASK)
                if len(addresses) >= length:
                    return addresses
            if rng.random() < 0.05:  # occasional call/return moves the frame
                frame_base = layout.align(
                    layout.STACK_TOP - rng.randrange(layout.STACK_SPAN // 2)
                )
        elif pattern == "global":
            for _ in range(_geometric(rng, profile.global_burst_mean)):
                addresses.append(rng.choice(globals_))
                if len(addresses) >= length:
                    return addresses
        else:  # chase
            for _ in range(_geometric(rng, profile.chase_burst_mean)):
                addresses.append(
                    layout.align(layout.HEAP_BASE + rng.randrange(layout.HEAP_SPAN))
                )
                if len(addresses) >= length:
                    return addresses
    return addresses


def synthetic_data_stream(
    length: int,
    profile: Optional[DataProfile] = None,
    seed: int = 0,
    name: str = "synthetic.data",
) -> AddressTrace:
    """A data-address trace from the pattern-mixture model."""
    profile = profile or DataProfile()
    return AddressTrace(
        name=name,
        addresses=tuple(generate_data_addresses(profile, length, seed)),
        kind=KIND_DATA,
    )


# ---------------------------------------------------------------------------
# Multiplexed streams
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MultiplexProfile:
    """How instruction and data cycles share the multiplexed bus.

    ``data_rate`` is the probability that a data burst is spliced in after an
    instruction slot; ``data_burst_mean`` its length.  ``p_resume_sequential``
    is the probability that the fetch following a data burst continues the
    interrupted sequential run (loads deep inside a basic block) rather than
    being a control transfer — the lever that separates dual T0 from T0.
    """

    data_rate: float = 0.50
    data_burst_mean: float = 1.1
    p_resume_sequential: float = 0.08
    p_frame_burst: float = 0.15  # burst is a sequential stack save/restore
    frame_burst_mean: float = 2.5


def multiplex_streams(
    instruction: Sequence[int],
    data: Sequence[int],
    profile: Optional[MultiplexProfile] = None,
    seed: int = 0,
    name: str = "synthetic.multiplexed",
    stride: int = WORD,
) -> AddressTrace:
    """Weave instruction and data addresses onto one bus with a SEL stream.

    The instruction stream is consumed in order, so the instruction-slot
    sub-stream of the result is exactly the input.  Data bursts come from two
    sources: *frame bursts* — sequential stack save/restore sequences (the
    ``sw ra / sw s0 / …`` prologue idiom), which are in-sequence *on the bus*
    and therefore visible to plain T0 but not to dual T0 (``SEL = 0``) — and
    chunks of the supplied ``data`` stream.

    A burst requested mid-run is spliced immediately with probability
    ``p_resume_sequential`` (a load deep inside a basic block — the following
    fetch continues the run, which dual T0 can rescue and plain T0 cannot);
    otherwise it is deferred to the next run boundary, modelling memory
    accesses that coincide with the end of a basic block.
    """
    profile = profile or MultiplexProfile()
    rng = random.Random(seed + 0xD0)
    addresses: List[int] = []
    sels: List[int] = []
    d_index = 0
    pending_bursts = 0
    frame_base = layout.align(layout.STACK_TOP - rng.randrange(0x2000))

    def emit_burst() -> None:
        nonlocal d_index, frame_base
        if rng.random() < profile.p_frame_burst:
            if rng.random() < 0.30:  # call/return moves the active frame
                frame_base = layout.align(
                    layout.STACK_TOP - rng.randrange(layout.STACK_SPAN // 2)
                )
            pointer = frame_base
            for _ in range(_geometric(rng, profile.frame_burst_mean)):
                addresses.append(pointer & layout.ADDRESS_MASK)
                sels.append(SEL_DATA)
                pointer += WORD
        else:
            for _ in range(_geometric(rng, profile.data_burst_mean)):
                if d_index >= len(data):
                    return
                addresses.append(data[d_index])
                sels.append(SEL_DATA)
                d_index += 1

    for index, fetch in enumerate(instruction):
        addresses.append(fetch)
        sels.append(SEL_INSTRUCTION)
        at_run_boundary = (
            index + 1 >= len(instruction)
            or instruction[index + 1] != fetch + stride
        )
        if pending_bursts and at_run_boundary:
            while pending_bursts:
                emit_burst()
                pending_bursts -= 1
        if rng.random() < profile.data_rate:
            if at_run_boundary or rng.random() < profile.p_resume_sequential:
                emit_burst()
            else:
                pending_bursts += 1

    return AddressTrace(
        name=name,
        addresses=tuple(addresses),
        sels=tuple(sels),
        kind=KIND_MULTIPLEXED,
        stride=stride,
    )


# ---------------------------------------------------------------------------
# DMA / I/O traffic
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DmaProfile:
    """Direct-memory-access traffic: long sequential block transfers.

    The paper's introduction names DMA from the I/O controllers as one of
    the traffic classes on the system address bus.  DMA streams are the
    T0-friendliest traffic there is: kilobyte-scale sequential bursts with
    only occasional descriptor fetches between blocks.
    """

    block_words_mean: float = 256.0  # words per transfer block
    descriptor_accesses: int = 2  # control-structure touches between blocks
    buffer_base: int = layout.HEAP_BASE + 0x8_0000
    buffer_span: int = 0x8_0000
    descriptor_base: int = layout.DATA_BASE + 0x8000


def dma_stream(
    length: int,
    profile: Optional[DmaProfile] = None,
    seed: int = 0,
    name: str = "synthetic.dma",
) -> AddressTrace:
    """A DMA engine's address stream: block bursts + descriptor fetches."""
    profile = profile or DmaProfile()
    rng = random.Random(seed + 0xD3A)
    addresses: List[int] = []
    while len(addresses) < length:
        for index in range(profile.descriptor_accesses):
            addresses.append(
                (profile.descriptor_base + WORD * (2 * index)) & layout.ADDRESS_MASK
            )
            if len(addresses) >= length:
                break
        pointer = layout.align(
            profile.buffer_base + rng.randrange(profile.buffer_span)
        )
        for _ in range(max(1, int(_geometric(rng, profile.block_words_mean)))):
            addresses.append(pointer & layout.ADDRESS_MASK)
            pointer += WORD
            if len(addresses) >= length:
                break
    return AddressTrace(
        name=name,
        addresses=tuple(addresses[:length]),
        kind=KIND_DATA,
    )


# ---------------------------------------------------------------------------
# Elementary streams used by Table 1 cross-checks and unit tests
# ---------------------------------------------------------------------------


def random_stream(
    length: int, width: int = 32, seed: int = 0, name: str = "synthetic.random"
) -> AddressTrace:
    """Independent uniformly distributed addresses (Table 1 'random' row)."""
    rng = random.Random(seed)
    return AddressTrace(
        name=name,
        addresses=tuple(rng.randrange(1 << width) for _ in range(length)),
        kind=KIND_DATA,
        width=width,
        stride=WORD,
    )


def sequential_stream(
    length: int,
    start: int = layout.TEXT_BASE,
    stride: int = WORD,
    width: int = 32,
    name: str = "synthetic.sequential",
) -> AddressTrace:
    """Perfectly consecutive addresses (Table 1 'in-sequence' row)."""
    mask = (1 << width) - 1
    return AddressTrace(
        name=name,
        addresses=tuple((start + i * stride) & mask for i in range(length)),
        kind=KIND_INSTRUCTION,
        width=width,
        stride=stride,
    )
