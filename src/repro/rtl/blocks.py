"""Word-level structural building blocks.

These compose library gates into the datapath pieces the paper's codec
architectures need (Section 4.1): XOR difference words, population-count
trees (the Hamming-distance evaluator), the majority voter (a magnitude
comparator against a constant threshold), constant-stride incrementers,
equality comparators, registers and word multiplexers.

All word buses are lists of net ids, LSB first.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.rtl.gates import AND2, BUF, INV, MUX2, OR2, XNOR2, XOR2
from repro.rtl.netlist import NetId, Netlist


def buffer_word(nl: Netlist, word: Sequence[NetId]) -> List[NetId]:
    """A buffer per line (the binary 'encoder' is just this)."""
    return [nl.add_gate(BUF, net) for net in word]


def xor_word(
    nl: Netlist, a: Sequence[NetId], b: Sequence[NetId]
) -> List[NetId]:
    """Bitwise XOR of two equal-width words."""
    if len(a) != len(b):
        raise ValueError(f"width mismatch: {len(a)} vs {len(b)}")
    return [nl.add_gate(XOR2, x, y) for x, y in zip(a, b)]


def mux_word(
    nl: Netlist, select: NetId, when_true: Sequence[NetId], when_false: Sequence[NetId]
) -> List[NetId]:
    """Word-wide 2:1 multiplexer."""
    if len(when_true) != len(when_false):
        raise ValueError(
            f"width mismatch: {len(when_true)} vs {len(when_false)}"
        )
    return [
        nl.add_gate(MUX2, select, t, f)
        for t, f in zip(when_true, when_false)
    ]


def register(
    nl: Netlist, width: int, init: int = 0, name: str = "reg"
) -> Tuple[List[int], List[NetId]]:
    """A bank of DFFs; returns ``(handles, q_nets)`` (drive with
    :func:`drive_register`)."""
    handles: List[int] = []
    q_nets: List[NetId] = []
    for i in range(width):
        handle, q = nl.add_dff(init=(init >> i) & 1, name=f"{name}[{i}]")
        handles.append(handle)
        q_nets.append(q)
    return handles, q_nets


def drive_register(
    nl: Netlist, handles: Sequence[int], d_word: Sequence[NetId]
) -> None:
    """Connect a register bank's D inputs."""
    if len(handles) != len(d_word):
        raise ValueError(f"width mismatch: {len(handles)} vs {len(d_word)}")
    for handle, net in zip(handles, d_word):
        nl.drive_dff(handle, net)


def half_adder(nl: Netlist, a: NetId, b: NetId) -> Tuple[NetId, NetId]:
    """Returns ``(sum, carry)``."""
    return nl.add_gate(XOR2, a, b), nl.add_gate(AND2, a, b)


def full_adder(nl: Netlist, a: NetId, b: NetId, c: NetId) -> Tuple[NetId, NetId]:
    """Returns ``(sum, carry)``."""
    ab = nl.add_gate(XOR2, a, b)
    total = nl.add_gate(XOR2, ab, c)
    carry = nl.add_gate(OR2, nl.add_gate(AND2, a, b), nl.add_gate(AND2, ab, c))
    return total, carry


def popcount(nl: Netlist, bits: Sequence[NetId]) -> List[NetId]:
    """Population count of ``bits`` as a binary word (LSB first).

    Built as a carry-save adder tree of full/half adders — the structure of
    the paper's Hamming-distance evaluator when fed the XOR difference word.
    """
    if not bits:
        return [nl.const(0)]
    # Each entry of `columns[w]` is a net of weight 2**w awaiting compression.
    columns: List[List[NetId]] = [list(bits)]
    while any(len(column) > 1 for column in columns):
        next_columns: List[List[NetId]] = [[] for _ in range(len(columns) + 1)]
        for weight, column in enumerate(columns):
            pending = list(column)
            while len(pending) >= 3:
                a, b, c = pending.pop(), pending.pop(), pending.pop()
                total, carry = full_adder(nl, a, b, c)
                next_columns[weight].append(total)
                next_columns[weight + 1].append(carry)
            if len(pending) == 2:
                a, b = pending.pop(), pending.pop()
                total, carry = half_adder(nl, a, b)
                next_columns[weight].append(total)
                next_columns[weight + 1].append(carry)
            elif pending:
                next_columns[weight].append(pending.pop())
        while next_columns and not next_columns[-1]:
            next_columns.pop()
        columns = next_columns
    return [column[0] if column else nl.const(0) for column in columns]


def greater_than_const(
    nl: Netlist, word: Sequence[NetId], threshold: int
) -> NetId:
    """Single net asserting ``word > threshold`` (unsigned).

    Classic MSB-first magnitude comparator: at each bit position the result
    is decided when the operand bit exceeds the constant bit, carried down
    through equality otherwise.  With the popcount word as input this is the
    paper's *majority voter*.
    """
    if threshold < 0:
        raise ValueError(f"threshold must be non-negative, got {threshold}")
    if threshold >= (1 << len(word)):
        return nl.const(0)  # the word can never exceed the threshold
    result = nl.const(0)  # empty suffix: equal, not greater
    for position, bit in enumerate(word):  # LSB to MSB accumulation
        t_bit = (threshold >> position) & 1
        if t_bit:
            # word bit 1 and t bit 1 -> defer to lower bits (keep result)
            result = nl.add_gate(AND2, bit, result)
        else:
            # word bit 1 and t bit 0 -> greater regardless of lower bits
            result = nl.add_gate(OR2, bit, result)
    return result


def equal_words(
    nl: Netlist, a: Sequence[NetId], b: Sequence[NetId]
) -> NetId:
    """Single net asserting ``a == b``."""
    if len(a) != len(b):
        raise ValueError(f"width mismatch: {len(a)} vs {len(b)}")
    terms = [nl.add_gate(XNOR2, x, y) for x, y in zip(a, b)]
    return and_reduce(nl, terms)


def and_reduce(nl: Netlist, bits: Sequence[NetId]) -> NetId:
    """Balanced AND tree."""
    nets = list(bits)
    if not nets:
        return nl.const(1)
    while len(nets) > 1:
        nets = [
            nl.add_gate(AND2, nets[i], nets[i + 1])
            if i + 1 < len(nets)
            else nets[i]
            for i in range(0, len(nets), 2)
        ]
    return nets[0]


def add_const(
    nl: Netlist, word: Sequence[NetId], constant: int
) -> List[NetId]:
    """``word + constant`` modulo ``2**len(word)``.

    For the T0 family the constant is the stride ``S = 2**k``, so the adder
    reduces to an incrementer on the bits at and above position ``k``:
    ``carry into bit i = AND(word[k..i-1])``, built as a logarithmic-depth
    prefix-AND tree (the depth a synthesis tool would reach) rather than a
    32-level ripple — logic depth matters to the glitch-aware power model.
    General constants fall back to a ripple structure.
    """
    width = len(word)
    constant &= (1 << width) - 1
    if constant == 0:
        return [nl.add_gate(BUF, bit) for bit in word]
    if constant & (constant - 1) == 0:
        return _add_power_of_two(nl, word, constant.bit_length() - 1)
    return _add_ripple(nl, word, constant)


def _add_power_of_two(
    nl: Netlist, word: Sequence[NetId], k: int
) -> List[NetId]:
    width = len(word)
    result: List[NetId] = [nl.add_gate(BUF, word[i]) for i in range(k)]
    result.append(nl.add_gate(INV, word[k]))
    # prefixes[j] = AND(word[k .. k+j]) via a Kogge–Stone doubling tree:
    # log-depth, shared intermediate terms.  The carry chain only consumes
    # prefixes of word[k .. width-2], so the full-word prefix is never
    # built (it would be a dead gate — netlint rule NL004).
    prefixes: List[NetId] = list(word[k:-1])
    shift = 1
    while shift < len(prefixes):
        for j in range(len(prefixes) - 1, shift - 1, -1):
            prefixes[j] = nl.add_gate(AND2, prefixes[j], prefixes[j - shift])
        shift *= 2
    for i in range(k + 1, width):
        carry = prefixes[i - k - 1]
        result.append(nl.add_gate(XOR2, word[i], carry))
    return result


def _add_ripple(
    nl: Netlist, word: Sequence[NetId], constant: int
) -> List[NetId]:
    width = len(word)
    result: List[NetId] = []
    carry: NetId = nl.const(0)
    have_carry = False
    for position in range(width):
        bit = word[position]
        c_bit = (constant >> position) & 1
        if not have_carry:
            if c_bit:
                # First constant one: sum = ~bit, carry = bit.
                result.append(nl.add_gate(INV, bit))
                carry = bit
                have_carry = True
            else:
                result.append(nl.add_gate(BUF, bit))
        else:
            if c_bit:
                total = nl.add_gate(XNOR2, bit, carry)
                carry = nl.add_gate(OR2, bit, carry)
            else:
                total = nl.add_gate(XOR2, bit, carry)
                carry = nl.add_gate(AND2, bit, carry)
            result.append(total)
    return result
