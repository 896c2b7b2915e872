"""Structural (gate-level) codec circuits — paper Section 4.1.

Builders for the encoder/decoder netlists of the binary, T0, bus-invert,
dual T0 and dual T0_BI codes, assembled from the library blocks:

* the T0 section is a previous-address register, a constant-stride
  incrementer and an equality comparator producing ``INC``;
* the bus-invert section is a Hamming-distance evaluator (XOR word into a
  carry-save popcount tree) followed by a majority voter (magnitude
  comparator against ``N/2``) producing ``INV``;
* the output stage is a word multiplexer steered by ``SEL`` and
  ``INCV = INC + INV`` with XOR-based conditional inversion.

Every circuit is functionally equivalent to its behavioural model in
:mod:`repro.core` (verified by the integration tests), so the power numbers
of Tables 8/9 are measured on hardware that provably implements the codes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.base import SEL_INSTRUCTION
from repro.core.word import EncodedWord
from repro.rtl import blocks
from repro.rtl.gates import AND2, INV, OR2, XOR2
from repro.rtl.netlist import Netlist, NetId, SimulationResult


def _word_bits(values: Sequence[int], width: int, what: str) -> np.ndarray:
    """``values`` as a cycles x ``width`` 0/1 matrix, LSB first.

    Raises ``ValueError`` naming the first value that is negative or needs
    more than ``width`` bits, instead of silently dropping its high bits.
    """
    limit = 1 << width
    if len(values) and (min(values) < 0 or max(values) >= limit):
        index, value = next(
            (i, v) for i, v in enumerate(values) if not 0 <= v < limit
        )
        raise ValueError(
            f"{what} {value:#x} at index {index} does not fit in {width} bits"
        )
    dtype = np.uint64 if width <= 64 else object
    words = np.asarray(values, dtype=dtype).reshape(-1, 1)
    return ((words >> np.arange(width).astype(dtype)) & 1).astype(np.uint8)


def _bits_to_ints(bits: np.ndarray) -> List[int]:
    """Each row of a 0/1 matrix (LSB first) as an int."""
    width = bits.shape[1]
    dtype = np.uint64 if width <= 64 else object
    weights = np.array([1 << i for i in range(width)], dtype=dtype)
    return (bits.astype(dtype) * weights).sum(axis=1).tolist()


def _output_matrix(result: SimulationResult) -> np.ndarray:
    """The per-cycle output tuples as a cycles x outputs 0/1 matrix."""
    flat = bytes(chain.from_iterable(result.outputs))
    shape = (result.cycles, len(result.netlist.outputs))
    return np.frombuffer(flat, dtype=np.uint8).reshape(shape)


def _sel_column(sels: Optional[Sequence[int]], cycles: int) -> np.ndarray:
    """The ``SEL`` input column; ``None`` means all-instruction."""
    if sels is None:
        return np.full((cycles, 1), SEL_INSTRUCTION, dtype=np.uint8)
    if len(sels) != cycles:
        raise ValueError(f"{len(sels)} SEL values for {cycles} cycles")
    return np.asarray(sels).reshape(cycles, 1)


def _output_names(netlist: Netlist) -> List[str]:
    return [name for name, _ in netlist.outputs]


def _input_names(netlist: Netlist) -> List[str]:
    return [netlist.net_name(net) for net in netlist.inputs]


def _bus_width(names: Sequence[str], prefix: str) -> int:
    """Length of the contiguous ``prefix[0..n-1]`` word within ``names``."""
    present = set(names)
    width = 0
    while f"{prefix}[{width}]" in present:
        width += 1
    return width


@dataclass
class EncoderCircuit:
    """A gate-level encoder plus the harness to drive it.

    ``width``, ``extra_lines`` and ``uses_sel`` are *derived* from the
    netlist's primary input/output lists — the netlist is the single
    source of truth, so the metadata cannot drift from the circuit (the
    historical failure mode rule CK001/CK002 linted for).
    """

    name: str
    netlist: Netlist

    @property
    def width(self) -> int:
        """Bus width: the length of the ``B[...]`` output word."""
        return _bus_width(_output_names(self.netlist), "B")

    @property
    def extra_lines(self) -> Tuple[str, ...]:
        """Redundant-line outputs, in output order (after the bus word)."""
        return tuple(
            name
            for name in _output_names(self.netlist)
            if not name.startswith("B[")
        )

    @property
    def uses_sel(self) -> bool:
        """True when the circuit takes the instruction/data ``SEL`` pin."""
        return "SEL" in _input_names(self.netlist)

    def run(
        self,
        addresses: Sequence[int],
        sels: Optional[Sequence[int]] = None,
    ) -> Tuple[SimulationResult, List[EncodedWord]]:
        """Simulate the encoder over an address stream.

        Returns the raw simulation result (for power estimation) and the
        encoded words recovered from the primary outputs.
        """
        sel = _sel_column(sels, len(addresses))
        width = self.width
        columns = [_word_bits(addresses, width, "address")]
        if self.uses_sel:
            columns.append(sel)
        result = self.netlist.simulate(np.hstack(columns))
        outputs = _output_matrix(result)
        extras = outputs[:, width : width + len(self.extra_lines)].tolist()
        words = [
            EncodedWord(bus, tuple(lines))
            for bus, lines in zip(_bits_to_ints(outputs[:, :width]), extras)
        ]
        return result, words


@dataclass
class DecoderCircuit:
    """A gate-level decoder plus the harness to drive it.

    Metadata derives from the netlist exactly as for
    :class:`EncoderCircuit`; a decoder's redundant lines are its primary
    *inputs* beyond the bus word and ``SEL``.
    """

    name: str
    netlist: Netlist

    @property
    def width(self) -> int:
        """Bus width: the length of the ``addr[...]`` output word."""
        return _bus_width(_output_names(self.netlist), "addr")

    @property
    def extra_lines(self) -> Tuple[str, ...]:
        """Redundant-line inputs, in input order (after the bus word)."""
        return tuple(
            name
            for name in _input_names(self.netlist)
            if not name.startswith("B[") and name != "SEL"
        )

    @property
    def uses_sel(self) -> bool:
        """True when the circuit takes the instruction/data ``SEL`` pin."""
        return "SEL" in _input_names(self.netlist)

    def run(
        self,
        words: Sequence[EncodedWord],
        sels: Optional[Sequence[int]] = None,
    ) -> Tuple[SimulationResult, List[int]]:
        """Simulate the decoder over an encoded word stream."""
        sel = _sel_column(sels, len(words))
        width = self.width
        extra_count = len(self.extra_lines)
        extras = [word.extras for word in words]
        wrong = [i for i, lines in enumerate(extras) if len(lines) != extra_count]
        if wrong:
            raise ValueError(
                f"word {wrong[0]} carries {len(extras[wrong[0]])} redundant "
                f"lines, the {self.name} decoder takes {extra_count}"
            )
        columns = [
            _word_bits([word.bus for word in words], width, "bus word"),
            np.array(extras, dtype=np.uint8).reshape(len(words), extra_count),
        ]
        if self.uses_sel:
            columns.append(sel)
        result = self.netlist.simulate(np.hstack(columns))
        outputs = _output_matrix(result)
        addresses = _bits_to_ints(outputs[:, :width])
        return result, addresses


# ---------------------------------------------------------------------------
# Binary
# ---------------------------------------------------------------------------


def build_binary_encoder(width: int = 32) -> EncoderCircuit:
    """The binary 'encoder': one buffer per line (drives the bus/pads)."""
    nl = Netlist("binary-encoder")
    address = nl.add_inputs("b", width)
    for index, net in enumerate(blocks.buffer_word(nl, address)):
        nl.mark_output(net, f"B[{index}]")
    return EncoderCircuit("binary", nl)


def build_binary_decoder(width: int = 32) -> DecoderCircuit:
    """The binary 'decoder': input buffers."""
    nl = Netlist("binary-decoder")
    bus = nl.add_inputs("B", width)
    for index, net in enumerate(blocks.buffer_word(nl, bus)):
        nl.mark_output(net, f"addr[{index}]")
    return DecoderCircuit("binary", nl)


# ---------------------------------------------------------------------------
# T0
# ---------------------------------------------------------------------------


def build_t0_encoder(width: int = 32, stride: int = 4) -> EncoderCircuit:
    """T0 encoder: previous-address register + incrementer + comparator."""
    nl = Netlist("t0-encoder")
    address = nl.add_inputs("b", width)

    prev_handles, prev_q = blocks.register(nl, width, name="prev_addr")
    bus_handles, bus_q = blocks.register(nl, width, name="bus_reg")
    valid_handle, valid_q = nl.add_dff(init=0, name="valid")

    prediction = blocks.add_const(nl, prev_q, stride)
    is_sequential = blocks.equal_words(nl, address, prediction)
    inc = nl.add_gate(AND2, is_sequential, valid_q, name="INC")

    bus_out = blocks.mux_word(nl, inc, bus_q, address)

    blocks.drive_register(nl, prev_handles, address)
    blocks.drive_register(nl, bus_handles, bus_out)
    nl.drive_dff(valid_handle, nl.const(1))

    for index, net in enumerate(bus_out):
        nl.mark_output(net, f"B[{index}]")
    nl.mark_output(inc, "INC")
    return EncoderCircuit("t0", nl)


def build_t0_decoder(width: int = 32, stride: int = 4) -> DecoderCircuit:
    """T0 decoder: previous-address register + incrementer + mux."""
    nl = Netlist("t0-decoder")
    bus = nl.add_inputs("B", width)
    inc = nl.add_input("INC")

    prev_handles, prev_q = blocks.register(nl, width, name="prev_addr")
    prediction = blocks.add_const(nl, prev_q, stride)
    address = blocks.mux_word(nl, inc, prediction, bus)
    blocks.drive_register(nl, prev_handles, address)

    for index, net in enumerate(address):
        nl.mark_output(net, f"addr[{index}]")
    return DecoderCircuit("t0", nl)


# ---------------------------------------------------------------------------
# Bus-invert
# ---------------------------------------------------------------------------


def _majority_voter(
    nl: Netlist,
    difference_bits: Sequence[NetId],
    threshold: int,
) -> NetId:
    """Popcount the difference word and compare against ``threshold``."""
    count = blocks.popcount(nl, difference_bits)
    return blocks.greater_than_const(nl, count, threshold)


def build_businvert_encoder(width: int = 32) -> EncoderCircuit:
    """Bus-invert encoder: Hamming evaluator + majority voter + XOR stage."""
    nl = Netlist("businvert-encoder")
    address = nl.add_inputs("b", width)

    bus_handles, bus_q = blocks.register(nl, width, name="bus_reg")
    inv_handle, inv_q = nl.add_dff(init=0, name="inv_reg")

    difference = blocks.xor_word(nl, bus_q, address)
    # H counts the INV wire too: previous INV vs candidate 0 adds inv_q.
    invert = _majority_voter(nl, list(difference) + [inv_q], width // 2)

    bus_out = [nl.add_gate(XOR2, bit, invert) for bit in address]
    blocks.drive_register(nl, bus_handles, bus_out)
    nl.drive_dff(inv_handle, invert)

    for index, net in enumerate(bus_out):
        nl.mark_output(net, f"B[{index}]")
    nl.mark_output(invert, "INV")
    return EncoderCircuit("bus-invert", nl)


def build_businvert_decoder(width: int = 32) -> DecoderCircuit:
    """Bus-invert decoder: conditional re-inversion."""
    nl = Netlist("businvert-decoder")
    bus = nl.add_inputs("B", width)
    inv = nl.add_input("INV")
    for index, bit in enumerate(bus):
        nl.mark_output(nl.add_gate(XOR2, bit, inv), f"addr[{index}]")
    return DecoderCircuit("bus-invert", nl)


# ---------------------------------------------------------------------------
# T0_BI
# ---------------------------------------------------------------------------


def build_t0bi_encoder(width: int = 32, stride: int = 4) -> EncoderCircuit:
    """T0_BI encoder: T0 section + bus-invert section, two redundant lines.

    The Hamming evaluator spans ``N + 2`` wires (bus, INC, INV) and the
    majority voter threshold is ``(N + 2) / 2`` (paper Equation 6).
    """
    nl = Netlist("t0bi-encoder")
    address = nl.add_inputs("b", width)

    prev_handles, prev_q = blocks.register(nl, width, name="prev_addr")
    bus_handles, bus_q = blocks.register(nl, width, name="bus_reg")
    inc_handle, inc_q = nl.add_dff(init=0, name="inc_reg")
    inv_handle, inv_q = nl.add_dff(init=0, name="inv_reg")
    valid_handle, valid_q = nl.add_dff(init=0, name="valid")

    # T0 section.
    prediction = blocks.add_const(nl, prev_q, stride)
    is_sequential = blocks.equal_words(nl, address, prediction)
    inc = nl.add_gate(AND2, is_sequential, valid_q, name="INC")
    not_inc = nl.add_gate(INV, inc)

    # Bus-invert section over N + 2 wires.
    difference = blocks.xor_word(nl, bus_q, address)
    majority = _majority_voter(
        nl, list(difference) + [inc_q, inv_q], (width + 2) // 2
    )
    inv = nl.add_gate(AND2, not_inc, majority, name="INV")

    inverted = [nl.add_gate(XOR2, bit, inv) for bit in address]
    bus_out = blocks.mux_word(nl, inc, bus_q, inverted)

    blocks.drive_register(nl, prev_handles, address)
    blocks.drive_register(nl, bus_handles, bus_out)
    nl.drive_dff(inc_handle, inc)
    nl.drive_dff(inv_handle, inv)
    nl.drive_dff(valid_handle, nl.const(1))

    for index, net in enumerate(bus_out):
        nl.mark_output(net, f"B[{index}]")
    nl.mark_output(inc, "INC")
    nl.mark_output(inv, "INV")
    return EncoderCircuit("t0bi", nl)


def build_t0bi_decoder(width: int = 32, stride: int = 4) -> DecoderCircuit:
    """T0_BI decoder (paper Equation 7)."""
    nl = Netlist("t0bi-decoder")
    bus = nl.add_inputs("B", width)
    inc = nl.add_input("INC")
    inv = nl.add_input("INV")

    prev_handles, prev_q = blocks.register(nl, width, name="prev_addr")
    prediction = blocks.add_const(nl, prev_q, stride)
    uninverted = [nl.add_gate(XOR2, bit, inv) for bit in bus]
    address = blocks.mux_word(nl, inc, prediction, uninverted)
    blocks.drive_register(nl, prev_handles, address)

    for index, net in enumerate(address):
        nl.mark_output(net, f"addr[{index}]")
    return DecoderCircuit("t0bi", nl)


# ---------------------------------------------------------------------------
# Dual T0
# ---------------------------------------------------------------------------


def build_dualt0_encoder(width: int = 32, stride: int = 4) -> EncoderCircuit:
    """Dual T0 encoder: T0 section gated by SEL, SEL-enabled reference reg."""
    nl = Netlist("dualt0-encoder")
    address = nl.add_inputs("b", width)
    sel = nl.add_input("SEL")

    ref_handles, ref_q = blocks.register(nl, width, name="ref_addr")
    bus_handles, bus_q = blocks.register(nl, width, name="bus_reg")
    valid_handle, valid_q = nl.add_dff(init=0, name="ref_valid")

    prediction = blocks.add_const(nl, ref_q, stride)
    is_sequential = blocks.equal_words(nl, address, prediction)
    inc = nl.add_gate(
        AND2, sel, nl.add_gate(AND2, is_sequential, valid_q), name="INC"
    )

    bus_out = blocks.mux_word(nl, inc, bus_q, address)

    # Reference register holds unless SEL is asserted (Equation 9).
    blocks.drive_register(
        nl, ref_handles, blocks.mux_word(nl, sel, address, ref_q)
    )
    blocks.drive_register(nl, bus_handles, bus_out)
    nl.drive_dff(valid_handle, nl.add_gate(OR2, sel, valid_q))

    for index, net in enumerate(bus_out):
        nl.mark_output(net, f"B[{index}]")
    nl.mark_output(inc, "INC")
    return EncoderCircuit("dualt0", nl)


def build_dualt0_decoder(width: int = 32, stride: int = 4) -> DecoderCircuit:
    """Dual T0 decoder (Equation 10)."""
    nl = Netlist("dualt0-decoder")
    bus = nl.add_inputs("B", width)
    inc = nl.add_input("INC")
    sel = nl.add_input("SEL")

    ref_handles, ref_q = blocks.register(nl, width, name="ref_addr")
    prediction = blocks.add_const(nl, ref_q, stride)
    address = blocks.mux_word(nl, inc, prediction, bus)
    blocks.drive_register(
        nl, ref_handles, blocks.mux_word(nl, sel, address, ref_q)
    )

    for index, net in enumerate(address):
        nl.mark_output(net, f"addr[{index}]")
    return DecoderCircuit("dualt0", nl)


# ---------------------------------------------------------------------------
# Dual T0_BI
# ---------------------------------------------------------------------------


def build_dualt0bi_encoder(width: int = 32, stride: int = 4) -> EncoderCircuit:
    """Dual T0_BI encoder (paper Section 4.1 architecture).

    A T0 section producing ``INC``, a bus-invert section producing ``INV``
    and the output multiplexer steered by ``SEL`` and ``INCV = INC + INV``.
    """
    nl = Netlist("dualt0bi-encoder")
    address = nl.add_inputs("b", width)
    sel = nl.add_input("SEL")
    not_sel = nl.add_gate(INV, sel)

    ref_handles, ref_q = blocks.register(nl, width, name="ref_addr")
    bus_handles, bus_q = blocks.register(nl, width, name="bus_reg")
    incv_handle, incv_q = nl.add_dff(init=0, name="incv_reg")
    valid_handle, valid_q = nl.add_dff(init=0, name="ref_valid")

    # T0 section.
    prediction = blocks.add_const(nl, ref_q, stride)
    is_sequential = blocks.equal_words(nl, address, prediction)
    inc = nl.add_gate(
        AND2, sel, nl.add_gate(AND2, is_sequential, valid_q), name="INC"
    )

    # Bus-invert section: H over the N+1 wires (B | INCV).
    difference = blocks.xor_word(nl, bus_q, address)
    majority = _majority_voter(nl, list(difference) + [incv_q], width // 2)
    inv = nl.add_gate(AND2, not_sel, majority, name="INV")

    incv = nl.add_gate(OR2, inc, inv, name="INCV")

    # Output stage: conditional inversion then hold-mux.
    inverted = [nl.add_gate(XOR2, bit, inv) for bit in address]
    bus_out = blocks.mux_word(nl, inc, bus_q, inverted)

    blocks.drive_register(
        nl, ref_handles, blocks.mux_word(nl, sel, address, ref_q)
    )
    blocks.drive_register(nl, bus_handles, bus_out)
    nl.drive_dff(incv_handle, incv)
    nl.drive_dff(valid_handle, nl.add_gate(OR2, sel, valid_q))

    for index, net in enumerate(bus_out):
        nl.mark_output(net, f"B[{index}]")
    nl.mark_output(incv, "INCV")
    return EncoderCircuit("dualt0bi", nl)


def build_dualt0bi_decoder(width: int = 32, stride: int = 4) -> DecoderCircuit:
    """Dual T0_BI decoder (Equation 12, typo corrected)."""
    nl = Netlist("dualt0bi-decoder")
    bus = nl.add_inputs("B", width)
    incv = nl.add_input("INCV")
    sel = nl.add_input("SEL")
    not_sel = nl.add_gate(INV, sel)

    ref_handles, ref_q = blocks.register(nl, width, name="ref_addr")
    prediction = blocks.add_const(nl, ref_q, stride)

    use_prediction = nl.add_gate(AND2, incv, sel)
    use_inversion = nl.add_gate(AND2, incv, not_sel)
    uninverted = [nl.add_gate(XOR2, bit, use_inversion) for bit in bus]
    address = blocks.mux_word(nl, use_prediction, prediction, uninverted)

    blocks.drive_register(
        nl, ref_handles, blocks.mux_word(nl, sel, address, ref_q)
    )

    for index, net in enumerate(address):
        nl.mark_output(net, f"addr[{index}]")
    return DecoderCircuit("dualt0bi", nl)


#: Builders keyed by code name — the circuits Tables 8/9 sweep.
ENCODER_BUILDERS = {
    "binary": build_binary_encoder,
    "t0": build_t0_encoder,
    "t0bi": build_t0bi_encoder,
    "bus-invert": build_businvert_encoder,
    "dualt0": build_dualt0_encoder,
    "dualt0bi": build_dualt0bi_encoder,
}

DECODER_BUILDERS = {
    "binary": build_binary_decoder,
    "t0": build_t0_decoder,
    "t0bi": build_t0bi_decoder,
    "bus-invert": build_businvert_decoder,
    "dualt0": build_dualt0_decoder,
    "dualt0bi": build_dualt0bi_decoder,
}
