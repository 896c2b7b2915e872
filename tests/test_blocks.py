"""Tests for the word-level structural building blocks."""


import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rtl import blocks
from repro.rtl.netlist import Netlist


def _drive(netlist, input_nets, values):
    """Build vectors for a single-cycle evaluation (two cycles for state)."""
    vector = [0] * len(netlist.inputs)
    position = {net: i for i, net in enumerate(netlist.inputs)}
    for net, value in zip(input_nets, values):
        vector[position[net]] = value
    return vector


def _eval_combinational(build, width_a, values_a, width_b=0, values_b=()):
    """Helper: build a block over fresh inputs, simulate one vector, return
    the output bits as an int."""
    nl = Netlist()
    a = nl.add_inputs("a", width_a)
    b = nl.add_inputs("b", width_b) if width_b else []
    outputs = build(nl, a, b)
    for i, net in enumerate(outputs):
        nl.mark_output(net, f"o[{i}]")
    bits_a = [(values_a >> i) & 1 for i in range(width_a)]
    bits_b = [(values_b >> i) & 1 for i in range(width_b)] if width_b else []
    result = nl.simulate([bits_a + bits_b])
    return sum(bit << i for i, bit in enumerate(result.outputs[0]))


class TestWordOps:
    @given(
        st.integers(min_value=0, max_value=255),
        st.integers(min_value=0, max_value=255),
    )
    def test_xor_word(self, a, b):
        got = _eval_combinational(
            lambda nl, x, y: blocks.xor_word(nl, x, y), 8, a, 8, b
        )
        assert got == a ^ b

    @given(st.integers(min_value=0, max_value=255))
    def test_buffer_word(self, a):
        got = _eval_combinational(
            lambda nl, x, _: blocks.buffer_word(nl, x), 8, a
        )
        assert got == a

    def test_width_mismatch_rejected(self):
        nl = Netlist()
        a = nl.add_inputs("a", 4)
        b = nl.add_inputs("b", 3)
        with pytest.raises(ValueError):
            blocks.xor_word(nl, a, b)
        with pytest.raises(ValueError):
            blocks.mux_word(nl, a[0], a, b)

    @given(
        st.integers(min_value=0, max_value=255),
        st.integers(min_value=0, max_value=255),
        st.integers(min_value=0, max_value=1),
    )
    def test_mux_word(self, a, b, select):
        nl = Netlist()
        sel = nl.add_input("sel")
        x = nl.add_inputs("x", 8)
        y = nl.add_inputs("y", 8)
        out = blocks.mux_word(nl, sel, x, y)
        for i, net in enumerate(out):
            nl.mark_output(net, f"o[{i}]")
        vector = [select] + [(a >> i) & 1 for i in range(8)] + [
            (b >> i) & 1 for i in range(8)
        ]
        result = nl.simulate([vector])
        got = sum(bit << i for i, bit in enumerate(result.outputs[0]))
        assert got == (a if select else b)


class TestArithmeticBlocks:
    @given(st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=24))
    @settings(max_examples=40)
    def test_popcount(self, bits):
        nl = Netlist()
        nets = nl.add_inputs("a", len(bits))
        out = blocks.popcount(nl, nets)
        for i, net in enumerate(out):
            nl.mark_output(net, f"o[{i}]")
        result = nl.simulate([bits])
        got = sum(bit << i for i, bit in enumerate(result.outputs[0]))
        assert got == sum(bits)

    def test_popcount_empty(self):
        nl = Netlist()
        out = blocks.popcount(nl, [])
        nl.mark_output(out[0], "o")
        assert nl.simulate([[]]).outputs[0][0] == 0

    @given(
        st.integers(min_value=0, max_value=63),
        st.integers(min_value=0, max_value=70),
    )
    @settings(max_examples=60)
    def test_greater_than_const(self, value, threshold):
        nl = Netlist()
        nets = nl.add_inputs("a", 6)
        out = blocks.greater_than_const(nl, nets, threshold)
        nl.mark_output(out, "gt")
        result = nl.simulate([[(value >> i) & 1 for i in range(6)]])
        assert result.outputs[0][0] == int(value > threshold)

    def test_greater_than_negative_threshold_rejected(self):
        nl = Netlist()
        nets = nl.add_inputs("a", 4)
        with pytest.raises(ValueError):
            blocks.greater_than_const(nl, nets, -1)

    @given(
        st.integers(min_value=0, max_value=2**10 - 1),
        st.sampled_from([0, 1, 2, 3, 4, 8, 5, 6, 12, 1023]),
    )
    @settings(max_examples=60)
    def test_add_const(self, value, constant):
        got = _eval_combinational(
            lambda nl, x, _: blocks.add_const(nl, x, constant), 10, value
        )
        assert got == (value + constant) % 1024

    @given(
        st.integers(min_value=0, max_value=255),
        st.integers(min_value=0, max_value=255),
    )
    def test_equal_words(self, a, b):
        nl = Netlist()
        x = nl.add_inputs("x", 8)
        y = nl.add_inputs("y", 8)
        nl.mark_output(blocks.equal_words(nl, x, y), "eq")
        vector = [(a >> i) & 1 for i in range(8)] + [(b >> i) & 1 for i in range(8)]
        assert nl.simulate([vector]).outputs[0][0] == int(a == b)

    @given(st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=12))
    def test_reductions(self, bits):
        nl = Netlist()
        nets = nl.add_inputs("a", len(bits))
        nl.mark_output(blocks.and_reduce(nl, nets), "and")
        row = nl.simulate([bits]).outputs[0]
        assert row[0] == int(all(bits))

    def test_empty_reductions(self):
        nl = Netlist()
        assert nl.simulate  # netlist exists
        and_net = blocks.and_reduce(nl, [])
        nl.mark_output(and_net, "and")
        row = nl.simulate([[]]).outputs[0]
        assert row == (1,)

    def test_full_adder_truth_table(self):
        for a in (0, 1):
            for b in (0, 1):
                for c in (0, 1):
                    nl = Netlist()
                    nets = nl.add_inputs("x", 3)
                    s, carry = blocks.full_adder(nl, *nets)
                    nl.mark_output(s, "s")
                    nl.mark_output(carry, "c")
                    row = nl.simulate([[a, b, c]]).outputs[0]
                    assert row[0] + 2 * row[1] == a + b + c


class TestRegisters:
    def test_register_roundtrip(self):
        nl = Netlist()
        d = nl.add_inputs("d", 4)
        handles, q = blocks.register(nl, 4, init=0b1010)
        blocks.drive_register(nl, handles, d)
        for i, net in enumerate(q):
            nl.mark_output(net, f"q[{i}]")
        result = nl.simulate([[1, 1, 0, 0], [0, 0, 0, 0]])
        first = sum(b << i for i, b in enumerate(result.outputs[0]))
        second = sum(b << i for i, b in enumerate(result.outputs[1]))
        assert first == 0b1010  # init value
        assert second == 0b0011  # captured first vector

    def test_drive_register_width_check(self):
        nl = Netlist()
        d = nl.add_inputs("d", 3)
        handles, _ = blocks.register(nl, 4)
        with pytest.raises(ValueError):
            blocks.drive_register(nl, handles, d)
