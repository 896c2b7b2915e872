"""The bit-plane ``Netlist.simulate`` against the scalar oracle.

``tests/rtl_oracle.py`` evaluates every gate on every cycle; the bit-plane
simulator evaluates each gate once per block over whole cycle columns and
settles flops by fixed-point iteration.  Both must agree exactly: per-cycle
outputs and per-net toggle counts, across block boundaries, for every gate
type and for the worst-case (bus-invert) feedback.
"""

import itertools
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.word import EncodedWord
from repro.rtl import netlist as netlist_module
from repro.rtl.codecs import DECODER_BUILDERS, ENCODER_BUILDERS
from repro.rtl.gates import ALL_GATES
from repro.rtl.netlist import BLOCK_CYCLES, Netlist
from repro.tracegen import get_profile, multiplexed_trace

from tests.rtl_oracle import simulate_scalar

B = BLOCK_CYCLES
LENGTHS = [0, 1, 2, B - 1, B, B + 1, 3 * B + 5]
COMBINATIONAL = [spec for name, spec in ALL_GATES.items() if name != "DFF"]


def assert_matches_oracle(netlist, vectors):
    result = netlist.simulate(vectors)
    expected = simulate_scalar(netlist, vectors)
    assert result.cycles == expected.cycles == len(vectors)
    assert result.net_toggles == expected.net_toggles
    assert result.outputs == expected.outputs
    return result


@pytest.mark.parametrize("spec", COMBINATIONAL, ids=lambda spec: spec.name)
def test_every_gate_matches_its_truth_table(spec):
    nl = Netlist(spec.name)
    pins = nl.add_inputs("x", spec.arity)
    nl.mark_output(nl.add_gate(spec, *pins), "y")
    vectors = [list(row) for row in itertools.product((0, 1), repeat=spec.arity)]
    result = nl.simulate(vectors)
    assert [row[0] for row in result.outputs] == [
        spec.evaluate(tuple(row)) for row in vectors
    ]


@st.composite
def sequential_netlists(draw):
    """Every gate type, both constants, flops of both init values whose D is
    driven by gates built after them (feedback)."""
    nl = Netlist("random")
    nets = nl.add_inputs("x", draw(st.integers(1, 3)))
    nets += [nl.const(0), nl.const(1)]
    flops = []
    for index in range(draw(st.integers(1, 3))):
        handle, q = nl.add_dff(init=draw(st.integers(0, 1)), name=f"q{index}")
        flops.append(handle)
        nets.append(q)
    extra = draw(st.lists(st.sampled_from(COMBINATIONAL), max_size=6))
    for spec in COMBINATIONAL + extra:
        fanins = [draw(st.sampled_from(nets)) for _ in range(spec.arity)]
        nets.append(nl.add_gate(spec, *fanins))
    for handle in flops:
        nl.drive_dff(handle, draw(st.sampled_from(nets)))
    outputs = draw(st.lists(st.sampled_from(nets), min_size=1, max_size=4))
    for index, net in enumerate(outputs):
        nl.mark_output(net, f"y{index}")
    return nl


@pytest.mark.parametrize("length", LENGTHS)
@settings(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(netlist=sequential_netlists(), seed=st.integers(0, 2**16))
def test_random_sequential_netlists_match_oracle(length, netlist, seed):
    rng = random.Random(seed)
    width = len(netlist.inputs)
    vectors = [[rng.randrange(2) for _ in range(width)] for _ in range(length)]
    assert_matches_oracle(netlist, vectors)


def test_toggle_across_a_block_boundary_is_counted():
    nl = Netlist("edge")
    x = nl.add_input("x")
    nl.mark_output(nl.add_gate(ALL_GATES["BUF"], x), "y")
    vectors = [[0]] * B + [[1]] * B
    result = assert_matches_oracle(nl, vectors)
    assert result.net_toggles == [1, 1]


@pytest.fixture(scope="module")
def gzip_stream():
    trace = multiplexed_trace(get_profile("gzip"), 1300)
    assert len(trace.addresses) > B  # crosses a block boundary
    return list(trace.addresses), list(trace.effective_sels())


@pytest.mark.parametrize("name", sorted(ENCODER_BUILDERS))
def test_codec_circuits_match_oracle_on_gzip(name, gzip_stream):
    addresses, sels = gzip_stream
    encoder = ENCODER_BUILDERS[name](32)
    enc_result, words = encoder.run(addresses, sels)
    decoder = DECODER_BUILDERS[name](32)
    dec_result, decoded = decoder.run(words, sels)
    assert decoded == addresses
    enc_vectors = [
        _bits(address, 32) + ([sel] if encoder.uses_sel else [])
        for address, sel in zip(addresses, sels)
    ]
    dec_vectors = [
        _bits(word.bus, 32) + list(word.extras) + ([sel] if decoder.uses_sel else [])
        for word, sel in zip(words, sels)
    ]
    for netlist, vectors, result in (
        (encoder.netlist, enc_vectors, enc_result),
        (decoder.netlist, dec_vectors, dec_result),
    ):
        expected = simulate_scalar(netlist, vectors)
        assert result.net_toggles == expected.net_toggles
        assert result.outputs == expected.outputs


def _bits(value, width):
    return [(value >> i) & 1 for i in range(width)]


def test_long_random_bus_invert_stream_matches_oracle_in_linear_sweeps(monkeypatch):
    rng = random.Random(18)
    width = 16
    addresses = [rng.randrange(1 << width) for _ in range(2 * B + 300)]
    netlist = ENCODER_BUILDERS["bus-invert"](width).netlist
    vectors = [_bits(address, width) for address in addresses]
    sweeps = []
    real_sweep = netlist_module._sweep
    monkeypatch.setattr(
        netlist_module,
        "_sweep",
        lambda *args: sweeps.append(1) or real_sweep(*args),
    )
    assert_matches_oracle(netlist, vectors)
    blocks = -(-len(vectors) // B)
    # Each block settles within B + 1 sweeps: linear in the stream length.
    assert len(sweeps) <= blocks * (B + 1)
    # Bus-invert feedback really is the slow case: most cycles need a sweep.
    assert len(sweeps) > len(vectors) // 2


class TestHarnessInputChecks:
    def test_address_wider_than_circuit_is_rejected(self):
        with pytest.raises(ValueError, match="0x1234 at index 2"):
            ENCODER_BUILDERS["t0"](8).run([0x10, 0x14, 0x1234, 0x18])

    def test_negative_address_is_rejected(self):
        with pytest.raises(ValueError, match="index 1"):
            ENCODER_BUILDERS["binary"](8).run([0x10, -4])

    def test_bus_word_wider_than_decoder_is_rejected(self):
        _, words = ENCODER_BUILDERS["t0"](16).run([0x10, 0x1234])
        with pytest.raises(ValueError, match="0x1234 at index 1"):
            DECODER_BUILDERS["t0"](8).run(words)

    @pytest.mark.parametrize("count", [1, 3])
    def test_sels_length_must_match_stream(self, count):
        with pytest.raises(ValueError, match="SEL"):
            ENCODER_BUILDERS["dualt0"](8).run([0x10, 0x14], [1] * count)
        _, words = ENCODER_BUILDERS["dualt0"](8).run([0x10, 0x14], [1, 1])
        with pytest.raises(ValueError, match="SEL"):
            DECODER_BUILDERS["dualt0"](8).run(words, [1] * count)

    def test_redundant_line_count_must_match_decoder(self):
        words = [EncodedWord(0x10, (0,)), EncodedWord(0x14, ())]
        with pytest.raises(ValueError, match="word 1 carries 0 redundant lines"):
            DECODER_BUILDERS["t0"](8).run(words)
