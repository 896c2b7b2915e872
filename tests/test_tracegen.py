"""Tests for traces, synthetic generators and the multiplexer."""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.base import SEL_DATA, SEL_INSTRUCTION
from repro.metrics import in_sequence_fraction
from repro.tracegen import (
    AddressTrace,
    DataProfile,
    InstructionProfile,
    MultiplexProfile,
    concatenate,
    layout,
    multiplex_streams,
    random_stream,
    sequential_stream,
    synthetic_data_stream,
    synthetic_instruction_stream,
)


class TestAddressTrace:
    def test_validation(self):
        with pytest.raises(ValueError):
            AddressTrace("x", (1, 2), kind="bogus")
        with pytest.raises(ValueError):
            AddressTrace("x", (1, 2), sels=(1,))
        with pytest.raises(ValueError):
            AddressTrace("x", (1 << 33,), width=32)
        with pytest.raises(ValueError):
            AddressTrace("x", (1, 2), kind="multiplexed")  # needs sels

    def test_effective_sels_defaults(self):
        instruction = AddressTrace("i", (1, 2), kind="instruction")
        data = AddressTrace("d", (1, 2), kind="data")
        assert instruction.effective_sels() == (SEL_INSTRUCTION,) * 2
        assert data.effective_sels() == (SEL_DATA,) * 2

    def test_head(self):
        trace = AddressTrace("x", tuple(range(10)))
        assert trace.head(3).addresses == (0, 1, 2)

    def test_slot_extraction(self):
        trace = AddressTrace(
            "m", (10, 20, 30), sels=(1, 0, 1), kind="multiplexed"
        )
        assert trace.instruction_slots().addresses == (10, 30)
        assert trace.data_slots().addresses == (20,)

    def test_save_load_roundtrip(self, tmp_path):
        trace = AddressTrace(
            "demo", (0x400000, 0x400004), sels=(1, 0), kind="multiplexed",
            stride=8,
        )
        path = tmp_path / "demo.trace"
        trace.save(path)
        loaded = AddressTrace.load(path)
        assert loaded.addresses == trace.addresses
        assert loaded.sels == trace.sels
        assert loaded.kind == "multiplexed"
        assert loaded.stride == 8
        assert loaded.name == "demo"

    def test_save_load_without_sels(self, tmp_path):
        trace = AddressTrace("plain", (1, 2, 3))
        path = tmp_path / "plain.trace"
        trace.save(path)
        loaded = AddressTrace.load(path)
        assert loaded.sels is None
        assert loaded.addresses == (1, 2, 3)

    @settings(
        max_examples=50,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        kind=st.sampled_from(["instruction", "data", "multiplexed"]),
        cycles=st.lists(
            st.tuples(st.integers(0, (1 << 32) - 1), st.integers(0, 1)),
            max_size=50,
        ),
    )
    @example(kind="multiplexed", cycles=[])
    def test_save_load_roundtrips_every_kind_and_length(
        self, tmp_path, kind, cycles
    ):
        """Including 0 cycles: an empty multiplexed trace keeps its (empty)
        SEL stream, which the file holds no row of."""
        trace = AddressTrace(
            "t",
            tuple(address for address, _ in cycles),
            sels=tuple(sel for _, sel in cycles) if kind == "multiplexed" else None,
            kind=kind,
        )
        path = tmp_path / "t.trace"
        trace.save(path)
        assert AddressTrace.load(path) == trace

    def test_concatenate(self):
        a = AddressTrace("a", (1, 2))
        b = AddressTrace("b", (3,))
        joined = concatenate([a, b], name="ab")
        assert joined.addresses == (1, 2, 3)
        assert joined.name == "ab"

    def test_concatenate_rejects_mismatch(self):
        a = AddressTrace("a", (1,), kind="instruction")
        b = AddressTrace("b", (2,), kind="data")
        with pytest.raises(ValueError):
            concatenate([a, b])
        with pytest.raises(ValueError):
            concatenate([])

    def test_statistics(self):
        trace = sequential_stream(100)
        stats = trace.statistics()
        assert stats.in_sequence == 1.0


class TestElementaryStreams:
    def test_sequential_stream(self):
        trace = sequential_stream(50, start=0x1000, stride=4)
        assert trace.addresses[0] == 0x1000
        assert trace.addresses[-1] == 0x1000 + 49 * 4
        assert in_sequence_fraction(trace.addresses, 4) == 1.0

    def test_random_stream_deterministic(self):
        assert random_stream(20, seed=3).addresses == random_stream(20, seed=3).addresses
        assert random_stream(20, seed=3).addresses != random_stream(20, seed=4).addresses

    def test_sequential_wraps(self):
        trace = sequential_stream(4, start=0xFFFFFFFC, stride=4)
        assert trace.addresses[1] == 0


class TestInstructionGenerator:
    @pytest.mark.parametrize("target", [0.4, 0.55, 0.63, 0.72])
    def test_hits_in_sequence_target(self, target):
        profile = InstructionProfile.for_in_sequence(target)
        trace = synthetic_instruction_stream(20000, profile=profile, seed=1)
        measured = in_sequence_fraction(trace.addresses, 4)
        assert measured == pytest.approx(target, abs=0.05)

    def test_addresses_word_aligned_in_text_or_library(self):
        trace = synthetic_instruction_stream(3000, seed=2)
        for address in trace.addresses:
            assert address % 4 == 0
            in_text = (
                layout.TEXT_BASE <= address < layout.TEXT_BASE + layout.TEXT_SPAN
            )
            in_library = (
                layout.LIBRARY_BASE
                <= address
                < layout.LIBRARY_BASE + layout.LIBRARY_SPAN
            )
            assert in_text or in_library

    def test_deterministic(self):
        a = synthetic_instruction_stream(500, seed=9).addresses
        b = synthetic_instruction_stream(500, seed=9).addresses
        assert a == b

    def test_target_validation(self):
        with pytest.raises(ValueError):
            InstructionProfile.for_in_sequence(0.99)
        with pytest.raises(ValueError):
            InstructionProfile.for_in_sequence(0.0)


class TestDataGenerator:
    @pytest.mark.parametrize("target", [0.05, 0.114, 0.2])
    def test_hits_in_sequence_target(self, target):
        profile = DataProfile.for_in_sequence(target)
        trace = synthetic_data_stream(20000, profile=profile, seed=1)
        measured = in_sequence_fraction(trace.addresses, 4)
        assert measured == pytest.approx(target, abs=0.04)

    def test_touches_stack_and_data_segments(self):
        trace = synthetic_data_stream(5000, seed=3)
        in_stack = sum(1 for a in trace.addresses if a >= 0x7000_0000)
        in_low = sum(1 for a in trace.addresses if a < 0x2000_0000)
        assert in_stack > 100
        assert in_low > 100

    def test_target_validation(self):
        with pytest.raises(ValueError):
            DataProfile.for_in_sequence(0.9)


class TestMultiplexer:
    def test_substreams_preserved(self):
        """The weaver consumes the instruction stream verbatim."""
        instruction = synthetic_instruction_stream(2000, seed=4)
        data = synthetic_data_stream(2000, seed=4)
        mux = multiplex_streams(instruction.addresses, data.addresses, seed=4)
        assert mux.instruction_slots().addresses == instruction.addresses
        assert mux.kind == "multiplexed"

    def test_data_rate_controls_share(self):
        instruction = synthetic_instruction_stream(4000, seed=5)
        data = synthetic_data_stream(4000, seed=5)
        lean = multiplex_streams(
            instruction.addresses,
            data.addresses,
            MultiplexProfile(data_rate=0.05),
            seed=5,
        )
        rich = multiplex_streams(
            instruction.addresses,
            data.addresses,
            MultiplexProfile(data_rate=0.5),
            seed=5,
        )
        def data_share(trace):
            sels = trace.sels
            return 1 - sum(sels) / len(sels)
        assert data_share(lean) < data_share(rich)

    def test_zero_data_rate_is_pure_instruction_stream(self):
        instruction = synthetic_instruction_stream(1000, seed=6)
        mux = multiplex_streams(
            instruction.addresses, [], MultiplexProfile(data_rate=0.0), seed=6
        )
        assert mux.addresses == instruction.addresses
        assert all(sel == SEL_INSTRUCTION for sel in mux.sels)

    def test_deterministic(self):
        instruction = synthetic_instruction_stream(800, seed=7)
        data = synthetic_data_stream(800, seed=7)
        a = multiplex_streams(instruction.addresses, data.addresses, seed=7)
        b = multiplex_streams(instruction.addresses, data.addresses, seed=7)
        assert a.addresses == b.addresses
        assert a.sels == b.sels
