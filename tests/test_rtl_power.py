"""Tests for RTL power estimation (simulative + probabilistic) and pads."""

import math

import pytest

from repro.analysis.activity import input_statistics
from repro.rtl import blocks
from repro.rtl.codecs import ENCODER_BUILDERS
from repro.rtl.gates import BUF, XOR2
from repro.rtl.netlist import Netlist
from repro.rtl.pads import PAD_INPUT_CAP, OutputPadBank
from repro.rtl.power import (
    effective_densities,
    estimate_from_simulation,
    estimate_probabilistic,
)

from tests.conftest import make_mixed_stream


def _toggle_netlist():
    """A buffer whose input toggles every cycle."""
    nl = Netlist()
    a = nl.add_input("a")
    nl.mark_output(nl.add_gate(BUF, a), "y")
    return nl


def _line_statistics(addresses, width):
    """Per-line (probability, activity) of a word stream."""
    return input_statistics(
        [[(address >> bit) & 1 for bit in range(width)] for address in addresses]
    )


class TestSimulativeEstimation:
    def test_requires_two_cycles(self):
        nl = _toggle_netlist()
        result = nl.simulate([[0]])
        with pytest.raises(ValueError):
            estimate_from_simulation(result)

    def test_power_scales_with_load(self):
        nl = _toggle_netlist()
        result = nl.simulate([[i % 2] for i in range(50)])
        small = estimate_from_simulation(result, output_load=0.1e-12).total
        large = estimate_from_simulation(result, output_load=1.0e-12).total
        assert large > small

    def test_idle_circuit_only_clock_power(self):
        nl = Netlist()
        a = nl.add_input("a")
        handle, q = nl.add_dff()
        nl.drive_dff(handle, a)
        nl.mark_output(q, "q")
        result = nl.simulate([[0]] * 20)
        estimate = estimate_from_simulation(result)
        assert estimate.switching == 0.0
        assert estimate.internal == 0.0
        assert estimate.clock > 0.0

    def test_known_external_energy(self):
        nl = _toggle_netlist()
        cycles = 41
        result = nl.simulate([[i % 2] for i in range(cycles)])
        load = 1e-12
        estimate = estimate_from_simulation(
            result, output_load=load, wire_cap=0.0, vdd=2.0, frequency_hz=1e6
        )
        # Output toggles every one of the 40 counted cycles.
        expected = (40 / 40) * 0.5 * load * 4.0 * 1e6
        assert estimate.external == pytest.approx(expected)

    def test_components_sum_to_total(self):
        circuit = ENCODER_BUILDERS["t0"](16)
        addresses, sels = make_mixed_stream(length=120, seed=2)
        addresses = [a & 0xFFFF for a in addresses]
        result, _ = circuit.run(addresses, sels)
        estimate = estimate_from_simulation(result, output_load=0.2e-12)
        assert estimate.total == pytest.approx(
            estimate.switching
            + estimate.external
            + estimate.internal
            + estimate.clock
        )
        assert estimate.logic == pytest.approx(estimate.total - estimate.external)


class TestGlitchModel:
    def test_flops_filter_glitches(self):
        nl = Netlist()
        a = nl.add_input("a")
        b = nl.add_input("b")
        x = nl.add_gate(XOR2, a, b)
        handle, q = nl.add_dff()
        nl.drive_dff(handle, x)
        final = [0.0] * nl.net_count
        final[a] = 1.0
        final[b] = 1.0
        final[x] = 0.0  # correlated inputs: output functionally stable
        final[q] = 0.0
        densities = effective_densities(nl, final, glitch_fraction=1.0)
        assert densities[x] == pytest.approx(2.0)  # surplus passes the XOR
        assert densities[q] == 0.0  # but is filtered at the flop

    def test_and_absorbs_half(self):
        nl = Netlist()
        a = nl.add_input("a")
        b = nl.add_input("b")
        from repro.rtl.gates import AND2

        y = nl.add_gate(AND2, a, b)
        final = [1.0, 1.0, 0.0]
        densities = effective_densities(nl, final, glitch_fraction=1.0)
        assert densities[y] == pytest.approx(1.0)  # 0.5 * (2.0 - 0)

    def test_cap_bounds_density(self):
        nl = Netlist()
        nets = nl.add_inputs("a", 8)
        out = blocks.popcount(nl, nets)
        final = [4.0] * nl.net_count
        densities = effective_densities(nl, final, glitch_cap=6.0)
        assert max(densities) <= 6.0


class TestProbabilisticEstimation:
    def test_validates_lengths(self):
        circuit = ENCODER_BUILDERS["binary"](8)
        with pytest.raises(ValueError):
            estimate_probabilistic(circuit.netlist, [0.5], [0.1])

    def test_validates_ranges(self):
        circuit = ENCODER_BUILDERS["binary"](8)
        with pytest.raises(ValueError):
            estimate_probabilistic(circuit.netlist, [1.5] * 8, [0.1] * 8)
        with pytest.raises(ValueError):
            estimate_probabilistic(circuit.netlist, [0.5] * 8, [-0.1] * 8)

    def test_agrees_with_simulation_for_binary_encoder(self):
        """On the stateless binary encoder the two modes must agree well."""
        circuit = ENCODER_BUILDERS["binary"](16)
        addresses, sels = make_mixed_stream(length=400, seed=3)
        addresses = [a & 0xFFFF for a in addresses]
        result, _ = circuit.run(addresses, sels)
        simulated = estimate_from_simulation(result, output_load=0.2e-12)
        probabilities, activities = _line_statistics(addresses, 16)
        propagated = estimate_probabilistic(
            circuit.netlist, probabilities, activities, output_load=0.2e-12
        )
        assert math.isclose(propagated.total, simulated.total, rel_tol=0.1)

    def test_same_order_of_magnitude_for_t0_encoder(self):
        """Through state + reconvergent logic the independence assumption
        drifts, but stays within a small factor (the paper used the
        probabilistic mode for exactly this purpose)."""
        circuit = ENCODER_BUILDERS["t0"](16)
        addresses, sels = make_mixed_stream(length=400, seed=3)
        addresses = [a & 0xFFFF for a in addresses]
        result, _ = circuit.run(addresses, sels)
        simulated = estimate_from_simulation(result, output_load=0.2e-12)
        probabilities, activities = _line_statistics(addresses, 16)
        propagated = estimate_probabilistic(
            circuit.netlist, probabilities, activities, output_load=0.2e-12
        )
        ratio = propagated.total / simulated.total
        assert 0.3 < ratio < 3.0


class TestPads:
    def test_energy_per_transition_dominated_by_external_load(self):
        small = OutputPadBank(1, 10e-12)
        large = OutputPadBank(1, 100e-12)
        assert large.energy_per_transition > 5 * small.energy_per_transition

    def test_power_linear_in_activity(self):
        bank = OutputPadBank(33, 50e-12)
        assert bank.power(2.0) == pytest.approx(2 * bank.power(1.0))

    def test_power_from_activities_validates_length(self):
        bank = OutputPadBank(4, 50e-12)
        with pytest.raises(ValueError):
            bank.power_from_activities([0.1] * 3)
        assert bank.power_from_activities([0.1] * 4) == pytest.approx(
            bank.power(0.4)
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            OutputPadBank(0, 1e-12)
        with pytest.raises(ValueError):
            OutputPadBank(4, -1e-12)
        with pytest.raises(ValueError):
            OutputPadBank(4, 1e-12).power(-1)

    def test_pad_input_cap_matches_paper(self):
        assert PAD_INPUT_CAP == pytest.approx(0.01e-12)
