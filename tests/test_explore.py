"""Tests for the design-space explorer."""

import pytest

from repro.explore import (
    DesignPoint,
    explore_design_space,
    pareto_front,
    recommend,
)
from repro.metrics import count_transitions
from repro.rtl.codecs import DECODER_BUILDERS, ENCODER_BUILDERS
from repro.rtl.pads import PAD_INPUT_CAP, OutputPadBank
from repro.rtl.power import estimate_from_simulation
from repro.tracegen import data_trace, get_profile, multiplexed_trace

CODES = ("binary", "t0", "bus-invert", "dualt0", "dualt0bi")
LOADS = (20e-12, 200e-12)


def oracle_points(trace, loads, codes, width=32):
    """Design points built from the circuits' own ``run`` harnesses and the
    scalar ``count_transitions``, independent of the power-sim cells
    ``explore_design_space`` runs on."""
    sels = trace.effective_sels()
    points = []
    for name in codes:
        encoder = ENCODER_BUILDERS[name](width)
        enc_result, words = encoder.run(trace.addresses, sels)
        decoder = DECODER_BUILDERS[name](width)
        dec_result, decoded = decoder.run(words, sels)
        assert list(decoded) == list(trace.addresses)
        activity = count_transitions(words, width=width).per_cycle
        encoder_power = estimate_from_simulation(
            enc_result, output_load=PAD_INPUT_CAP
        ).total
        decoder_power = estimate_from_simulation(
            dec_result, output_load=0.1e-12
        ).total
        for load in loads:
            pad_power = OutputPadBank(
                width + words[0].extra_count, load
            ).power(activity)
            points.append(
                DesignPoint(
                    codec_name=name,
                    load_farads=load,
                    global_power_w=pad_power + encoder_power + decoder_power,
                    pad_power_w=pad_power,
                    codec_power_w=encoder_power + decoder_power,
                    encoder_gates=encoder.netlist.gate_count,
                    decoder_gates=decoder.netlist.gate_count,
                    critical_path_ns=max(
                        encoder.netlist.critical_path_ns(),
                        decoder.netlist.critical_path_ns(),
                    ),
                    bus_activity=activity,
                )
            )
    return points


@pytest.fixture(scope="module")
def trace():
    return multiplexed_trace(get_profile("gzip"), 400)


@pytest.fixture(scope="module")
def points(trace):
    return explore_design_space(
        trace, loads=[20e-12, 200e-12], codes=("binary", "t0", "dualt0bi")
    )


class TestExploration:
    @pytest.mark.parametrize("kind", ["multiplexed", "data"])
    def test_matches_circuit_oracle(self, trace, kind):
        # A data trace has no SEL stream: its circuits see SEL = data.
        if kind == "data":
            trace = data_trace(get_profile("gzip"), 200)
        assert explore_design_space(trace, LOADS, CODES) == oracle_points(
            trace, LOADS, CODES
        )

    def test_full_grid(self, points):
        assert len(points) == 6  # 3 codes x 2 loads
        names = {p.codec_name for p in points}
        assert names == {"binary", "t0", "dualt0bi"}

    def test_activity_ordering(self, points):
        by_name = {p.codec_name: p for p in points if p.load_farads == 20e-12}
        assert by_name["dualt0bi"].bus_activity < by_name["t0"].bus_activity
        assert by_name["t0"].bus_activity < by_name["binary"].bus_activity

    def test_power_components_consistent(self, points):
        for point in points:
            assert point.global_power_w == pytest.approx(
                point.pad_power_w + point.codec_power_w
            )
            assert point.area_gates == point.encoder_gates + point.decoder_gates

    def test_empty_loads_rejected(self, trace):
        with pytest.raises(ValueError):
            explore_design_space(trace, loads=[])


class TestParetoFront:
    def test_single_load_required(self, points):
        with pytest.raises(ValueError):
            pareto_front(points)  # mixes two loads

    def test_front_is_nondominated(self, points):
        small = [p for p in points if p.load_farads == 20e-12]
        front = pareto_front(small)
        assert front  # never empty
        for a in front:
            for b in small:
                assert not (
                    b.global_power_w < a.global_power_w
                    and b.area_gates < a.area_gates
                )

    def test_binary_always_on_front_at_small_load(self, points):
        """Binary has minimal area, so it can only be dominated by a code
        that is simultaneously cheaper in power AND smaller — impossible."""
        small = [p for p in points if p.load_farads == 20e-12]
        front = pareto_front(small)
        assert any(p.codec_name == "binary" for p in front)

    def test_empty(self):
        assert pareto_front([]) == []


class TestRecommendation:
    def test_large_load_prefers_dualt0bi(self, trace):
        best, margin = recommend(
            trace, 200e-12, codes=("binary", "t0", "dualt0bi")
        )
        assert best.codec_name == "dualt0bi"
        assert margin > 0

    def test_small_load_avoids_dualt0bi(self, trace):
        best, _ = recommend(trace, 5e-12, codes=("binary", "t0", "dualt0bi"))
        assert best.codec_name != "dualt0bi"
