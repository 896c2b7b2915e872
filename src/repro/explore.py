"""Design-space exploration: pick a bus code for a concrete design point.

The paper's Sections 2–4 are, operationally, a decision procedure: given
the traffic your bus actually carries and the capacitance it drives, weigh
each code's activity reduction against its codec power, area and timing.
This module packages that procedure:

* :func:`explore_design_space` — evaluate every implemented codec circuit
  on a trace across a load sweep (global power, codec area, critical path);
* :func:`pareto_front` — the non-dominated (power, area) points per load;
* :func:`recommend` — the paper-style recommendation: minimum global power
  at the design's load, with the runner-up margin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.experiments.power_tables import _power_runs
from repro.rtl.pads import PAD_INPUT_CAP, OutputPadBank
from repro.rtl.power import estimate_from_simulation
from repro.tracegen.trace import AddressTrace


@dataclass(frozen=True)
class DesignPoint:
    """One (code, load) evaluation."""

    codec_name: str
    load_farads: float
    global_power_w: float  # pads + encoder + decoder
    pad_power_w: float
    codec_power_w: float  # encoder + decoder logic
    encoder_gates: int
    decoder_gates: int
    critical_path_ns: float
    bus_activity: float  # encoded transitions per cycle

    @property
    def area_gates(self) -> int:
        return self.encoder_gates + self.decoder_gates


def explore_design_space(
    trace: AddressTrace,
    loads: Sequence[float],
    codes: Sequence[str] = ("binary", "t0", "bus-invert", "dualt0", "dualt0bi"),
    width: int = 32,
) -> List[DesignPoint]:
    """Evaluate every codec circuit on ``trace`` across a load sweep.

    The circuits run as the ``power-sim`` cells of Tables 8–9, on a plain
    in-process :class:`repro.engine.ExecutionConfig`.
    """
    if not loads:
        raise ValueError("need at least one load point")
    runs = _power_runs(trace, codes, width)
    points: List[DesignPoint] = []
    for name in codes:
        run = runs[name]
        encoder = run.encoder_result.netlist
        decoder = run.decoder_result.netlist
        encoder_power = estimate_from_simulation(
            run.encoder_result, output_load=PAD_INPUT_CAP
        ).total
        decoder_power = estimate_from_simulation(
            run.decoder_result, output_load=0.1e-12
        ).total
        path = max(encoder.critical_path_ns(), decoder.critical_path_ns())
        activity = run.encoded_transitions_per_cycle
        for load in loads:
            pad_power = OutputPadBank(run.line_count, load).power(activity)
            points.append(
                DesignPoint(
                    codec_name=name,
                    load_farads=load,
                    global_power_w=pad_power + encoder_power + decoder_power,
                    pad_power_w=pad_power,
                    codec_power_w=encoder_power + decoder_power,
                    encoder_gates=encoder.gate_count,
                    decoder_gates=decoder.gate_count,
                    critical_path_ns=path,
                    bus_activity=activity,
                )
            )
    return points


def pareto_front(points: Sequence[DesignPoint]) -> List[DesignPoint]:
    """Non-dominated points: nothing else is both lower-power and smaller.

    All points must share one load (compare like with like); pass one
    load's slice of :func:`explore_design_space`.
    """
    if not points:
        return []
    loads = {point.load_farads for point in points}
    if len(loads) != 1:
        raise ValueError("pareto_front expects points at a single load")
    front: List[DesignPoint] = []
    for candidate in points:
        dominated = any(
            other.global_power_w <= candidate.global_power_w
            and other.area_gates <= candidate.area_gates
            and (
                other.global_power_w < candidate.global_power_w
                or other.area_gates < candidate.area_gates
            )
            for other in points
        )
        if not dominated:
            front.append(candidate)
    return sorted(front, key=lambda p: p.global_power_w)


def recommend(
    trace: AddressTrace,
    load_farads: float,
    codes: Sequence[str] = ("binary", "t0", "bus-invert", "dualt0", "dualt0bi"),
    width: int = 32,
) -> Tuple[DesignPoint, float]:
    """The minimum-global-power code at one load, plus the margin (watts)
    to the runner-up."""
    points = explore_design_space(trace, [load_farads], codes, width)
    ranked = sorted(points, key=lambda p: p.global_power_w)
    margin = (
        ranked[1].global_power_w - ranked[0].global_power_w
        if len(ranked) > 1
        else 0.0
    )
    return ranked[0], margin
