"""Power estimation for structural netlists.

Two estimation modes, mirroring the paper's methodology (Synopsys Design
Power at 100 MHz on the synthesized codecs):

* **simulative** — run the cycle-based logic simulation on a concrete vector
  stream and charge every net toggle against its capacitive load, every gate
  output transition against the cell's internal energy, and every flip-flop
  against its per-cycle clock load;

* **probabilistic** — propagate (signal probability, switching activity)
  pairs through the gate graph under the spatial-independence assumption,
  iterating to a fixpoint across the register feedback loops.  This is the
  mode the paper used for its encoder numbers; the simulative mode serves as
  its cross-check in our tests.

Two physical effects the zero-delay functional values miss are modelled
explicitly, both calibrated for a 0.35 µm 3.3 V process:

* **wire capacitance** — every internal net carries a fixed routing load
  (``DEFAULT_WIRE_CAP``), substantial in a 0.35 µm technology;
* **glitch propagation** — uneven arrival times make combinational nodes
  transition more often than their final values do, and the surplus cascades:
  XOR-type cells pass every input transition to their output, AND/OR cells
  absorb about half, flip-flops filter them entirely.  We propagate an
  *effective transition density* ``D`` per net,

      ``D_out = min(final_out + gamma * pass(gate) * max(0, sum(D_in) - final_out), cap)``

  and charge internal capacitance and cell-internal energy at ``D`` while
  primary-output loads (bus wires, pads — large time constants that
  integrate sub-cycle glitches away) are charged at final-value toggles.
  This is what makes the deep, uncorrelated Hamming popcount tree of the
  bus-invert section an order of magnitude hungrier than the shallow,
  input-correlated T0 comparator — the relation the paper reports between
  the dual T0_BI and T0 encoders (Section 4.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.obs import metrics as obs_metrics
from repro.power.bus import DEFAULT_FREQUENCY_HZ, DEFAULT_VDD
from repro.rtl.gates import DFF, DFF_CLOCK_ENERGY
from repro.rtl.netlist import Netlist, SimulationResult

#: Routing capacitance charged to every internal net (farads).
DEFAULT_WIRE_CAP = 50e-15
#: Fraction of surplus input transitions that reach a cell output (gamma).
DEFAULT_GLITCH_FRACTION = 1.0
#: Physical ceiling on per-net transitions per cycle (slew-rate limit).
DEFAULT_GLITCH_CAP = 28.0

#: Per-cell glitch pass factor: how easily spurious input transitions
#: propagate to the output (XORs always, AND/OR only when enabled).
GATE_PASS_FACTOR: Dict[str, float] = {
    "INV": 1.0,
    "BUF": 1.0,
    "AND2": 0.5,
    "OR2": 0.5,
    "NAND2": 0.5,
    "NOR2": 0.5,
    "XOR2": 1.0,
    "XNOR2": 1.0,
    "MUX2": 0.6,
}


@dataclass(frozen=True)
class PowerEstimate:
    """Average power split into its physical components (watts)."""

    switching: float  # internal net capacitance charging/discharging
    external: float  # primary-output load charging/discharging
    internal: float  # cell-internal + short-circuit energy
    clock: float  # flip-flop clock load
    cycles: int

    @property
    def logic(self) -> float:
        """Power of the codec logic itself, excluding the driven load."""
        return self.switching + self.internal + self.clock

    @property
    def total(self) -> float:
        return self.switching + self.external + self.internal + self.clock


def effective_densities(
    netlist: Netlist,
    final_activities: Sequence[float],
    glitch_fraction: float = DEFAULT_GLITCH_FRACTION,
    glitch_cap: float = DEFAULT_GLITCH_CAP,
) -> List[float]:
    """Per-net effective transition density including propagated glitches.

    ``final_activities`` are the zero-delay (final-value) transitions per
    cycle of every net.  Flip-flop outputs and primary inputs keep their
    final values (flops filter glitches); each combinational gate adds the
    glitch surplus of its fanins scaled by its pass factor.
    """
    densities = [float(a) for a in final_activities]
    for gate in netlist._gates:
        final = final_activities[gate.output]
        total_in = sum(densities[net] for net in gate.inputs)
        pass_factor = GATE_PASS_FACTOR[gate.spec.name]
        surplus = max(0.0, total_in - final)
        densities[gate.output] = min(
            final + glitch_fraction * pass_factor * surplus, glitch_cap
        )
    return densities


def _assemble_estimate(
    netlist: Netlist,
    final_activities: Sequence[float],
    vdd: float,
    frequency_hz: float,
    output_load: float,
    wire_cap: float,
    glitch_fraction: float,
    glitch_cap: float,
    cycles: int,
) -> PowerEstimate:
    """Common power assembly from per-net final activities."""
    internal_loads, external_loads = netlist.net_loads_split(
        output_load=output_load, wire_cap=wire_cap
    )
    densities = effective_densities(
        netlist, final_activities, glitch_fraction, glitch_cap
    )
    half_v2 = 0.5 * vdd * vdd

    switching = sum(
        density * half_v2 * load
        for density, load in zip(densities, internal_loads)
    )
    external = sum(
        final * half_v2 * load
        for final, load in zip(final_activities, external_loads)
    )
    internal = sum(
        densities[gate.output] * gate.spec.internal_energy
        for gate in netlist._gates
    )
    internal += sum(
        final_activities[flop.q] * DFF.internal_energy
        for flop in netlist._flops
    )
    clock = DFF_CLOCK_ENERGY * netlist.flop_count

    return PowerEstimate(
        switching=switching * frequency_hz,
        external=external * frequency_hz,
        internal=internal * frequency_hz,
        clock=clock * frequency_hz,
        cycles=cycles,
    )


def estimate_from_simulation(
    result: SimulationResult,
    vdd: float = DEFAULT_VDD,
    frequency_hz: float = DEFAULT_FREQUENCY_HZ,
    output_load: float = 0.0,
    wire_cap: float = DEFAULT_WIRE_CAP,
    glitch_fraction: float = DEFAULT_GLITCH_FRACTION,
    glitch_cap: float = DEFAULT_GLITCH_CAP,
) -> PowerEstimate:
    """Toggle-count power of a completed simulation run."""
    if result.cycles <= 1:
        raise ValueError("need at least two cycles to estimate power")
    cycles = result.cycles - 1  # toggles are counted between cycles
    final_activities = [toggles / cycles for toggles in result.net_toggles]
    return _assemble_estimate(
        result.netlist,
        final_activities,
        vdd=vdd,
        frequency_hz=frequency_hz,
        output_load=output_load,
        wire_cap=wire_cap,
        glitch_fraction=glitch_fraction,
        glitch_cap=glitch_cap,
        cycles=result.cycles,
    )


# ---------------------------------------------------------------------------
# Probabilistic mode
# ---------------------------------------------------------------------------


def _propagate_gate(
    name: str, probs: Sequence[float], acts: Sequence[float]
) -> Tuple[float, float]:
    """(probability, activity) at a gate output from its input pairs.

    Activities combine through the Boolean-difference rule
    ``a_out = sum_i P(dF/dx_i) * a_i`` under input independence.
    """
    if name in ("INV", "BUF", "DFF"):
        p = probs[0] if name != "INV" else 1.0 - probs[0]
        return p, acts[0]
    if name in ("AND2", "NAND2"):
        p = probs[0] * probs[1]
        activity = probs[1] * acts[0] + probs[0] * acts[1]
        return (p if name == "AND2" else 1.0 - p), activity
    if name in ("OR2", "NOR2"):
        p = probs[0] + probs[1] - probs[0] * probs[1]
        activity = (1.0 - probs[1]) * acts[0] + (1.0 - probs[0]) * acts[1]
        return (p if name == "OR2" else 1.0 - p), activity
    if name in ("XOR2", "XNOR2"):
        p = probs[0] + probs[1] - 2.0 * probs[0] * probs[1]
        activity = acts[0] + acts[1]
        return (p if name == "XOR2" else 1.0 - p), activity
    if name == "MUX2":
        select_p, a_p, b_p = probs
        select_a, a_a, b_a = acts
        p = select_p * a_p + (1.0 - select_p) * b_p
        differ = a_p * (1.0 - b_p) + b_p * (1.0 - a_p)
        activity = select_p * a_a + (1.0 - select_p) * b_a + differ * select_a
        return p, activity
    raise ValueError(f"unknown gate type {name!r}")


def _clamp_activity(probability: float, activity: float) -> float:
    """Physical ceiling on a zero-delay transition density.

    A net that is 1 for a fraction ``p`` of the cycles can change its final
    value at most ``min(1, 2p, 2(1-p))`` times per cycle.  The additive XOR
    rule in :func:`_propagate_gate` double-counts simultaneous input
    toggles, which diverges through register feedback (the bus-invert
    ``bus_reg`` ← XOR ← ``bus_reg`` loop) unless bounded here.
    """
    bound = min(1.0, 2.0 * probability, 2.0 * (1.0 - probability))
    return min(activity, max(bound, 0.0))


def propagate_activities(
    netlist: Netlist,
    input_probabilities: Sequence[float],
    input_activities: Sequence[float],
    iterations: int = 30,
    tolerance: float = 1e-9,
) -> Tuple[List[float], List[float]]:
    """Per-net ``(probabilities, activities)`` under input independence.

    The static switching-activity engine shared by the probabilistic power
    mode and :mod:`repro.analysis.activity`: signal probabilities and
    transition densities propagate through the gate graph via the
    Boolean-difference rules of :func:`_propagate_gate`; register feedback
    is resolved by fixpoint iteration from an uninformative 0.5/0.5 prior.
    """
    netlist.validate()
    if len(input_probabilities) != len(netlist.inputs) or len(
        input_activities
    ) != len(netlist.inputs):
        raise ValueError(
            f"need {len(netlist.inputs)} probability/activity pairs"
        )

    probs = [0.0] * netlist.net_count
    acts = [0.0] * netlist.net_count
    for net, (p, a) in zip(
        netlist.inputs, zip(input_probabilities, input_activities)
    ):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability {p} outside [0, 1]")
        if a < 0.0:
            raise ValueError(f"activity {a} is negative")
        probs[net] = p
        acts[net] = a
    for value, net in netlist._const_nets.items():
        probs[net] = float(value)
        acts[net] = 0.0
    # Flop outputs start at an uninformative prior and iterate to fixpoint.
    for flop in netlist._flops:
        probs[flop.q] = 0.5
        acts[flop.q] = 0.5

    clamp_hits = 0
    for _ in range(iterations):
        for gate in netlist._gates:
            p, a = _propagate_gate(
                gate.spec.name,
                [probs[i] for i in gate.inputs],
                [acts[i] for i in gate.inputs],
            )
            clamped = _clamp_activity(p, a)
            if clamped < a:
                clamp_hits += 1
            probs[gate.output], acts[gate.output] = p, clamped
        delta = 0.0
        for flop in netlist._flops:
            new_p, new_a = probs[flop.d], acts[flop.d]  # type: ignore[index]
            delta = max(
                delta, abs(new_p - probs[flop.q]), abs(new_a - acts[flop.q])
            )
            probs[flop.q] = new_p
            acts[flop.q] = new_a
        if delta < tolerance:
            break
    # Final combinational pass with the settled register state.
    for gate in netlist._gates:
        p, a = _propagate_gate(
            gate.spec.name,
            [probs[i] for i in gate.inputs],
            [acts[i] for i in gate.inputs],
        )
        clamped = _clamp_activity(p, a)
        if clamped < a:
            clamp_hits += 1
        probs[gate.output], acts[gate.output] = p, clamped
    if clamp_hits:
        obs_metrics.counter("activity.clamps").inc(clamp_hits)
    return probs, acts


def estimate_probabilistic(
    netlist: Netlist,
    input_probabilities: Sequence[float],
    input_activities: Sequence[float],
    vdd: float = DEFAULT_VDD,
    frequency_hz: float = DEFAULT_FREQUENCY_HZ,
    output_load: float = 0.0,
    wire_cap: float = DEFAULT_WIRE_CAP,
    glitch_fraction: float = DEFAULT_GLITCH_FRACTION,
    glitch_cap: float = DEFAULT_GLITCH_CAP,
    iterations: int = 30,
    tolerance: float = 1e-9,
) -> PowerEstimate:
    """Activity-propagation power estimate.

    ``input_probabilities``/``input_activities`` are per primary input, in
    :attr:`Netlist.inputs` order; activities are expected transitions per
    clock cycle.  Register feedback is resolved by fixpoint iteration.
    """
    _, acts = propagate_activities(
        netlist,
        input_probabilities,
        input_activities,
        iterations=iterations,
        tolerance=tolerance,
    )

    return _assemble_estimate(
        netlist,
        acts,
        vdd=vdd,
        frequency_hz=frequency_hz,
        output_load=output_load,
        wire_cap=wire_cap,
        glitch_fraction=glitch_fraction,
        glitch_cap=glitch_cap,
        cycles=0,
    )


