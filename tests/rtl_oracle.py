"""Scalar cycle-by-cycle netlist simulator: the oracle for ``Netlist.simulate``.

Each cycle every gate is evaluated once in topological order with its
scalar ``GateSpec.evaluate``, toggles are counted net by net against the
previous cycle, then each flop captures its D input.  Slow and obviously
correct; the bit-plane simulator must match it exactly.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.rtl.netlist import Netlist, SimulationResult


def simulate_scalar(
    netlist: Netlist, vectors: Sequence[Sequence[int]]
) -> SimulationResult:
    netlist.validate()
    inputs = netlist.inputs
    gates = netlist.gates
    flops = netlist.flops
    const_nets = netlist.const_nets
    values = [0] * netlist.net_count
    for _, q, init in flops:
        values[q] = init
    if 1 in const_nets:
        values[const_nets[1]] = 1

    toggles = [0] * netlist.net_count
    output_trace: List[Tuple[int, ...]] = []
    previous: Optional[List[int]] = None

    for vector in vectors:
        if len(vector) != len(inputs):
            raise ValueError(
                f"vector has {len(vector)} values for {len(inputs)} inputs"
            )
        for net, value in zip(inputs, vector):
            if value not in (0, 1):
                raise ValueError(f"input values must be 0/1, got {value}")
            values[net] = value
        for spec, fanins, output in gates:
            values[output] = spec.evaluate(tuple(values[i] for i in fanins))
        if previous is not None:
            for net in range(netlist.net_count):
                if values[net] != previous[net]:
                    toggles[net] += 1
        output_trace.append(tuple(values[net] for _, net in netlist.outputs))
        previous = list(values)
        # Clock edge: capture D into Q for the next cycle.
        next_q = [values[d] for d, _, _ in flops]
        for (_, q, _), q_value in zip(flops, next_q):
            values[q] = q_value

    return SimulationResult(
        netlist=netlist,
        cycles=len(vectors),
        outputs=output_trace,
        net_toggles=toggles,
    )
