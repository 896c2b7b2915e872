"""Structural netlists with cycle-based logic simulation.

A :class:`Netlist` is a feed-forward graph of library gates plus D
flip-flops.  Construction is single-assignment: a gate's fanins must already
exist when the gate is added, so insertion order is a valid topological order
for the combinational logic; flip-flop outputs are state and may feed gates
added before their D input is connected (two-phase construction via
:meth:`Netlist.add_dff` / :meth:`Netlist.drive_dff`).

Simulation is zero-delay cycle-based: each clock cycle the combinational
gates settle once in topological order and every net's *final* value is
compared with the previous cycle's to count toggles.  Glitches are not
modelled — the same simplification Synopsys' probabilistic mode makes, and a
conservative one for the codec circuits whose logic depth is small.

The simulator evaluates the cycles bit-parallel.  Over a block of
:data:`BLOCK_CYCLES` cycles each net is one Python ``int``, a *bit plane*
whose bit ``t`` is the net's value in cycle ``t``; each gate is one ``&``,
``|`` or ``^`` over whole planes (NOT is ``^ mask``), and a net's toggle
count is the popcount of ``plane ^ (plane << 1)`` — the XOR-and-popcount of
adjacent values, for every net at once.

Flip-flops break the topological order, so their Q planes are found by
fixed-point iteration: guess Q, sweep the gates, set
``Q = (D << 1 | q0) & mask`` where ``q0`` is the flop's value in the block's
first cycle, and repeat until no Q changes.  Bit ``t`` of the new Q depends
only on bits below ``t`` of the old one, so after ``k`` sweeps cycles
``< k`` are exact; the fixed point is the scalar trajectory itself, reached
within ``BLOCK_CYCLES + 1`` sweeps.  Feed-forward state (a previous-address
register) settles in a few sweeps; bus-invert's INV feedback can settle one
cycle per sweep, which is why the stream is cut into fixed blocks — the
worst case stays linear in the stream length.  Each flop's Q and each net's
last value carry across block boundaries, so the toggle between two blocks
is counted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.rtl.gates import DFF, GateSpec

NetId = int


@dataclass
class _Gate:
    spec: GateSpec
    inputs: Tuple[NetId, ...]
    output: NetId


@dataclass
class _Flop:
    d: Optional[NetId]
    q: NetId
    init: int


class Netlist:
    """A gate-level circuit with primary I/O, combinational gates and DFFs."""

    def __init__(self, name: str = "netlist"):
        self.name = name
        self._net_names: List[str] = []
        self._inputs: List[NetId] = []
        self._outputs: List[Tuple[str, NetId]] = []
        self._gates: List[_Gate] = []
        self._flops: List[_Flop] = []
        self._const_nets: Dict[int, NetId] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _new_net(self, name: str) -> NetId:
        self._net_names.append(name)
        return len(self._net_names) - 1

    def add_input(self, name: str) -> NetId:
        """Create a primary input net."""
        net = self._new_net(name)
        self._inputs.append(net)
        return net

    def add_inputs(self, prefix: str, count: int) -> List[NetId]:
        """Create a bus of primary inputs, LSB first."""
        return [self.add_input(f"{prefix}[{i}]") for i in range(count)]

    def const(self, value: int) -> NetId:
        """The shared constant-0 or constant-1 net."""
        if value not in (0, 1):
            raise ValueError(f"constant must be 0 or 1, got {value}")
        if value not in self._const_nets:
            self._const_nets[value] = self._new_net(f"const{value}")
        return self._const_nets[value]

    def add_gate(self, spec: GateSpec, *inputs: NetId, name: str = "") -> NetId:
        """Add a combinational gate; returns its output net."""
        if spec.name == "DFF":
            raise ValueError("use add_dff()/drive_dff() for flip-flops")
        if len(inputs) != spec.arity:
            raise ValueError(
                f"{spec.name} expects {spec.arity} inputs, got {len(inputs)}"
            )
        for net in inputs:
            self._check_net(net)
        output = self._new_net(name or f"{spec.name.lower()}_{len(self._gates)}")
        self._gates.append(_Gate(spec, tuple(inputs), output))
        return output

    def add_dff(self, init: int = 0, name: str = "") -> Tuple[int, NetId]:
        """Create a flip-flop; returns ``(flop_handle, q_net)``.

        The D input is connected later with :meth:`drive_dff`, allowing
        feedback through combinational logic built after the flop.
        """
        if init not in (0, 1):
            raise ValueError(f"flop init must be 0 or 1, got {init}")
        q = self._new_net(name or f"dff_{len(self._flops)}_q")
        self._flops.append(_Flop(d=None, q=q, init=init))
        return len(self._flops) - 1, q

    def drive_dff(self, handle: int, d_net: NetId) -> None:
        """Connect a flip-flop's D input."""
        self._check_net(d_net)
        flop = self._flops[handle]
        if flop.d is not None:
            raise ValueError(f"flop {handle} already driven")
        flop.d = d_net

    def mark_output(self, net: NetId, name: str) -> None:
        """Declare a primary output."""
        self._check_net(net)
        self._outputs.append((name, net))

    def _check_net(self, net: NetId) -> None:
        if not 0 <= net < len(self._net_names):
            raise ValueError(f"unknown net id {net}")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def net_count(self) -> int:
        return len(self._net_names)

    @property
    def gate_count(self) -> int:
        return len(self._gates)

    @property
    def flop_count(self) -> int:
        return len(self._flops)

    @property
    def inputs(self) -> List[NetId]:
        return list(self._inputs)

    @property
    def outputs(self) -> List[Tuple[str, NetId]]:
        return list(self._outputs)

    @property
    def gates(self) -> List[Tuple[GateSpec, Tuple[NetId, ...], NetId]]:
        """Combinational gates as ``(spec, inputs, output)``, in topological
        (= insertion) order — the traversal every analysis pass needs."""
        return [(g.spec, g.inputs, g.output) for g in self._gates]

    @property
    def flops(self) -> List[Tuple[Optional[NetId], NetId, int]]:
        """Flip-flops as ``(d, q, init)``; ``d`` is None while undriven."""
        return [(f.d, f.q, f.init) for f in self._flops]

    @property
    def const_nets(self) -> Dict[int, NetId]:
        """Constant value (0/1) → net id, for the constants in use."""
        return dict(self._const_nets)

    def net_name(self, net: NetId) -> str:
        return self._net_names[net]

    def net_loads(self, output_load: float = 0.0) -> List[float]:
        """Capacitance seen by each net: fanin gate pins + PO loads."""
        internal, external = self.net_loads_split(output_load)
        return [i + e for i, e in zip(internal, external)]

    def net_loads_split(
        self, output_load: float = 0.0, wire_cap: float = 0.0
    ) -> Tuple[List[float], List[float]]:
        """``(internal, external)`` capacitance per net.

        Internal load = fanin gate pins + driver intrinsic + wire; external
        load = the per-primary-output ``output_load``.  The split matters for
        glitch accounting: internal nodes see every spurious transition while
        large external loads integrate them away (see power.py).
        """
        internal = [0.0] * self.net_count
        external = [0.0] * self.net_count
        for gate in self._gates:
            for net in gate.inputs:
                internal[net] += gate.spec.input_cap
            internal[gate.output] += gate.spec.intrinsic_cap + wire_cap
        for flop in self._flops:
            if flop.d is not None:
                internal[flop.d] += DFF.input_cap
            internal[flop.q] += DFF.intrinsic_cap + wire_cap
        for _, net in self._outputs:
            external[net] += output_load
        return internal, external

    def combinational_depths(self) -> List[int]:
        """Logic depth of each net: 0 at PIs/flop outputs/constants, else
        1 + max(input depths).  Drives the glitch-amplification model."""
        depths = [0] * self.net_count
        for gate in self._gates:
            depths[gate.output] = 1 + max(
                (depths[net] for net in gate.inputs), default=0
            )
        return depths

    def arrival_times(self) -> List[float]:
        """Static timing: worst-case signal arrival at every net (seconds).

        Primary inputs arrive at t = 0, flip-flop outputs at clock-to-Q,
        every gate adds its propagation delay.  Single-corner, load-
        independent cell delays — the granularity of a synthesis report.
        """
        from repro.rtl.gates import DFF_CLK_TO_Q

        arrivals = [0.0] * self.net_count
        for flop in self._flops:
            arrivals[flop.q] = DFF_CLK_TO_Q
        for gate in self._gates:
            arrivals[gate.output] = gate.spec.delay + max(
                (arrivals[net] for net in gate.inputs), default=0.0
            )
        return arrivals

    def area_nand2(self) -> float:
        """Cell area in NAND2 equivalents (the synthesis-report unit).

        Weights: INV/BUF 0.7, simple 2-input cells 1.0, XOR/XNOR 2.5,
        MUX2 2.0, DFF 5.0 — typical standard-cell ratios.
        """
        weights = {
            "INV": 0.7,
            "BUF": 0.7,
            "AND2": 1.0,
            "OR2": 1.0,
            "NAND2": 1.0,
            "NOR2": 1.0,
            "XOR2": 2.5,
            "XNOR2": 2.5,
            "MUX2": 2.0,
        }
        area = sum(weights[gate.spec.name] for gate in self._gates)
        return area + 5.0 * self.flop_count

    def critical_path_ns(self) -> float:
        """Worst register-to-register / input-to-output path in nanoseconds.

        The paper reports this figure for the dual T0_BI encoder (5.36 ns
        through the bus-invert section and the output mux in 0.35 µm).
        """
        from repro.rtl.gates import DFF_SETUP

        arrivals = self.arrival_times()
        worst = 0.0
        for _, net in self._outputs:
            worst = max(worst, arrivals[net])
        for flop in self._flops:
            if flop.d is not None:
                worst = max(worst, arrivals[flop.d] + DFF_SETUP)
        return worst * 1e9

    def validate(self) -> None:
        """Check the netlist is complete (every flop driven).

        Called by :meth:`simulate` before the first cycle so an incomplete
        two-phase construction fails loudly, naming the flop, instead of
        crashing obscurely (or silently holding init state) mid-simulation.
        """
        undriven = [
            (handle, self.net_name(flop.q))
            for handle, flop in enumerate(self._flops)
            if flop.d is None
        ]
        if undriven:
            described = ", ".join(
                f"flop {handle} ({name!r})" for handle, name in undriven
            )
            raise ValueError(
                f"netlist {self.name!r} has {len(undriven)} DFF(s) with no D "
                f"input: {described} — each add_dff() needs a matching "
                "drive_dff() before simulation"
            )

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------

    def simulate(
        self, vectors: Sequence[Sequence[int]]
    ) -> "SimulationResult":
        """Run cycle-based simulation, one bit-plane block at a time.

        ``vectors[t]`` holds the primary-input values of cycle ``t``, in
        :attr:`inputs` order.  Returns per-cycle primary-output values plus
        per-net toggle counts between consecutive cycles (flops start at
        their init values; every other net is evaluated from ``vectors[0]``).
        """
        self.validate()
        matrix = self._input_matrix(vectors)
        cycles = len(matrix)
        program: List[_Op] = []
        for gate in self._gates:
            a, b, c = (gate.inputs + (0, 0))[:3]
            program.append((gate.spec.name, gate.output, a, b, c))
        flops = [(flop.d, flop.q) for flop in self._flops]
        state = [flop.init for flop in self._flops]
        planes = [0] * self.net_count
        last = [0] * self.net_count
        toggles = [0] * self.net_count
        output_trace: List[Tuple[int, ...]] = []

        for start in range(0, cycles, BLOCK_CYCLES):
            block = matrix[start : start + BLOCK_CYCLES]
            length = len(block)
            mask = (1 << length) - 1
            for net, plane in zip(self._inputs, _pack_columns(block)):
                planes[net] = plane
            if 1 in self._const_nets:
                planes[self._const_nets[1]] = mask
            _settle(program, flops, state, planes, mask)
            # Bit t of plane ^ (plane << 1 | last) is a toggle into cycle t;
            # the very first cycle has no predecessor.
            edges = mask if start else mask ^ 1
            for net, plane in enumerate(planes):
                flips = (plane ^ ((plane << 1) | last[net])) & edges
                toggles[net] += bin(flips).count("1")  # int.bit_count is 3.10+
            last = [plane >> (length - 1) for plane in planes]
            state = [last[d] for d, _ in flops]  # type: ignore[index]
            output_trace.extend(
                _unpack_rows([planes[net] for _, net in self._outputs], length)
            )

        return SimulationResult(
            netlist=self,
            cycles=cycles,
            outputs=output_trace,
            net_toggles=toggles,
        )

    def _input_matrix(self, vectors: Sequence[Sequence[int]]) -> np.ndarray:
        """``vectors`` as a cycles x inputs uint8 matrix, checked to be 0/1."""
        count = len(self._inputs)
        try:
            matrix = np.asarray(vectors)
        except ValueError:  # ragged rows: the scan below names the bad one
            matrix = np.empty(0)
        if matrix.shape != (len(vectors), count) or not (
            (matrix == 0) | (matrix == 1)
        ).all():
            for vector in vectors:
                if len(vector) != count:
                    raise ValueError(
                        f"vector has {len(vector)} values for {count} inputs"
                    )
                for value in vector:
                    if value not in (0, 1):
                        raise ValueError(
                            f"input values must be 0/1, got {value}"
                        )
        return matrix.reshape(len(vectors), count).astype(np.uint8)


#: Cycles per bit-plane block.  A block settles in at most
#: ``BLOCK_CYCLES + 1`` sweeps, so fixed blocks keep the worst case (feedback
#: that settles one cycle per sweep, as bus-invert's does) linear in the
#: stream length instead of quadratic.
BLOCK_CYCLES = 2048

#: One gate as ``(cell name, output net, fanin nets padded to three)``.
_Op = Tuple[str, NetId, NetId, NetId, NetId]


def _sweep(program: List[_Op], planes: List[int], mask: int) -> None:
    """Evaluate every gate once, in topological order, over whole planes."""
    for name, out, a, b, c in program:
        if name == "XOR2":
            planes[out] = planes[a] ^ planes[b]
        elif name == "AND2":
            planes[out] = planes[a] & planes[b]
        elif name == "MUX2":  # select ? a : b
            planes[out] = planes[c] ^ (planes[a] & (planes[b] ^ planes[c]))
        elif name == "OR2":
            planes[out] = planes[a] | planes[b]
        elif name == "INV":
            planes[out] = planes[a] ^ mask
        elif name == "BUF":
            planes[out] = planes[a]
        elif name == "NAND2":
            planes[out] = (planes[a] & planes[b]) ^ mask
        elif name == "NOR2":
            planes[out] = (planes[a] | planes[b]) ^ mask
        elif name == "XNOR2":
            planes[out] = planes[a] ^ planes[b] ^ mask
        else:
            raise ValueError(f"no bit-plane evaluation for gate {name}")


def _settle(
    program: List[_Op],
    flops: List[Tuple[Optional[NetId], NetId]],
    state: List[int],
    planes: List[int],
    mask: int,
) -> None:
    """Sweep until every flop's Q plane is its D plane delayed one cycle.

    ``state`` holds each flop's Q in the block's first cycle.  Terminates
    within ``mask.bit_length() + 1`` sweeps (see the module docstring).
    """
    for (_, q), bit in zip(flops, state):
        planes[q] = bit
    settled = False
    while not settled:
        _sweep(program, planes, mask)
        settled = True
        for (d, q), bit in zip(flops, state):
            q_plane = ((planes[d] << 1) | bit) & mask  # type: ignore[index]
            if q_plane != planes[q]:
                planes[q] = q_plane
                settled = False


def _pack_columns(block: np.ndarray) -> List[int]:
    """Each column of a cycles x nets 0/1 matrix as an int, bit t = row t."""
    packed = np.ascontiguousarray(np.packbits(block, axis=0, bitorder="little").T)
    return [int.from_bytes(column.tobytes(), "little") for column in packed]


def _unpack_rows(planes: List[int], length: int) -> List[Tuple[int, ...]]:
    """Inverse of :func:`_pack_columns`: per-cycle tuples of plane bits."""
    if not planes:
        return [()] * length
    size = (length + 7) // 8
    packed = np.frombuffer(
        b"".join(plane.to_bytes(size, "little") for plane in planes), dtype=np.uint8
    ).reshape(len(planes), size)
    bits = np.unpackbits(packed, axis=1, count=length, bitorder="little")
    return list(zip(*bits.tolist()))


@dataclass
class SimulationResult:
    """Everything the power estimator needs from one simulation run."""

    netlist: Netlist
    cycles: int
    outputs: List[Tuple[int, ...]]
    net_toggles: List[int]

    def output_words(self) -> List[Dict[str, int]]:
        """Per-cycle primary outputs as name → value dictionaries."""
        names = [name for name, _ in self.netlist.outputs]
        return [dict(zip(names, row)) for row in self.outputs]
