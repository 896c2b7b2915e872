"""Gate-level substrate: cell library, netlists, logic simulation, power
estimation, pad models and the structural codec circuits of Section 4."""

from repro.rtl import blocks, codecs, gates
from repro.rtl.codecs import (
    DECODER_BUILDERS,
    ENCODER_BUILDERS,
    DecoderCircuit,
    EncoderCircuit,
    build_binary_decoder,
    build_binary_encoder,
    build_businvert_decoder,
    build_businvert_encoder,
    build_dualt0_decoder,
    build_dualt0_encoder,
    build_dualt0bi_decoder,
    build_dualt0bi_encoder,
    build_t0_decoder,
    build_t0_encoder,
    build_t0bi_decoder,
    build_t0bi_encoder,
)
from repro.rtl.netlist import Netlist, SimulationResult
from repro.rtl.pads import (
    PAD_INPUT_CAP,
    PAD_INTERNAL_ENERGY,
    PAD_SELF_CAP,
    OutputPadBank,
)
from repro.rtl.power import (
    DEFAULT_GLITCH_CAP,
    DEFAULT_GLITCH_FRACTION,
    DEFAULT_WIRE_CAP,
    PowerEstimate,
    effective_densities,
    estimate_from_simulation,
    estimate_probabilistic,
)

__all__ = [
    "DECODER_BUILDERS",
    "DEFAULT_GLITCH_CAP",
    "DEFAULT_GLITCH_FRACTION",
    "DEFAULT_WIRE_CAP",
    "ENCODER_BUILDERS",
    "effective_densities",
    "DecoderCircuit",
    "EncoderCircuit",
    "Netlist",
    "OutputPadBank",
    "PAD_INPUT_CAP",
    "PAD_INTERNAL_ENERGY",
    "PAD_SELF_CAP",
    "PowerEstimate",
    "SimulationResult",
    "blocks",
    "build_binary_decoder",
    "build_binary_encoder",
    "build_businvert_decoder",
    "build_businvert_encoder",
    "build_dualt0_decoder",
    "build_dualt0_encoder",
    "build_dualt0bi_decoder",
    "build_dualt0bi_encoder",
    "build_t0_decoder",
    "build_t0_encoder",
    "build_t0bi_decoder",
    "build_t0bi_encoder",
    "codecs",
    "estimate_from_simulation",
    "estimate_probabilistic",
    "gates",
]
