"""Trace substrate: synthetic generators, benchmark profiles and the
MIPS-like CPU simulator that stands in for the paper's real MIPS traces."""

from repro.tracegen import layout
from repro.tracegen.assembler import Assembler, AssemblyError, Program, assemble
from repro.tracegen.cpu import CPU, CPUError, ExecutionResult, run_program
from repro.tracegen.isa import Instruction, decode
from repro.tracegen.programs import (
    KERNELS,
    build_kernel,
    kernel_names,
    run_kernel,
    trace_kernel,
)
from repro.tracegen.corpus import TraceCorpus, trace_digest
from repro.tracegen.profiles import (
    BENCHMARK_NAMES,
    BENCHMARKS,
    BenchmarkProfile,
    all_traces,
    data_trace,
    get_profile,
    instruction_trace,
    multiplexed_trace,
    trace_key,
)
from repro.tracegen.dinero import load_dinero, save_dinero
from repro.tracegen.synthetic import (
    DataProfile,
    DmaProfile,
    dma_stream,
    InstructionProfile,
    MultiplexProfile,
    multiplex_streams,
    random_stream,
    sequential_stream,
    synthetic_data_stream,
    synthetic_instruction_stream,
)
from repro.tracegen.trace import (
    KIND_DATA,
    KIND_INSTRUCTION,
    KIND_MULTIPLEXED,
    AddressTrace,
    concatenate,
)

__all__ = [
    "AddressTrace",
    "Assembler",
    "AssemblyError",
    "BENCHMARKS",
    "CPU",
    "CPUError",
    "ExecutionResult",
    "Instruction",
    "KERNELS",
    "Program",
    "assemble",
    "build_kernel",
    "decode",
    "kernel_names",
    "run_kernel",
    "run_program",
    "trace_kernel",
    "BENCHMARK_NAMES",
    "BenchmarkProfile",
    "DataProfile",
    "InstructionProfile",
    "KIND_DATA",
    "KIND_INSTRUCTION",
    "KIND_MULTIPLEXED",
    "MultiplexProfile",
    "all_traces",
    "concatenate",
    "DmaProfile",
    "data_trace",
    "dma_stream",
    "get_profile",
    "load_dinero",
    "save_dinero",
    "instruction_trace",
    "layout",
    "multiplex_streams",
    "multiplexed_trace",
    "random_stream",
    "sequential_stream",
    "synthetic_data_stream",
    "synthetic_instruction_stream",
    "TraceCorpus",
    "trace_digest",
    "trace_key",
]
