"""Per-benchmark workload profiles.

The paper evaluates nine UNIX programs (gzip, gunzip, ghostview, espresso,
nova, jedi, latex, matlab, oracle).  The per-benchmark numeric cells of
Tables 2–7 did not survive in the available paper text — only the column
averages — so each profile here assigns a *plausible* per-benchmark
in-sequence target chosen such that the nine-benchmark averages match the
paper's published averages:

* instruction streams: 63.04 % in-sequence on average,
* data streams:        11.39 %,
* multiplexed streams: 57.62 %.

Compression tools (gzip/gunzip) and matlab are array/loop heavy (high
sequentiality); interactive/branchy programs (jedi, ghostview, oracle) sit at
the low end.  EXPERIMENTS.md records the per-benchmark values actually
measured from the generated traces.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Tuple

from repro.obs import metrics as obs_metrics
from repro.obs.trace import span
from repro.tracegen.synthetic import (
    DataProfile,
    InstructionProfile,
    MultiplexProfile,
    multiplex_streams,
    synthetic_data_stream,
    synthetic_instruction_stream,
)
from repro.tracegen.trace import AddressTrace


@dataclass(frozen=True)
class BenchmarkProfile:
    """Stream-statistics targets and generator knobs for one benchmark."""

    name: str
    instruction_in_seq: float  # target in-sequence fraction, instruction bus
    data_in_seq: float  # target in-sequence fraction, data bus
    instruction_length: int  # instruction stream length (bus cycles)
    data_length: int  # data stream length (bus cycles)
    branchy_run_mean: float = 12.0
    local_span: int = 4096
    data_rate: float = 0.50  # multiplexed-bus data splice rate
    p_resume_sequential: float = 0.08
    seed: int = 0

    def instruction_profile(self) -> InstructionProfile:
        return InstructionProfile.for_in_sequence(
            self.instruction_in_seq,
            branchy_run_mean=self.branchy_run_mean,
            local_span=self.local_span,
        )

    def data_profile(self) -> DataProfile:
        return DataProfile.for_in_sequence(self.data_in_seq)

    def mux_data_profile(self) -> DataProfile:
        """Data-slot source for the multiplexed bus.

        Scalar loads/stores dominate the data slots that reach the bus; the
        stack-frame traffic that inflates the standalone data stream is
        mostly covered by the weaver's own sequential frame bursts, so the
        stream-chunk source is de-weighted on stack accesses.
        """
        base = DataProfile.for_in_sequence(self.data_in_seq)
        return replace(base, w_stack=base.w_stack * 0.25)

    def multiplex_profile(self) -> MultiplexProfile:
        return MultiplexProfile(
            data_rate=self.data_rate,
            p_resume_sequential=self.p_resume_sequential,
        )


#: The nine benchmark profiles.  In-sequence targets average to the paper's
#: published stream statistics (63.04 % instruction / 11.39 % data).
BENCHMARKS: Tuple[BenchmarkProfile, ...] = (
    BenchmarkProfile("gzip", 0.700, 0.180, 42000, 12000, seed=101),
    BenchmarkProfile("gunzip", 0.720, 0.200, 39000, 11000, seed=102),
    BenchmarkProfile("ghostview", 0.580, 0.080, 56000, 17000, seed=103),
    BenchmarkProfile("espresso", 0.620, 0.100, 48000, 14000, seed=104),
    BenchmarkProfile("nova", 0.600, 0.090, 36000, 11000, seed=105),
    BenchmarkProfile("jedi", 0.550, 0.060, 52000, 16000, seed=106),
    BenchmarkProfile("latex", 0.610, 0.080, 45000, 13000, seed=107),
    BenchmarkProfile("matlab", 0.680, 0.170, 50000, 16000, seed=108),
    BenchmarkProfile("oracle", 0.610, 0.065, 60000, 19000, seed=109),
)

BENCHMARK_NAMES: Tuple[str, ...] = tuple(profile.name for profile in BENCHMARKS)


def get_profile(name: str) -> BenchmarkProfile:
    """Look a benchmark profile up by name."""
    for profile in BENCHMARKS:
        if profile.name == name:
            return profile
    raise KeyError(f"unknown benchmark {name!r}; known: {BENCHMARK_NAMES}")


def _record_generated(trace: AddressTrace, profile_name: str, kind: str) -> None:
    obs_metrics.counter(
        "tracegen.addresses", benchmark=profile_name, kind=kind
    ).inc(len(trace))


def _stream_length(length: int, default: int) -> int:
    """``length``, or the profile's ``default`` for 0; negative is an error."""
    if length < 0:
        raise ValueError(
            f"stream length must be non-negative (0 means the profile's "
            f"default), got {length}"
        )
    return length or default


def instruction_trace(profile: BenchmarkProfile, length: int = 0) -> AddressTrace:
    """The benchmark's instruction-address stream (Table 2/5 input)."""
    length = _stream_length(length, profile.instruction_length)
    with span("tracegen", benchmark=profile.name, kind="instruction"):
        trace = synthetic_instruction_stream(
            length,
            profile=profile.instruction_profile(),
            seed=profile.seed,
            name=f"{profile.name}.instruction",
        )
    _record_generated(trace, profile.name, "instruction")
    return trace


def data_trace(profile: BenchmarkProfile, length: int = 0) -> AddressTrace:
    """The benchmark's data-address stream (Table 3/6 input)."""
    length = _stream_length(length, profile.data_length)
    with span("tracegen", benchmark=profile.name, kind="data"):
        trace = synthetic_data_stream(
            length,
            profile=profile.data_profile(),
            seed=profile.seed,
            name=f"{profile.name}.data",
        )
    _record_generated(trace, profile.name, "data")
    return trace


def multiplexed_trace(profile: BenchmarkProfile, length: int = 0) -> AddressTrace:
    """The benchmark's multiplexed instruction/data stream (Table 4/7 input).

    The data-slot source stream is generated long enough that the weaver
    never runs dry (the splice rate consumes at most ~0.6 data addresses per
    instruction).
    """
    length = _stream_length(length, profile.instruction_length)
    with span("tracegen", benchmark=profile.name, kind="multiplexed"):
        instruction = instruction_trace(profile, length)
        data_length = max(1000, int(0.7 * len(instruction)))
        data = synthetic_data_stream(
            data_length,
            profile=profile.mux_data_profile(),
            seed=profile.seed,
            name=f"{profile.name}.muxdata",
        )
        trace = multiplex_streams(
            instruction.addresses,
            data.addresses,
            profile=profile.multiplex_profile(),
            seed=profile.seed,
            name=f"{profile.name}.multiplexed",
        )
    _record_generated(trace, profile.name, "multiplexed")
    return trace


def all_traces(kind: str, length: int = 0) -> List[AddressTrace]:
    """All nine benchmark traces of one kind (``instruction``/``data``/
    ``multiplexed``); ``length`` (if non-zero) overrides profile lengths."""
    makers = {
        "instruction": instruction_trace,
        "data": data_trace,
        "multiplexed": multiplexed_trace,
    }
    try:
        maker = makers[kind]
    except KeyError:
        raise ValueError(
            f"unknown kind {kind!r}; expected one of {sorted(makers)}"
        ) from None
    return [maker(profile, length) for profile in BENCHMARKS]
