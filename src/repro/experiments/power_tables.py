"""Regeneration of the paper's Tables 8 and 9 (codec power).

Table 8: encoder/decoder power of the binary, T0 and dual T0_BI circuits
driving *on-chip* loads (0.1–1.0 pF).  Table 9: global (output pads + logic)
power for *off-chip* loads (20–200 pF).  Following the paper's methodology:

* the encoders see the reference switching activities of the benchmark
  (multiplexed) address streams;
* the decoders see the *encoded* streams, whose activities are reduced;
* off-chip, the encoder outputs drive the pad inputs (0.01 pF) and the pads
  drive the external load; receiver-side input-pad power is neglected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:
    from repro.engine.config import ExecutionConfig

from repro.metrics import render_table
from repro.rtl.codecs import DECODER_BUILDERS, ENCODER_BUILDERS
from repro.rtl.netlist import SimulationResult
from repro.rtl.pads import PAD_INPUT_CAP, OutputPadBank
from repro.rtl.power import estimate_from_simulation
from repro.tracegen import get_profile, multiplexed_trace
from repro.tracegen.trace import AddressTrace

#: Load sweeps (farads).  The paper's exact grid did not survive in the
#: available text; these spans match its stated ranges (on-chip "up to
#: 0.4 pF and beyond", off-chip "between 20 and 100 pF" and above).
ON_CHIP_LOADS: Tuple[float, ...] = (
    0.1e-12, 0.2e-12, 0.4e-12, 0.6e-12, 0.8e-12, 1.0e-12,
)
OFF_CHIP_LOADS: Tuple[float, ...] = (
    20e-12, 50e-12, 100e-12, 150e-12, 200e-12,
)

#: The three codes whose circuits the paper implements and measures.
POWER_CODES: Tuple[str, ...] = ("binary", "t0", "dualt0bi")


@dataclass
class CodecPowerRun:
    """One codec's simulation artefacts over the reference stream."""

    name: str
    encoder_result: SimulationResult
    decoder_result: SimulationResult
    encoded_transitions_per_cycle: float
    line_count: int


def simulate_codecs(
    benchmark: str = "gzip",
    length: int = 1500,
    width: int = 32,
    codes: Sequence[str] = POWER_CODES,
    config: Optional["ExecutionConfig"] = None,
) -> Dict[str, CodecPowerRun]:
    """Run each codec circuit over a benchmark multiplexed stream.

    The per-codec gate-level simulations run as ``power-sim`` cells on
    ``config``'s engine (an :class:`repro.engine.ExecutionConfig`; None
    means a plain ``ExecutionConfig()``: one in-process worker, no cache),
    and the stream comes from ``config``'s trace store when it has one.
    """
    # Imported here: repro.engine.cells imports repro.metrics.
    from repro.engine import ExecutionConfig

    config = config or ExecutionConfig()
    trace = multiplexed_trace(
        get_profile(benchmark),
        length,
        store=config.traces(),
        refresh=config.refresh,
    )
    return _power_runs(trace, codes, width, config)


def _power_runs(
    trace: AddressTrace,
    codes: Sequence[str],
    width: int,
    config: Optional["ExecutionConfig"] = None,
) -> Dict[str, CodecPowerRun]:
    """Each codec circuit over ``trace``, as one ``power-sim`` cell apiece.

    A cell payload carries only the cycle/toggle counts the power
    estimator reads; the deterministic netlists are rebuilt here, so the
    power figures are identical under every config (the per-cycle output
    vectors, which nothing downstream reads, are empty).
    """
    # Imported here: repro.engine.cells imports repro.metrics.
    from repro.engine import METRIC_POWER, ExecutionConfig, make_cell

    cells = [
        make_cell(
            METRIC_POWER,
            trace.name,
            trace.addresses,
            trace.effective_sels(),
            width=width,
            codec_name=name,
        )
        for name in codes
    ]
    payloads = (config or ExecutionConfig()).engine().run(cells)
    runs: Dict[str, CodecPowerRun] = {}
    for name, payload in zip(codes, payloads):
        netlists = {
            "encoder": ENCODER_BUILDERS[name](width).netlist,
            "decoder": DECODER_BUILDERS[name](width).netlist,
        }
        results = {
            side: SimulationResult(
                netlist=netlists[side],
                cycles=payload[side]["cycles"],
                outputs=[],
                net_toggles=list(payload[side]["net_toggles"]),
            )
            for side in ("encoder", "decoder")
        }
        runs[name] = CodecPowerRun(
            name=name,
            encoder_result=results["encoder"],
            decoder_result=results["decoder"],
            encoded_transitions_per_cycle=payload["per_cycle"],
            line_count=payload["line_count"],
        )
    return runs


@dataclass
class Table8Row:
    load_farads: float
    encoder_mw: Dict[str, float]
    decoder_mw: Dict[str, float]


def table8(
    runs: Optional[Dict[str, CodecPowerRun]] = None,
    loads: Sequence[float] = ON_CHIP_LOADS,
) -> List[Table8Row]:
    """Table 8: enc/dec power for on-chip loads."""
    runs = runs if runs is not None else simulate_codecs()
    rows: List[Table8Row] = []
    for load in loads:
        encoder_mw = {
            name: estimate_from_simulation(run.encoder_result, output_load=load).total
            * 1e3
            for name, run in runs.items()
        }
        decoder_mw = {
            name: estimate_from_simulation(run.decoder_result, output_load=load).total
            * 1e3
            for name, run in runs.items()
        }
        rows.append(Table8Row(load, encoder_mw, decoder_mw))
    return rows


def render_table8(rows: Sequence[Table8Row]) -> str:
    headers = ["Load (pF)"]
    names = list(rows[0].encoder_mw)
    for name in names:
        headers.extend([f"{name} enc (mW)", f"{name} dec (mW)"])
    body = []
    for row in rows:
        cells = [f"{row.load_farads*1e12:.1f}"]
        for name in names:
            cells.extend(
                [f"{row.encoder_mw[name]:.3f}", f"{row.decoder_mw[name]:.3f}"]
            )
        body.append(cells)
    return render_table(
        headers, body, title="Table 8 — enc/dec power, on-chip loads"
    )


@dataclass
class Table9Row:
    load_farads: float
    pads_mw: Dict[str, float]
    global_mw: Dict[str, float]  # pads + encoder logic + decoder logic

    def best(self) -> str:
        return min(self.global_mw, key=self.global_mw.get)  # type: ignore[arg-type]


def table9(
    runs: Optional[Dict[str, CodecPowerRun]] = None,
    loads: Sequence[float] = OFF_CHIP_LOADS,
) -> List[Table9Row]:
    """Table 9: global (pads + logic) power for off-chip loads."""
    runs = runs if runs is not None else simulate_codecs()
    rows: List[Table9Row] = []
    for load in loads:
        pads_mw: Dict[str, float] = {}
        global_mw: Dict[str, float] = {}
        for name, run in runs.items():
            bank = OutputPadBank(run.line_count, load)
            pad_power = bank.power(run.encoded_transitions_per_cycle)
            # Encoder drives the pad inputs (0.01 pF per line); decoder sees
            # the already-reduced encoded stream on-chip.
            encoder_power = estimate_from_simulation(
                run.encoder_result, output_load=PAD_INPUT_CAP
            ).total
            decoder_power = estimate_from_simulation(
                run.decoder_result, output_load=0.1e-12
            ).total
            pads_mw[name] = pad_power * 1e3
            global_mw[name] = (pad_power + encoder_power + decoder_power) * 1e3
        rows.append(Table9Row(load, pads_mw, global_mw))
    return rows


def render_table9(rows: Sequence[Table9Row]) -> str:
    headers = ["Load (pF)"]
    names = list(rows[0].global_mw)
    for name in names:
        headers.extend([f"{name} pads (mW)", f"{name} global (mW)"])
    headers.append("best")
    body = []
    for row in rows:
        cells = [f"{row.load_farads*1e12:.0f}"]
        for name in names:
            cells.extend(
                [f"{row.pads_mw[name]:.1f}", f"{row.global_mw[name]:.1f}"]
            )
        cells.append(row.best())
        body.append(cells)
    return render_table(
        headers, body, title="Table 9 — global power, off-chip loads"
    )
