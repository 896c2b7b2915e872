"""Job cells: the unit of work the batch engine schedules and caches.

A table regeneration is a grid of independent **cells**, one per
(trace, codec, metric) triple.  Three metrics exist:

``binary-reference``
    The plain-binary transition report plus the in-sequence fraction of a
    stream — the denominator of every savings column.
``codec-transitions``
    One codec's transition report over a stream.  Computed by the codec's
    columnar kernel (:mod:`repro.core.kernels`) when it has one, or else
    by its per-cycle ``encode_stream``; the payload is identical either
    way.
``power-sim``
    One codec's gate-level encoder+decoder simulation over a stream
    (Tables 8/9).  The payload carries only what the power estimator
    reads — cycle and toggle counts — not the per-cycle output vectors;
    the parent rebuilds the (deterministic) netlists by name.

Every cell payload is a plain JSON-ready dict, which is what makes the
on-disk result cache trivial: a cell is *content-addressed* by
:func:`cell_key` and its payload is the full computation result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:
    from repro.metrics.report import ComparisonRow

from repro.core import kernels
from repro.core.base import Codec
from repro.core.registry import make_codec
from repro.metrics.fast import (
    _as_u64,
    _scalar_oracle,
    binary_reference_report,
    count_transitions_fast,
    in_sequence_fraction_fast,
)
from repro.metrics.transitions import TransitionReport
from repro.obs.trace import span as obs_span

METRIC_BINARY = "binary-reference"
METRIC_CODEC = "codec-transitions"
METRIC_POWER = "power-sim"


@dataclass(frozen=True)
class Cell:
    """One schedulable unit: a metric over one stream under one codec.

    ``trace_name`` is display metadata only — it is deliberately *not*
    part of the cache key, so two benchmarks that happen to share a
    stream share cache entries.  ``params`` is the codec's constructor
    parameters as a sorted item tuple (hashable, picklable): with the
    name and width they rebuild the codec in any process, and a trained
    code's include its training stream.
    """

    metric: str
    trace_name: str
    codec_name: str
    width: int
    params: Tuple[Tuple[str, Any], ...]
    stride: int
    addresses: Tuple[int, ...]
    sels: Optional[Tuple[int, ...]]

    def label(self) -> str:
        return f"{self.metric}:{self.trace_name}:{self.codec_name}"


def make_cell(
    metric: str,
    trace_name: str,
    addresses: Sequence[int],
    sels: Optional[Sequence[int]] = None,
    codec: Optional[Codec] = None,
    width: int = 32,
    stride: int = 4,
    codec_name: Optional[str] = None,
) -> Cell:
    """Build a cell, canonicalising codec identity from a live codec.

    ``codec_name`` overrides the name when no live codec is at hand —
    power cells identify their circuit by registry name alone.
    """
    if codec_name is None:
        codec_name = codec.name if codec is not None else "binary"
    return Cell(
        metric=metric,
        trace_name=trace_name,
        codec_name=codec_name,
        width=codec.width if codec is not None else width,
        params=(
            tuple(sorted(codec.params.items())) if codec is not None else ()
        ),
        stride=stride,
        addresses=tuple(addresses),
        sels=tuple(sels) if sels is not None else None,
    )


# ---------------------------------------------------------------------------
# TransitionReport <-> JSON payload
# ---------------------------------------------------------------------------


def report_to_payload(report: TransitionReport) -> Dict[str, Any]:
    return {
        "total": report.total,
        "bus_transitions": report.bus_transitions,
        "extra_transitions": report.extra_transitions,
        "cycles": report.cycles,
        "per_line": list(report.per_line),
    }


def report_from_payload(payload: Dict[str, Any]) -> TransitionReport:
    return TransitionReport(
        total=payload["total"],
        bus_transitions=payload["bus_transitions"],
        extra_transitions=payload["extra_transitions"],
        cycles=payload["cycles"],
        per_line=tuple(payload["per_line"]),
    )


# ---------------------------------------------------------------------------
# Cell computation
# ---------------------------------------------------------------------------


#: Execution paths a cell can take, as reported in engine telemetry.
PATH_COLUMNAR = "columnar"
PATH_GATE_SIM = "gate-sim"
PATH_KERNEL = "kernel"
#: The per-cycle ``encode_stream`` path.  Benchmarks read this label as
#: ``engine.cell_compute_us{path="steppable"}``, so it stays as it is.
PATH_STEPPABLE = "steppable"


def compute_cell(
    cell: Cell, use_kernels: bool = True
) -> Tuple[Dict[str, Any], str]:
    """Run one cell to completion: its JSON-ready payload and the
    execution path (one of the ``PATH_*`` labels) that computed it.

    A codec cell rebuilds its codec once, from ``(name, width, params)``
    — a trained code retrains from the training stream in its params.
    ``use_kernels`` routes it through the codec's columnar kernel
    (:mod:`repro.core.kernels`) when it has one.  The path is telemetry
    only: the payload is identical on every path, so cache entries are
    path-agnostic.
    """
    if cell.metric == METRIC_BINARY:
        return _compute_binary_reference(cell), PATH_COLUMNAR
    if cell.metric == METRIC_CODEC:
        return _compute_codec_transitions(cell, use_kernels)
    if cell.metric == METRIC_POWER:
        return _compute_power_sim(cell), PATH_GATE_SIM
    raise ValueError(f"unknown cell metric {cell.metric!r}")


def _compute_binary_reference(cell: Cell) -> Dict[str, Any]:
    with obs_span(
        "count", codec="binary", cycles=len(cell.addresses)
    ):
        # One uint64 conversion serves both statistics; a stream too wide
        # to pack goes to them as it is.
        addresses = (
            cell.addresses
            if _scalar_oracle(cell.width)
            else _as_u64(cell.addresses)
        )
        report = binary_reference_report(addresses, width=cell.width)
        in_sequence = in_sequence_fraction_fast(addresses, cell.stride)
    return {"report": report_to_payload(report), "in_sequence": in_sequence}


def _compute_codec_transitions(
    cell: Cell, use_kernels: bool
) -> Tuple[Dict[str, Any], str]:
    codec = make_codec(cell.codec_name, cell.width, **dict(cell.params))
    if use_kernels and kernels.has_encode_kernel(codec):
        with obs_span("encode", codec=codec.name, cycles=len(cell.addresses)):
            result = kernels.encode_stream_kernel(
                codec, cell.addresses, cell.sels
            )
        with obs_span("count", codec=codec.name, cycles=result.cycles):
            report = result.report()
        return {
            "report": report_to_payload(report),
            "encoded_words": result.cycles,
        }, PATH_KERNEL
    with obs_span("encode", codec=codec.name, cycles=len(cell.addresses)):
        words = codec.make_encoder().encode_stream(cell.addresses, cell.sels)
    with obs_span("count", codec=codec.name, cycles=len(words)):
        report = count_transitions_fast(words, width=cell.width)
    return {
        "report": report_to_payload(report),
        "encoded_words": len(words),
    }, PATH_STEPPABLE


def comparison_cells(
    codecs: Sequence[Codec],
    addresses: Sequence[int],
    sels: Optional[Sequence[int]] = None,
    stride: int = 4,
    benchmark: str = "",
) -> List[Cell]:
    """The cells of one :func:`repro.metrics.compare_codecs` row: the
    binary reference first, then one codec-transitions cell per codec."""
    width = codecs[0].width if codecs else 32
    cells = [
        make_cell(
            METRIC_BINARY,
            benchmark,
            addresses,
            sels=None,
            width=width,
            stride=stride,
        )
    ]
    cells.extend(
        make_cell(
            METRIC_CODEC,
            benchmark,
            addresses,
            sels=sels,
            codec=codec,
            stride=stride,
        )
        for codec in codecs
    )
    return cells


def row_from_results(
    codecs: Sequence[Codec],
    payloads: Sequence[Dict[str, Any]],
    length: int,
    benchmark: str = "",
) -> "ComparisonRow":
    """Assemble a :class:`~repro.metrics.report.ComparisonRow` from the
    payloads of :func:`comparison_cells` (same order)."""
    from repro.metrics.report import CodecResult, ComparisonRow

    binary_payload = payloads[0]
    binary_report = report_from_payload(binary_payload["report"])
    results = []
    for codec, payload in zip(codecs, payloads[1:]):
        report = report_from_payload(payload["report"])
        savings = (
            1.0 - report.total / binary_report.total
            if binary_report.total
            else 0.0
        )
        results.append(
            CodecResult(
                name=codec.name,
                transitions=report.total,
                savings=savings,
                report=report,
            )
        )
    return ComparisonRow(
        benchmark=benchmark,
        length=length,
        in_sequence=binary_payload["in_sequence"],
        binary_transitions=binary_report.total,
        results=tuple(results),
    )


def _compute_power_sim(cell: Cell) -> Dict[str, Any]:
    from repro.rtl.codecs import DECODER_BUILDERS, ENCODER_BUILDERS

    name = cell.codec_name
    with obs_span("simulate", codec=name, cycles=len(cell.addresses)):
        encoder = ENCODER_BUILDERS[name](cell.width)
        enc_result, words = encoder.run(cell.addresses, cell.sels)
        decoder = DECODER_BUILDERS[name](cell.width)
        dec_result, decoded = decoder.run(words, cell.sels)
    if list(decoded) != list(cell.addresses):
        raise AssertionError(f"{name} circuit roundtrip failed")
    with obs_span("count", codec=name, cycles=len(words)):
        report = count_transitions_fast(words, width=cell.width)
    return {
        "encoder": {
            "cycles": enc_result.cycles,
            "net_toggles": list(enc_result.net_toggles),
        },
        "decoder": {
            "cycles": dec_result.cycles,
            "net_toggles": list(dec_result.net_toggles),
        },
        "per_cycle": report.per_cycle,
        "line_count": cell.width + (words[0].extra_count if words else 0),
        "simulated_cycles": 2 * len(cell.addresses),
    }
