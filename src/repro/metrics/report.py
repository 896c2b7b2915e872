"""Codec comparison and paper-style table rendering.

Tables 2–7 of the paper all share one shape: a row per benchmark with the
stream length, the in-sequence percentage, the binary transition count, and
for each candidate code its transition count plus percentage savings versus
binary.  :func:`compare_codecs` computes one row; :class:`PaperTable`
accumulates rows, adds the paper's ``Average`` line (savings averaged over
benchmarks, like the paper's per-column averages) and renders plain text.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:
    from repro.engine.config import ExecutionConfig

from repro.core.base import Codec
from repro.metrics.transitions import TransitionReport


@dataclass(frozen=True)
class CodecResult:
    """One code's outcome on one stream."""

    name: str
    transitions: int
    savings: float  # fraction of binary transitions avoided (can be < 0)
    report: TransitionReport


@dataclass(frozen=True)
class ComparisonRow:
    """One benchmark row of a paper-style table."""

    benchmark: str
    length: int
    in_sequence: float
    binary_transitions: int
    results: Tuple[CodecResult, ...]

    def result(self, name: str) -> CodecResult:
        for entry in self.results:
            if entry.name == name:
                return entry
        raise KeyError(f"no result for codec {name!r} in row {self.benchmark!r}")


def compare_codecs(
    codecs: Sequence[Codec],
    addresses: Sequence[int],
    sels: Optional[Sequence[int]] = None,
    stride: int = 4,
    benchmark: str = "",
    config: Optional["ExecutionConfig"] = None,
) -> ComparisonRow:
    """Encode one stream under every codec and tabulate savings vs binary.

    The binary reference is computed from the stream itself (not taken from
    ``codecs``), so callers may pass only the candidate codes.

    The row is computed as engine cells (see
    :func:`repro.engine.comparison_cells`) on ``config``'s engine, which
    rebuilds each codec by registry name from its ``width`` and
    ``params`` — so every codec must come from
    :func:`repro.core.make_codec`.
    ``config`` (an :class:`repro.engine.ExecutionConfig`) decides worker
    count, caching and kernel routing; None means a plain
    ``ExecutionConfig()``: one in-process worker, no cache.  The row is
    bit-identical under every config.
    """
    if not addresses:
        raise ValueError("cannot compare codecs on an empty stream")
    width = codecs[0].width if codecs else 32
    for codec in codecs:
        if codec.width != width:
            raise ValueError("all codecs in a comparison must share a width")

    # Imported here: repro.engine.cells imports repro.metrics.
    from repro.engine import ExecutionConfig, comparison_cells, row_from_results

    cells = comparison_cells(
        codecs, addresses, sels, stride=stride, benchmark=benchmark
    )
    payloads = (config or ExecutionConfig()).engine().run(cells)
    return row_from_results(codecs, payloads, len(addresses), benchmark=benchmark)


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[str]],
    title: str = "",
) -> str:
    """Render a plain-text table with column alignment."""
    widths = [len(header) for header in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    rule = "-+-".join("-" * width for width in widths)
    lines.append(
        " | ".join(header.ljust(width) for header, width in zip(headers, widths))
    )
    lines.append(rule)
    for row in rows:
        lines.append(
            " | ".join(cell.rjust(width) for cell, width in zip(row, widths))
        )
    return "\n".join(lines)


@dataclass
class PaperTable:
    """Accumulates :class:`ComparisonRow` entries and renders a paper table."""

    title: str
    codec_names: Sequence[str]
    rows: List[ComparisonRow] = field(default_factory=list)

    def add(self, row: ComparisonRow) -> None:
        self.rows.append(row)

    def average_savings(self, codec_name: str) -> float:
        """Unweighted mean of per-benchmark savings — the paper's Average row."""
        if not self.rows:
            return 0.0
        return sum(row.result(codec_name).savings for row in self.rows) / len(
            self.rows
        )

    def average_in_sequence(self) -> float:
        if not self.rows:
            return 0.0
        return sum(row.in_sequence for row in self.rows) / len(self.rows)

    def render(self) -> str:
        headers = ["Benchmark", "Length", "In-Seq", "Binary Trans."]
        for name in self.codec_names:
            headers.extend([f"{name} Trans.", f"{name} Sav."])
        body: List[List[str]] = []
        for row in self.rows:
            cells = [
                row.benchmark,
                str(row.length),
                f"{row.in_sequence:.2%}",
                str(row.binary_transitions),
            ]
            for name in self.codec_names:
                result = row.result(name)
                cells.extend([str(result.transitions), f"{result.savings:.2%}"])
            body.append(cells)
        average = ["Average", "", f"{self.average_in_sequence():.2%}", ""]
        for name in self.codec_names:
            average.extend(["", f"{self.average_savings(name):.2%}"])
        body.append(average)
        return render_table(headers, body, title=self.title)

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        """Machine-readable summary: per-codec average savings + in-seq."""
        summary: Dict[str, Dict[str, float]] = {
            "stream": {"in_sequence": self.average_in_sequence()}
        }
        for name in self.codec_names:
            summary[name] = {"average_savings": self.average_savings(name)}
        return summary
