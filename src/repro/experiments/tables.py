"""Regeneration of the paper's Tables 1–7.

Each ``tableN`` function reproduces one table of the paper's evaluation:
Table 1 analytically, Tables 2–4 (existing codes: T0, bus-invert) and
Tables 5–7 (mixed codes: T0_BI, dual T0, dual T0_BI) on the nine calibrated
benchmark streams.  The returned :class:`~repro.metrics.report.PaperTable`
renders the same rows the paper prints; ``PAPER_AVERAGES`` records the
published column averages for comparison in EXPERIMENTS.md and the tests.

:data:`TABLE_SPECS` is the machine-readable shape of Tables 2–7 (title,
stream kind, codec roster) shared by the builders here, the CLI, and the
evaluation service client — so a table rebuilt from service payloads is
rendered from the same spec and comes out byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

if TYPE_CHECKING:
    from repro.engine.config import ExecutionConfig

from repro.core import Codec, make_codec
from repro.metrics import PaperTable, render_table
from repro.power.analytical import table1 as analytical_table1
from repro.tracegen import all_traces

#: Column averages published in the paper, for table-by-table comparison.
PAPER_AVERAGES: Dict[str, Dict[str, float]] = {
    "table2": {"in_sequence": 0.6304, "t0": 0.3552, "bus-invert": 0.0003},
    "table3": {"in_sequence": 0.1139, "t0": 0.0337, "bus-invert": 0.1078},
    "table4": {"in_sequence": 0.5762, "t0": 0.1025, "bus-invert": 0.0979},
    "table5": {
        "in_sequence": 0.6305,
        "t0bi": 0.3492,
        "dualt0": 0.3552,
        "dualt0bi": 0.3552,
    },
    "table6": {
        "in_sequence": 0.1140,
        "t0bi": 0.1282,
        "dualt0": 0.0000,
        "dualt0bi": 0.1066,
    },
    "table7": {
        "in_sequence": 0.5762,
        "t0bi": 0.1956,
        "dualt0": 0.1215,
        "dualt0bi": 0.2225,
    },
}

EXISTING_CODES = ("t0", "bus-invert")
MIXED_CODES = ("t0bi", "dualt0", "dualt0bi")


@dataclass(frozen=True)
class TableSpec:
    """The shape of one stream table: what it measures, over which streams."""

    number: int
    title: str
    kind: str  # trace kind: instruction | data | multiplexed
    codecs: Sequence[str]


#: Tables 2–7 by number — the single source of truth for their shape.
TABLE_SPECS: Dict[int, TableSpec] = {
    2: TableSpec(
        2,
        "Table 2 — existing codes, instruction address streams",
        "instruction",
        EXISTING_CODES,
    ),
    3: TableSpec(
        3,
        "Table 3 — existing codes, data address streams",
        "data",
        EXISTING_CODES,
    ),
    4: TableSpec(
        4,
        "Table 4 — existing codes, multiplexed address streams",
        "multiplexed",
        EXISTING_CODES,
    ),
    5: TableSpec(
        5,
        "Table 5 — mixed codes, instruction address streams",
        "instruction",
        MIXED_CODES,
    ),
    6: TableSpec(
        6,
        "Table 6 — mixed codes, data address streams",
        "data",
        MIXED_CODES,
    ),
    7: TableSpec(
        7,
        "Table 7 — mixed codes, multiplexed address streams",
        "multiplexed",
        MIXED_CODES,
    ),
}


def _codecs(names: Sequence[str], width: int = 32, stride: int = 4) -> List[Codec]:
    built = []
    for name in names:
        if name in ("bus-invert",):
            built.append(make_codec(name, width))
        else:
            built.append(make_codec(name, width, stride=stride))
    return built


def _stream_table(
    spec: TableSpec, length: int, config: Optional["ExecutionConfig"]
) -> PaperTable:
    """Build one paper table over the nine benchmark streams.

    Every benchmark row's cells go to ``config``'s engine as **one**
    batch, so a worker pool spans the full grid rather than one row at a
    time.  The streams come from the config's trace store when it has a
    cache directory.  None means a plain ``ExecutionConfig()``: one
    in-process worker, no cache.  The rendered table is identical under
    every config.
    """
    # Imported here: repro.engine.cells imports repro.metrics.
    from repro.engine import ExecutionConfig, comparison_cells, row_from_results

    config = config or ExecutionConfig()
    codecs = _codecs(spec.codecs)
    table = PaperTable(title=spec.title, codec_names=list(spec.codecs))
    streams = all_traces(
        spec.kind, length, store=config.traces(), refresh=config.refresh
    )
    cells = []
    spans = []
    for trace in streams:
        row_cells = comparison_cells(
            codecs,
            trace.addresses,
            trace.effective_sels(),
            stride=trace.stride,
            benchmark=trace.name.split(".")[0],
        )
        spans.append((len(cells), len(row_cells)))
        cells.extend(row_cells)
    payloads = config.engine().run(
        cells, codecs={codec.name: codec for codec in codecs}
    )
    for trace, (start, count) in zip(streams, spans):
        table.add(
            row_from_results(
                codecs,
                payloads[start : start + count],
                len(trace.addresses),
                benchmark=trace.name.split(".")[0],
            )
        )
    return table


def table1_text(width: int = 32, stride: int = 1) -> str:
    """Table 1: analytical comparison (binary / T0 / bus-invert)."""
    rows = [
        [
            row.stream,
            row.code,
            f"{row.transitions_per_clock:.4f}",
            f"{row.transitions_per_line:.4f}",
            f"{row.relative_power:.4f}",
        ]
        for row in analytical_table1(width, stride)
    ]
    return render_table(
        ["Stream", "Code", "Avg Trans/Clock", "Avg Trans/Line", "Rel. Power"],
        rows,
        title=f"Table 1 — analytical comparison (N = {width})",
    )


def table2(
    length: int = 0,
    config: Optional["ExecutionConfig"] = None,
) -> PaperTable:
    """Table 2: existing codes on instruction address streams."""
    return _stream_table(TABLE_SPECS[2], length, config)


def table3(
    length: int = 0,
    config: Optional["ExecutionConfig"] = None,
) -> PaperTable:
    """Table 3: existing codes on data address streams."""
    return _stream_table(TABLE_SPECS[3], length, config)


def table4(
    length: int = 0,
    config: Optional["ExecutionConfig"] = None,
) -> PaperTable:
    """Table 4: existing codes on multiplexed address streams."""
    return _stream_table(TABLE_SPECS[4], length, config)


def table5(
    length: int = 0,
    config: Optional["ExecutionConfig"] = None,
) -> PaperTable:
    """Table 5: mixed codes on instruction address streams."""
    return _stream_table(TABLE_SPECS[5], length, config)


def table6(
    length: int = 0,
    config: Optional["ExecutionConfig"] = None,
) -> PaperTable:
    """Table 6: mixed codes on data address streams."""
    return _stream_table(TABLE_SPECS[6], length, config)


def table7(
    length: int = 0,
    config: Optional["ExecutionConfig"] = None,
) -> PaperTable:
    """Table 7: mixed codes on multiplexed address streams."""
    return _stream_table(TABLE_SPECS[7], length, config)


TABLE_BUILDERS = {
    2: table2,
    3: table3,
    4: table4,
    5: table5,
    6: table6,
    7: table7,
}


def compare_with_paper(table_id: int, table: PaperTable) -> str:
    """Render a measured-vs-paper average comparison block."""
    key = f"table{table_id}"
    paper = PAPER_AVERAGES.get(key, {})
    lines = [f"Averages vs paper ({key}):"]
    lines.append(
        f"  in-sequence: measured {table.average_in_sequence():6.2%}"
        + (f"  paper {paper['in_sequence']:6.2%}" if "in_sequence" in paper else "")
    )
    for name in table.codec_names:
        measured = table.average_savings(name)
        published = paper.get(name)
        suffix = f"  paper {published:6.2%}" if published is not None else ""
        lines.append(f"  {name:10s} savings: measured {measured:6.2%}{suffix}")
    return "\n".join(lines)
