"""The three batch workloads: ``tables-cold``, ``tables-warm``, ``power-gzip``.

Each pass regenerates tables through the package's public functions and
compares the rendered text byte for byte with the committed
``benchmarks/results/table{2..9}.txt``; a mismatch is a failed operation.
Every job is timed by a :class:`~common.Clock`, in reference seconds.
"""

from __future__ import annotations

import resource
import statistics
from typing import Callable, Dict, Optional, Sequence, Tuple

from common import (
    LAYER_UNITS,
    TIME_UNITS,
    Clock,
    Context,
    PassResult,
    Report,
    add_end_to_end,
    import_seconds,
    measure,
    percentile,
    read_golden,
)
from layers import Tracer

#: Stream length the committed Table 8/9 texts were generated at
#: (``benchmarks/bench_table8_onchip_power.py``).
POWER_LENGTH = 2000
#: Table 9's committed text uses this finer load sweep plus a crossover line
#: (``benchmarks/bench_table9_offchip_power.py``).
TABLE9_LOADS = [load * 1e-12 for load in (20, 35, 50, 65, 80, 100, 125, 150, 200)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _tally(report: Report, passes: Sequence[PassResult]) -> None:
    report.attempted += sum(one.attempted for one in passes)
    report.failed += sum(one.failed for one in passes)


def batch_report(
    ctx: Context, clock: Clock, setup_s: float, run_pass: Callable[[Clock], PassResult]
) -> Report:
    """Untraced: end-to-end metrics.  Traced: half the run untraced, half
    traced, and per-layer metrics from the traced half."""
    report = Report()
    if not ctx.trace:
        passes = measure(lambda: run_pass(clock), ctx.seconds)
        _tally(report, passes)
        jobs = [job for one in passes for job in one.job_s]
        add_end_to_end(
            report,
            setup_s,
            statistics.median(one.wall_s for one in passes),
            percentile(jobs, 0.5),
            jobs,
            peak_rss_mb(),
        )
        report.notes.append(f"passes: {len(passes)}")
        return report
    plain = measure(lambda: run_pass(clock), ctx.seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        traced = measure(lambda: run_pass(clock), ctx.seconds / 2)
    finally:
        tracer.uninstall()
    _tally(report, plain + traced)
    raw_wall = sum(one.raw_wall_s for one in traced)
    scale = sum(one.wall_s for one in traced) / raw_wall
    for name, value in tracer.layer_metrics(len(traced), raw_wall).items():
        unit = LAYER_UNITS[name]
        report.add(name, value * scale if unit in TIME_UNITS else value, unit)
    for name, unit in LAYER_UNITS.items():  # the service layer, not reached here
        if name.startswith("service."):
            report.add(name, 0.0, unit)
    report.add(
        "trace.overhead_frac",
        statistics.median(one.wall_s for one in traced)
        / statistics.median(one.wall_s for one in plain)
        - 1.0,
        "ratio",
    )
    report.notes.append(f"passes: {len(plain)} untraced + {len(traced)} traced")
    return report


# -- Tables 2-7 ---------------------------------------------------------


class TablesWorkload:
    """Tables 2-7 at paper stream lengths, golden-checked every pass."""

    def __init__(self, config_factory: Callable[[], Optional[object]]) -> None:
        from repro import experiments

        self.builders = [
            (number, getattr(experiments, f"table{number}")) for number in range(2, 8)
        ]
        self.golden = {n: read_golden(f"table{n}.txt") for n, _ in self.builders}
        self.config_factory = config_factory
        self.expect_cached = False
        self.tables: Dict[int, object] = {}

    def _render(
        self, number: int, builder: Callable[..., object], config: Optional[object]
    ) -> str:
        from repro.experiments import compare_with_paper

        table = builder() if config is None else builder(config=config)
        self.tables[number] = table
        return f"{table.render()}\n\n{compare_with_paper(number, table)}\n"  # type: ignore[attr-defined]

    def run_pass(self, clock: Clock) -> PassResult:
        config = self.config_factory()
        result = PassResult(0.0, 0.0, [], len(self.builders), 0)
        for number, builder in self.builders:
            text, raw, ref = clock.time(self._render, number, builder, config)
            result.wall_s += ref
            result.raw_wall_s += raw
            result.job_s.append(ref)
            result.failed += text != self.golden[number]
        if self.expect_cached and config.engine().stats.misses:  # type: ignore[union-attr]
            result.failed = max(result.failed, 1)  # a warm pass must be served from the cache
        return result

    def paper_err_pp(self) -> float:
        """Mean |measured - published| column average, percentage points."""
        from repro.experiments import PAPER_AVERAGES

        gaps = []
        for number, table in self.tables.items():
            for column, published in PAPER_AVERAGES[f"table{number}"].items():
                measured = (
                    table.average_in_sequence()  # type: ignore[attr-defined]
                    if column == "in_sequence"
                    else table.average_savings(column)  # type: ignore[attr-defined]
                )
                gaps.append(abs(measured - published) * 100.0)
        return sum(gaps) / len(gaps)


def _tables_report(
    ctx: Context, clock: Clock, workload: TablesWorkload, setup_s: float
) -> Report:
    report = batch_report(ctx, clock, setup_s, workload.run_pass)
    report.notes.append(f"paper_err_pp: {workload.paper_err_pp():.4f} pp")
    report.notes.append(clock.note())
    return report


def tables_cold(ctx: Context) -> Report:
    clock = Clock()
    setup_s = 0.0 if ctx.trace else import_seconds()
    return _tables_report(ctx, clock, TablesWorkload(lambda: None), setup_s)


def tables_warm(ctx: Context) -> Report:
    from repro.engine import ExecutionConfig

    clock = Clock()
    cache_dir = ctx.workdir / "result-cache"
    workload = TablesWorkload(lambda: ExecutionConfig(jobs=2, cache_dir=cache_dir))
    setup_s = 0.0 if ctx.trace else import_seconds()
    fill = workload.run_pass(clock)  # computes and caches every cell
    workload.expect_cached = True
    report = _tables_report(ctx, clock, workload, setup_s + fill.wall_s)
    _tally(report, [fill])
    return report


# -- Tables 8-9 ---------------------------------------------------------


class PowerWorkload:
    """Gate-level simulation of the three codec circuits, then Tables 8-9."""

    def __init__(self) -> None:
        from repro.experiments.power_tables import POWER_CODES

        self.codes = POWER_CODES
        self.golden8 = read_golden("table8.txt")
        self.golden9 = read_golden("table9.txt")

    @staticmethod
    def _simulate(name: str) -> Dict[str, object]:
        from repro.experiments import simulate_codecs

        return simulate_codecs(length=POWER_LENGTH, codes=(name,))  # type: ignore[return-value]

    @staticmethod
    def _render(runs: Dict[str, object]) -> Tuple[str, str]:
        from repro.experiments import render_table8, render_table9, table8, table9

        text8 = render_table8(table8(runs)) + "\n"  # type: ignore[arg-type]
        rows9 = table9(runs, loads=TABLE9_LOADS)  # type: ignore[arg-type]
        text9 = render_table9(rows9)
        crossover = next(
            (row.load_farads for row in rows9 if row.best() == "dualt0bi"), None
        )
        if crossover is not None:
            text9 += (
                f"\n\nT0 -> dual T0_BI crossover at ~{crossover*1e12:.0f} pF "
                "(paper: T0 convenient for 20-100 pF, dual T0_BI above)"
            )
        return text8, text9 + "\n"

    def run_pass(self, clock: Clock) -> PassResult:
        runs: Dict[str, object] = {}
        result = PassResult(0.0, 0.0, [], 2, 0)
        for name in self.codes:
            run, raw, ref = clock.time(self._simulate, name)
            runs.update(run)
            result.wall_s += ref
            result.raw_wall_s += raw
            result.job_s.append(ref)
        (text8, text9), raw, ref = clock.time(self._render, runs)
        result.wall_s += ref
        result.raw_wall_s += raw
        result.failed = (text8 != self.golden8) + (text9 != self.golden9)
        return result


def power_gzip(ctx: Context) -> Report:
    clock = Clock()
    setup_s = 0.0 if ctx.trace else import_seconds()
    report = batch_report(ctx, clock, setup_s, PowerWorkload().run_pass)
    report.notes.append(
        "power model unvalidated: the repo holds no paper figures for Tables 8-9"
    )
    report.notes.append(clock.note())
    return report
