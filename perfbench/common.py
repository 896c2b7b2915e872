"""Shared pieces of the benchmark: run context, result record, clock, statistics."""

from __future__ import annotations

import math
import multiprocessing
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Sequence, Tuple, TypeVar

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "benchmarks" / "results"
T = TypeVar("T")

#: Fresh interpreters timed for the import share of ``setup_s`` (median).
IMPORT_SAMPLES = 7
IMPORT_STATEMENT = "import repro.experiments, repro.engine, repro.service"
#: A fixed standard-library import that scales fresh-interpreter times (see
#: :func:`startup_time`), and its time on the reference host.
REFERENCE_IMPORT = (
    "import argparse, asyncio, dataclasses, decimal, email.message, http.client, "
    "json, logging, multiprocessing, sqlite3, unittest, xml.dom.minidom"
)
REFERENCE_IMPORT_S = 0.14
#: Time of the calibration loop on the reference host (see :class:`Clock`).
CALIBRATION_REFERENCE_S = 0.016
#: The loop runs this many times per calibration and the fastest run
#: counts: interruptions only ever slow a run down.
CALIBRATION_REPEATS = 7

#: Units of every per-layer metric, shared with the service workload.
LAYER_UNITS: Dict[str, str] = {
    "tracegen.busy_s": "s",
    "tracegen.addresses": "count",
    "core.encode_busy_s": "s",
    "core.encoded_words": "count",
    "core.kernel_share": "ratio",
    "metrics.count_busy_s": "s",
    "metrics.count_calls": "count",
    "metrics.compare_self_s": "s",
    "engine.run_self_s": "s",
    "engine.cells": "count",
    "engine.cache_hits": "count",
    "engine.cache_misses": "count",
    "engine.hit_ratio": "ratio",
    "engine.cache_io_s": "s",
    "rtl.simulate_busy_s": "s",
    "rtl.simulated_cycles": "count",
    "rtl.us_per_cycle": "us",
    "rtl.estimate_busy_s": "s",
    "experiments.render_busy_s": "s",
    "service.submit_ms_p50": "ms",
    "service.compute_ms_p50": "ms",
    "service.wait_ms_p50": "ms",
    "service.dedup_ratio": "ratio",
    "service.rejected": "count",
    "service.request_bytes": "bytes",
    "other.busy_s": "s",
    "trace.overhead_frac": "ratio",
}

#: Units that are times, scaled to reference seconds by :class:`Clock`.
TIME_UNITS = ("s", "ms", "us")


@dataclass
class Context:
    """One benchmark run's arguments plus its scratch directory."""

    seed: int
    seconds: float
    trace: bool
    workdir: Path


@dataclass
class Report:
    """What a workload measured: operation counts, metrics, notes."""

    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def add(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)


@dataclass
class PassResult:
    """One measured pass: wall time and per-job latencies in reference
    seconds (see :class:`Clock`), the raw wall time, and its checks."""

    wall_s: float
    raw_wall_s: float
    job_s: List[float]
    attempted: int
    failed: int


def _calibration_loop() -> None:
    """A fixed pure-Python workload of about 16 ms: integer arithmetic,
    dict stores and a keyed sort."""
    acc = 0
    table: Dict[int, int] = {}
    for i in range(60_000):
        acc ^= (i * 2654435761) & 0xFFFFFFFF
        table[i & 1023] = acc
    sorted(range(20_000), key=lambda v: (v * 7919) % 10_007)


def _fastest_loop() -> float:
    """The fastest of CALIBRATION_REPEATS runs of the calibration loop."""
    runs = []
    for _ in range(CALIBRATION_REPEATS):
        started = time.perf_counter()
        _calibration_loop()
        runs.append(time.perf_counter() - started)
    return min(runs)


def _loop_helper(conn: Any) -> None:
    """Runs :func:`_fastest_loop` whenever asked, until told to stop."""
    while conn.recv():
        conn.send(_fastest_loop())


class Clock:
    """Wall time scaled to a reference machine speed.

    A shared host's CPU speed drifts by tens of percent over minutes, far
    more than the changes the benchmark must resolve.  So around every
    timed segment the clock times a fixed pure-Python loop, and reports
    the segment's wall time multiplied by CALIBRATION_REFERENCE_S over the
    mean loop time just before and just after it: "reference seconds",
    the time the segment would take on a host that runs the loop in
    exactly CALIBRATION_REFERENCE_S.  Calibration time is not counted in
    any segment.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.last = self._calibrate()

    def _loop_time(self) -> float:
        return _fastest_loop()

    def _calibrate(self) -> float:
        self.samples.append(self._loop_time())
        return self.samples[-1]

    def time(self, fn: Callable[..., T], *args: Any) -> Tuple[T, float, float]:
        """Run ``fn(*args)``; returns ``(result, raw seconds, reference seconds)``."""
        before = self.last
        started = time.perf_counter()
        result = fn(*args)
        raw = time.perf_counter() - started
        self.last = self._calibrate()
        return result, raw, raw * 2 * CALIBRATION_REFERENCE_S / (before + self.last)

    def note(self) -> str:
        return (
            f"calibration loop: median {statistics.median(self.samples) * 1e3:.2f} ms "
            f"over {len(self.samples)} samples (reference "
            f"{CALIBRATION_REFERENCE_S * 1e3:.0f} ms); times are reference seconds"
        )


class TwoCoreClock(Clock):
    """A :class:`Clock` for work that keeps both cores busy.

    It runs the calibration loop in this process and in a helper process
    at once and takes the mean of the two, so a host that takes one core
    away slows the calibration as it slows the work.  :meth:`close` stops
    the helper.
    """

    def __init__(self) -> None:
        context = multiprocessing.get_context("fork")
        self._conn, child = context.Pipe()
        self._helper = context.Process(target=_loop_helper, args=(child,), daemon=True)
        self._helper.start()
        super().__init__()

    def _loop_time(self) -> float:
        self._conn.send(True)
        mine = _fastest_loop()
        return (mine + self._conn.recv()) / 2

    def close(self) -> None:
        self._conn.send(False)
        self._helper.join()


def env_with_src() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def _fresh_interpreter(statement: str) -> None:
    subprocess.run(
        [sys.executable, "-c", statement], env=env_with_src(), cwd=ROOT, check=True
    )


def startup_time(fn: Callable[..., T], *args: Any) -> Tuple[T, float]:
    """Run ``fn(*args)``, which starts a fresh interpreter; returns its
    result and its time in reference seconds.

    Interpreter start-up drifts with the host in a way the pure-Python
    :class:`Clock` loop does not follow (it loads files and maps memory),
    so it is scaled by a fresh interpreter importing REFERENCE_IMPORT right
    before it: the time ``fn`` would take on a host that runs that import in
    REFERENCE_IMPORT_S.
    """
    started = time.perf_counter()
    _fresh_interpreter(REFERENCE_IMPORT)
    reference = time.perf_counter() - started
    started = time.perf_counter()
    result = fn(*args)
    return result, (time.perf_counter() - started) * REFERENCE_IMPORT_S / reference


def import_seconds() -> float:
    """Median time of a fresh interpreter importing the package."""
    return statistics.median(
        startup_time(_fresh_interpreter, IMPORT_STATEMENT)[1] for _ in range(IMPORT_SAMPLES)
    )


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1])."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def measure(run_pass: Callable[[], PassResult], seconds: float) -> List[PassResult]:
    """Run passes back to back until they add up to ``seconds`` reference
    seconds (at least one), so a run does the same work on a slow host."""
    passes: List[PassResult] = []
    while not passes or sum(one.wall_s for one in passes) < seconds:
        passes.append(run_pass())
    return passes


def add_end_to_end(
    report: Report,
    setup_s: float,
    wall_s: float,
    job_p50_s: float,
    job_s: Sequence[float],
    peak_rss_mb: float,
) -> None:
    """The end-to-end metrics every workload reports, in one place;
    ``job_s`` are the job latencies ``job_p50_s`` was taken from."""
    report.add("setup_s", setup_s, "s")
    report.add("wall_s", wall_s, "s")
    report.add("job_p50_ms", job_p50_s * 1e3, "ms")
    report.add("peak_rss_mb", peak_rss_mb, "MB")
    # p95 rests on a few extreme samples; on a shared host its run-to-run
    # spread is too wide to bound, so it is printed but not reported.
    report.notes.append(
        f"job_p95_ms = {percentile(job_s, 0.95) * 1e3:.6g} ms "
        f"(nearest rank over {len(job_s)} jobs)"
    )


def read_golden(name: str) -> str:
    return (GOLDEN / name).read_text(encoding="utf-8")
