"""The batch engine: cache probe, worker fan-out, deterministic merge.

:meth:`BatchEngine.run` takes a list of :class:`~repro.engine.cells.Cell`
jobs and returns their payloads *in submission order* — results are merged
by cell index, never by completion order, so the output is deterministic
under any worker scheduling.  Per cell the engine:

1. probes the result cache (parent-side; hits never reach a worker);
2. fans the misses out over a ``multiprocessing`` pool (``jobs > 1``) or
   computes them in-process (``jobs == 1``), rebuilding each codec inside
   the worker from ``(name, width, params)`` — codecs that cannot be
   rebuilt that way (the trained beach code) run in the parent and are
   not cached, since their params do not determine their behaviour;
3. replays each pool worker's captured trace spans into the parent's
   sinks (with fresh ids — see :func:`repro.obs.trace.replay_events`;
   in-process cells emit their spans live), writes the new payloads back
   to the cache, and updates the ``engine.cache.hits`` /
   ``engine.cache.misses`` / ``engine.cells`` / ``core.encoded_words`` /
   ``metrics.transitions`` counters that run manifests snapshot.

A warm rerun of an unchanged workload therefore performs **zero** codec
encode work: every cell is served in step 1, no encode span is emitted
and ``core.encoded_words`` stays untouched — the property the CI smoke
run asserts.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.base import Codec
from repro.engine.cache import ResultCache, cell_key, code_version
from repro.engine.cells import (
    METRIC_BINARY,
    METRIC_POWER,
    Cell,
    cell_path,
    compute_cell,
)
from repro.obs import metrics as obs_metrics
from repro.obs.trace import (
    capture as obs_capture,
    detach_sinks,
    enabled as obs_enabled,
    replay_events,
    span as obs_span,
)


@dataclass
class EngineStats:
    """Cumulative counters over one engine's lifetime."""

    jobs: int = 1
    cells: int = 0
    hits: int = 0
    misses: int = 0
    uncacheable: int = 0
    worker_wall_s: float = 0.0
    queue_wall_s: float = 0.0

    def summary(self) -> str:
        return (
            f"{self.cells} cells: {self.hits} cached, "
            f"{self.misses} computed, {self.uncacheable} uncacheable "
            f"({self.worker_wall_s:.2f}s worker wall, "
            f"{self.queue_wall_s:.2f}s queued, jobs={self.jobs})"
        )


def _worker_init() -> None:
    # The forked child inherits the parent's trace sinks (shared file
    # descriptors) — drop them without closing; spans are captured per
    # task and replayed by the parent instead.
    detach_sinks()


#: One schedulable worker task: ``(index, cell, traced, use_kernels,
#: submitted_at)``.  ``submitted_at`` is the parent's
#: ``time.perf_counter()`` at enqueue time; on Linux the monotonic clock
#: is system-wide, so the forked worker can subtract it to measure how
#: long the task sat in the pool queue before a worker picked it up.
_CellTask = Tuple[int, Cell, bool, bool, float]

#: Worker outcome: ``(index, payload, meta, events)``.  ``meta`` carries
#: telemetry only (``wall_s``, ``queue_s``, ``path``) — it never touches
#: the payload, which must stay byte-identical across execution paths.
_CellOutcome = Tuple[int, Dict[str, Any], Dict[str, Any], List[Dict[str, Any]]]


def _run_cell(task: _CellTask) -> _CellOutcome:
    """Worker entry point: compute one cell, capturing its trace spans."""
    index, cell, traced, use_kernels, submitted_at = task
    started = time.perf_counter()
    events: List[Dict[str, Any]]
    if traced:
        with obs_capture() as sink:
            payload = compute_cell(cell, use_kernels=use_kernels)
        events = sink.events
    else:
        payload = compute_cell(cell, use_kernels=use_kernels)
        events = []
    meta = {
        "wall_s": time.perf_counter() - started,
        "queue_s": max(0.0, started - submitted_at),
        "path": cell_path(cell, use_kernels),
    }
    return index, payload, meta, events


class BatchEngine:
    """Executes cell batches with memoization and optional parallelism.

    Parameters
    ----------
    jobs:
        Worker process count; ``1`` computes in-process (no fork).
    cache_dir:
        Result cache directory, or None to disable caching.
    refresh:
        Recompute every cell and overwrite its cache entry (the
        ``--refresh`` CLI flag).
    use_kernels:
        Route codec-transitions cells through the columnar numpy kernels
        (:mod:`repro.core.kernels`); codecs without a kernel fall back to
        the per-cycle reference path, ``encode_stream``.  ``False`` forces
        the reference path everywhere (the ``--no-kernels`` CLI flag).
    """

    def __init__(
        self,
        jobs: int = 1,
        cache_dir: Optional[Union[str, "object"]] = None,
        refresh: bool = False,
        use_kernels: bool = True,
    ) -> None:
        self.jobs = max(1, int(jobs))
        self.cache = (
            cache_dir
            if isinstance(cache_dir, ResultCache)
            else ResultCache(cache_dir)
            if cache_dir is not None
            else None
        )
        self.refresh = refresh
        self.use_kernels = use_kernels
        self.stats = EngineStats(jobs=self.jobs)
        self._rebuild_probe: Dict[Tuple[Any, ...], bool] = {}

    # -- codec rebuildability ------------------------------------------

    def _rebuildable(self, cell: Cell) -> bool:
        """Can a worker reconstruct this cell's codec from its fields?"""
        if cell.metric == METRIC_BINARY:
            return True
        spec = (cell.metric, cell.codec_name, cell.width, cell.params)
        cached = self._rebuild_probe.get(spec)
        if cached is None:
            try:
                if cell.metric == METRIC_POWER:
                    from repro.rtl.codecs import ENCODER_BUILDERS

                    cached = cell.codec_name in ENCODER_BUILDERS
                else:
                    from repro.core.registry import make_codec

                    make_codec(
                        cell.codec_name, cell.width, **dict(cell.params)
                    )
                    cached = True
            except Exception:
                cached = False
            self._rebuild_probe[spec] = cached
        return cached

    # -- execution ------------------------------------------------------

    def run(
        self,
        cells: Sequence[Cell],
        codecs: Optional[Dict[str, Codec]] = None,
    ) -> List[Dict[str, Any]]:
        """Execute a batch; returns payloads in submission order.

        ``codecs`` maps codec name → live :class:`Codec` and is required
        only for codecs a worker cannot rebuild by name (trained codes).
        """
        codecs = codecs or {}
        results: List[Optional[Dict[str, Any]]] = [None] * len(cells)
        pool_tasks: List[_CellTask] = []
        inline: List[Tuple[int, Cell, bool]] = []  # (index, cell, cacheable)
        keys: Dict[int, str] = {}
        # Pool workers capture their spans for replay here; in-process
        # cells emit theirs live (capturing those too would count each
        # span twice, since a capture tees into the live sinks).
        traced = obs_enabled() and self.jobs > 1
        batch_hits = 0
        batch_started = time.perf_counter()

        with obs_span("engine", cells=len(cells), jobs=self.jobs):
            for index, cell in enumerate(cells):
                self.stats.cells += 1
                obs_metrics.counter("engine.cells", metric=cell.metric).inc()
                rebuildable = self._rebuildable(cell)
                cacheable = self.cache is not None and rebuildable
                if cacheable:
                    version = code_version(
                        cell.metric,
                        codecs.get(cell.codec_name),
                        codec_name=cell.codec_name,
                    )
                    keys[index] = cell_key(cell, version)
                    if not self.refresh:
                        hit = self.cache.get(keys[index])
                        if hit is not None:
                            results[index] = hit
                            self.stats.hits += 1
                            batch_hits += 1
                            obs_metrics.counter(
                                "engine.cache.hits", metric=cell.metric
                            ).inc()
                            continue
                    obs_metrics.counter(
                        "engine.cache.misses", metric=cell.metric
                    ).inc()
                elif self.cache is not None:
                    self.stats.uncacheable += 1
                    obs_metrics.counter(
                        "engine.cache.uncacheable", metric=cell.metric
                    ).inc()
                self.stats.misses += 1
                if rebuildable:
                    pool_tasks.append(
                        (
                            index,
                            cell,
                            traced,
                            self.use_kernels,
                            time.perf_counter(),
                        )
                    )
                else:
                    inline.append((index, cell, False))

            outcomes: List[_CellOutcome] = []
            if pool_tasks and self.jobs > 1:
                context = multiprocessing.get_context()
                with context.Pool(
                    processes=min(self.jobs, len(pool_tasks)),
                    initializer=_worker_init,
                ) as pool:
                    outcomes.extend(
                        pool.imap_unordered(_run_cell, pool_tasks)
                    )
            else:
                outcomes.extend(_run_cell(task) for task in pool_tasks)

            for index, cell, _ in inline:
                codec = codecs.get(cell.codec_name)
                if codec is None:
                    raise KeyError(
                        f"cell {cell.label()} needs a live codec "
                        f"{cell.codec_name!r} (not rebuildable by name)"
                    )
                started = time.perf_counter()
                payload = compute_cell(
                    cell, codec=codec, use_kernels=self.use_kernels
                )
                meta = {
                    "wall_s": time.perf_counter() - started,
                    "queue_s": 0.0,
                    "path": cell_path(cell, self.use_kernels, codec=codec),
                }
                outcomes.append((index, payload, meta, []))

            for index, payload, meta, events in outcomes:
                cell = cells[index]
                results[index] = payload
                wall_s = float(meta["wall_s"])
                queue_s = float(meta["queue_s"])
                path = str(meta["path"])
                self.stats.worker_wall_s += wall_s
                self.stats.queue_wall_s += queue_s
                obs_metrics.histogram("engine.cell_wall_s").observe(wall_s)
                obs_metrics.counter("engine.worker_wall_ms").inc(
                    int(wall_s * 1000)
                )
                # Queue-wait vs compute split and per-path breakdown, in
                # microseconds so sub-second cells spread across the
                # power-of-two buckets.
                obs_metrics.histogram(
                    "engine.cell_compute_us", path=path
                ).observe(wall_s * 1e6)
                obs_metrics.histogram("engine.cell_queue_us").observe(
                    queue_s * 1e6
                )
                obs_metrics.counter("engine.path_wall_ms", path=path).inc(
                    int(wall_s * 1000)
                )
                replay_events(events)
                report = payload.get("report")
                if isinstance(report, dict):
                    obs_metrics.counter(
                        "metrics.transitions", codec=cell.codec_name
                    ).inc(report["total"])
                encoded = payload.get("encoded_words")
                if isinstance(encoded, int):
                    obs_metrics.counter(
                        "core.encoded_words", codec=cell.codec_name
                    ).inc(encoded)
                simulated = payload.get("simulated_cycles")
                if isinstance(simulated, int):
                    obs_metrics.counter(
                        "rtl.simulated_cycles", codec=cell.codec_name
                    ).inc(simulated)
                if self.cache is not None and index in keys:
                    self.cache.put(keys[index], payload)

            # Batch-level utilization gauges (last batch wins — gauges
            # are point-in-time by contract).
            batch_wall_s = time.perf_counter() - batch_started
            computed_wall_s = sum(
                float(meta["wall_s"]) for _, _, meta, _ in outcomes
            )
            capacity_s = batch_wall_s * self.jobs
            obs_metrics.gauge("engine.worker_utilization").set(
                computed_wall_s / capacity_s if capacity_s > 0 else 0.0
            )
            obs_metrics.gauge("engine.cache.hit_rate").set(
                batch_hits / len(cells) if cells else 0.0
            )

        missing = [i for i, payload in enumerate(results) if payload is None]
        if missing:  # pragma: no cover - defensive
            raise RuntimeError(f"engine lost cells at indices {missing}")
        return results  # type: ignore[return-value]
