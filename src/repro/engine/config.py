"""Unified execution configuration: one object for every execution knob.

Every comparison row, paper table and power run is computed as engine
cells; :class:`ExecutionConfig` is how a caller says how those cells run.
It names the three execution decisions a caller can make (worker count,
cache directory, kernel routing) plus the two cache policies
(refresh, max-bytes eviction), validates them once, and builds the
:class:`~repro.engine.runner.BatchEngine` and the trace store they
imply.  A caller that passes no config gets a plain
``ExecutionConfig()``: one in-process worker, no cache, no fork.  The engine is memoized per config object, so
threading **one** config through a whole run — every table, every row —
shares one engine, one cache handle and one cumulative
:class:`~repro.engine.runner.EngineStats`, without exposing the engine
type to callers.

The evaluation service (:mod:`repro.service`) constructs its engine from
the same object, so ``repro-bus serve`` and ``repro-bus tables`` are
configured by the same flags and produce byte-identical payloads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.engine.cache import ResultCache
from repro.engine.runner import BatchEngine
from repro.tracegen.corpus import TraceCorpus


@dataclass
class ExecutionConfig:
    """How cell batches execute: workers, cache, kernels.

    Parameters
    ----------
    jobs:
        Worker process count; ``1`` computes in-process (no fork).
    cache_dir:
        Result cache directory, or None to disable caching.  Generated
        paper streams are kept under its ``traces/`` subdirectory.
    kernels:
        Route codec-transitions cells through the columnar numpy kernels
        where one exists; ``False`` forces the per-cycle reference path,
        ``encode_stream`` (output is bit-identical either way).
    refresh:
        Recompute every cell and regenerate every stored trace,
        overwriting their cache entries.
    cache_max_bytes:
        Cache size budget; when set, :meth:`ResultCache.sweep` evicts
        least-recently-used entries past it.  None means unbounded.
    """

    jobs: int = 1
    cache_dir: Optional[Union[str, Path]] = None
    kernels: bool = True
    refresh: bool = False
    cache_max_bytes: Optional[int] = None
    _engine: Optional[BatchEngine] = field(
        default=None, init=False, repr=False, compare=False
    )
    _traces: Optional[TraceCorpus] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError(f"jobs must be positive, got {self.jobs}")
        if self.cache_max_bytes is not None and self.cache_max_bytes < 1:
            raise ValueError(
                f"cache_max_bytes must be positive, got {self.cache_max_bytes}"
            )

    def engine(self) -> BatchEngine:
        """The (memoized) engine this configuration describes.

        Every call on the same config object returns the same engine, so
        stats accumulate and the cache handle is shared across a run.
        """
        if self._engine is None:
            cache: Optional[ResultCache] = None
            if self.cache_dir is not None:
                cache = ResultCache(
                    self.cache_dir, max_bytes=self.cache_max_bytes
                )
            self._engine = BatchEngine(
                jobs=self.jobs,
                cache_dir=cache,
                refresh=self.refresh,
                use_kernels=self.kernels,
            )
        return self._engine

    def traces(self) -> Optional[TraceCorpus]:
        """The (memoized) trace store under ``<cache_dir>/traces``, where
        the table builders keep generated paper streams; None without a
        ``cache_dir``.  ``cache_max_bytes`` does not cover it."""
        if self._traces is None and self.cache_dir is not None:
            self._traces = TraceCorpus(Path(self.cache_dir) / "traces")
        return self._traces

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready view (manifests, the service's ``/v1/healthz``)."""
        return {
            "jobs": self.jobs,
            "cache_dir": (
                str(self.cache_dir) if self.cache_dir is not None else None
            ),
            "kernels": self.kernels,
            "refresh": self.refresh,
            "cache_max_bytes": self.cache_max_bytes,
        }
