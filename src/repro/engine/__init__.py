"""Batch execution engine: (trace, codec, metric) cells, a multiprocessing
worker pool, and an on-disk content-addressed result cache.

See ``docs/engine.md`` for the job model and the cache-key anatomy.  A
codec-transitions cell runs the codec's columnar kernel, or else its
``encode_stream``.
"""

from repro.engine.cache import ResultCache, cell_key, code_version
from repro.engine.cells import (
    METRIC_BINARY,
    METRIC_CODEC,
    METRIC_POWER,
    Cell,
    comparison_cells,
    compute_cell,
    make_cell,
    report_from_payload,
    report_to_payload,
    row_from_results,
)
from repro.engine.config import ExecutionConfig
from repro.engine.runner import BatchEngine, EngineStats

__all__ = [
    "BatchEngine",
    "Cell",
    "EngineStats",
    "ExecutionConfig",
    "METRIC_BINARY",
    "METRIC_CODEC",
    "METRIC_POWER",
    "ResultCache",
    "cell_key",
    "code_version",
    "comparison_cells",
    "compute_cell",
    "make_cell",
    "report_from_payload",
    "report_to_payload",
    "row_from_results",
]
