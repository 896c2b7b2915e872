"""The service's trace corpus: :mod:`repro.tracegen.corpus`, re-exported.

The store lives in ``repro.tracegen`` so the paper-table builders can
keep generated streams in it without importing the service.
"""

from repro.tracegen.corpus import TraceCorpus, trace_digest

__all__ = ["TraceCorpus", "trace_digest"]
