"""Observability substrate: tracing spans, metrics and run manifests.

Three layers, all zero-dependency:

* :mod:`repro.obs.trace` — nestable context-manager spans emitting JSONL
  events to pluggable sinks; near-zero-cost no-ops while disabled.
* :mod:`repro.obs.metrics` — a process-global registry of counters,
  gauges and histograms with a snapshot API (always on).
* :mod:`repro.obs.manifest` — JSON provenance records (git sha, seed,
  per-stage wall time, counter snapshot, result digest) written next to
  pipeline outputs.
* :mod:`repro.obs.profiling` — the ``repro-bus profile`` engine.
* :mod:`repro.obs.perf` — span analytics: profile trees, per-span-kind
  percentiles, collapsed-stack (flame graph) export.
* :mod:`repro.obs.history` — benchmark history records and declarative
  budget evaluation (``repro-bus bench report``).

See ``docs/observability.md`` for the event schema and counter catalog.
"""

from repro.obs.history import (
    HISTORY_SCHEMA_VERSION,
    BenchReport,
    Budget,
    append_record,
    evaluate_budgets,
    latest_per_name,
    load_budgets,
    load_history,
    make_record,
    resolve_baselines,
    run_report,
)
from repro.obs.manifest import (
    DETERMINISTIC_FIELDS,
    MANIFEST_SCHEMA_VERSION,
    aggregate_stages,
    charged_spans,
    collect_manifest,
    deterministic_view,
    digest_text,
    git_sha,
    write_manifest,
)
from repro.obs.metrics import (
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    Registry,
    counter,
    counter_deltas,
    gauge,
    histogram,
    snapshot,
)
from repro.obs.perf import (
    ProfileNode,
    build_profile_tree,
    collapse_stacks,
    parse_collapsed,
    render_tree,
    span_histograms,
    write_flame,
)
from repro.obs.profiling import (
    WORKLOAD_STAGES,
    ProfileResult,
    StageStat,
    run_profile,
)
from repro.obs.trace import (
    NULL_SPAN,
    SCHEMA_VERSION,
    JsonlSink,
    MemorySink,
    Span,
    capture,
    disable,
    enable,
    enabled,
    event,
    load_jsonl,
    span,
    validate_event,
    validate_events,
)

__all__ = [
    "BenchReport",
    "Budget",
    "Counter",
    "DETERMINISTIC_FIELDS",
    "Gauge",
    "HISTORY_SCHEMA_VERSION",
    "Histogram",
    "JsonlSink",
    "MANIFEST_SCHEMA_VERSION",
    "MemorySink",
    "NULL_SPAN",
    "ProfileNode",
    "ProfileResult",
    "REGISTRY",
    "Registry",
    "SCHEMA_VERSION",
    "Span",
    "StageStat",
    "WORKLOAD_STAGES",
    "aggregate_stages",
    "append_record",
    "build_profile_tree",
    "capture",
    "charged_spans",
    "collapse_stacks",
    "collect_manifest",
    "counter",
    "counter_deltas",
    "deterministic_view",
    "digest_text",
    "disable",
    "enable",
    "enabled",
    "evaluate_budgets",
    "event",
    "gauge",
    "git_sha",
    "histogram",
    "latest_per_name",
    "load_budgets",
    "load_history",
    "load_jsonl",
    "make_record",
    "parse_collapsed",
    "render_tree",
    "resolve_baselines",
    "run_profile",
    "run_report",
    "snapshot",
    "span",
    "span_histograms",
    "validate_event",
    "validate_events",
    "write_flame",
    "write_manifest",
]
