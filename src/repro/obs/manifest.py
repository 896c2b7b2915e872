"""Run manifests: provenance records written next to pipeline outputs.

A manifest answers "which code, which inputs, which knobs produced this
file?" for every ``repro-bus`` invocation run with ``--manifest`` and
every benchmark result published by ``benchmarks/conftest.publish``:

* **identity** — git commit, python version, platform;
* **inputs** — the command, its argv, the seed and stream length in
  force;
* **work** — wall time, per-stage wall seconds (aggregated from trace
  spans when tracing was on), and a counter snapshot;
* **result** — a SHA-256 digest of the rendered output, so two runs can
  be compared without storing the output twice.

Wall times, timestamps and process-cumulative counters legitimately
differ between reruns; :func:`deterministic_view` strips them, leaving
exactly the fields that must be identical when a seeded run is repeated
— the property ``tests/test_obs.py`` locks in.
"""

from __future__ import annotations

import hashlib
import json
import platform
import subprocess
import sys
from datetime import datetime, timezone
from functools import lru_cache
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Sequence, Tuple, Union

from repro.obs.metrics import snapshot as metrics_snapshot

MANIFEST_SCHEMA_VERSION = 1

#: Fields that must survive a rerun of the same seeded workload.
DETERMINISTIC_FIELDS = (
    "schema_version",
    "command",
    "argv",
    "git_sha",
    "seed",
    "stream_length",
    "result_digest",
)

_git_sha_cache: Optional[str] = ""


def git_sha() -> Optional[str]:
    """The repository HEAD commit, or None outside a git checkout."""
    global _git_sha_cache
    if _git_sha_cache == "":
        try:
            _git_sha_cache = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=Path(__file__).parent,
                capture_output=True,
                text=True,
                timeout=5,
                check=True,
            ).stdout.strip()
        except Exception:
            _git_sha_cache = None
    return _git_sha_cache


@lru_cache(maxsize=None)
def source_digest(module_name: str) -> str:
    """SHA-256 of a module's source file: the code-version input of every
    content-addressed store (the engine's result cache, the trace store)."""
    __import__(module_name)
    source = getattr(sys.modules[module_name], "__file__", None)
    if not source:  # pragma: no cover - frozen/namespace modules
        return f"no-source:{module_name}"
    return hashlib.sha256(Path(source).read_bytes()).hexdigest()


def digest_text(text: str) -> str:
    """Stable content digest of a rendered result block."""
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


def collect_manifest(
    command: str,
    argv: Optional[Sequence[str]] = None,
    seed: Optional[int] = None,
    stream_length: Optional[int] = None,
    wall_s: Optional[float] = None,
    stages: Optional[Dict[str, Any]] = None,
    result_text: Optional[str] = None,
    counter_prefix: str = "",
    extra: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble one manifest dict (JSON-ready)."""
    metrics = metrics_snapshot(counter_prefix)
    manifest: Dict[str, Any] = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "command": command,
        "argv": list(argv) if argv is not None else None,
        "started_at": datetime.now(timezone.utc).isoformat(),
        "git_sha": git_sha(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "seed": seed,
        "stream_length": stream_length,
        "wall_s": wall_s,
        "stages": dict(stages) if stages else {},
        "counters": metrics["counters"],
        "gauges": metrics["gauges"],
        "histograms": metrics["histograms"],
        "result_digest": (
            digest_text(result_text) if result_text is not None else None
        ),
    }
    if extra:
        manifest["extra"] = dict(extra)
    return manifest


def deterministic_view(manifest: Dict[str, Any]) -> Dict[str, Any]:
    """The rerun-stable subset of a manifest (see module docstring)."""
    return {key: manifest.get(key) for key in DETERMINISTIC_FIELDS}


def write_manifest(
    path: Union[str, Path], manifest: Dict[str, Any]
) -> Path:
    """Serialize a manifest to ``path`` (parent directories created)."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return target


#: Spans that only wrap a batch of stage spans (one engine run).
BATCH_SPANS = ("engine",)


def charged_spans(
    events: Sequence[Dict[str, Any]],
    stage_names: Optional[Sequence[str]] = None,
) -> Iterator[Tuple[str, float, bool]]:
    """Yield ``(name, wall_s, closed)`` for every charged span.

    A span is charged iff no ancestor span has a name in the aggregated
    set — so ``tracegen`` inside ``tracegen`` (a multiplexed trace
    building its instruction source) and ``count`` inside ``encode``
    count once, keeping the per-stage times additive and comparable to
    the run's total wall time.  Without ``stage_names`` every span name
    is a stage except the :data:`BATCH_SPANS` containers, so the cells'
    ``encode``/``count``/``simulate`` spans are charged, not the engine
    batch that wraps them.

    Spans that *began but never ended* — a workload aborted mid-stage by
    an exception or a kill, or a truncated JSONL trace — are still
    charged: their wall time is estimated as the gap between their
    ``span_begin`` timestamp and the last timestamp seen in the event
    stream, and they are yielded with ``closed=False``.
    """
    names: Dict[int, str] = {}
    parents: Dict[int, Optional[int]] = {}
    begin_ts: Dict[int, float] = {}
    ended: set = set()
    last_ts: Optional[float] = None
    for entry in events:
        ts = entry.get("ts")
        if isinstance(ts, (int, float)):
            last_ts = ts if last_ts is None else max(last_ts, ts)
        if entry.get("type") == "span_begin":
            names[entry["id"]] = entry["name"]
            parents[entry["id"]] = entry.get("parent")
            if isinstance(ts, (int, float)):
                begin_ts[entry["id"]] = float(ts)
        elif entry.get("type") == "span_end":
            ended.add(entry.get("id"))
    stage_set = (
        set(stage_names)
        if stage_names is not None
        else set(names.values()) - set(BATCH_SPANS)
    )

    def outermost(parent: Optional[int]) -> bool:
        ancestor = parent
        while ancestor is not None:
            if names.get(ancestor) in stage_set:
                return False
            ancestor = parents.get(ancestor)
        return True

    for entry in events:
        if entry.get("type") != "span_end" or entry["name"] not in stage_set:
            continue
        if not outermost(entry.get("parent")):
            continue
        yield entry["name"], float(entry.get("dur_s", 0.0)), True
    # Unclosed spans, in begin order.
    for span_id, name in names.items():
        if span_id in ended or name not in stage_set:
            continue
        if not outermost(parents.get(span_id)):
            continue
        started = begin_ts.get(span_id)
        wall_s = (
            max(0.0, last_ts - started)
            if started is not None and last_ts is not None
            else 0.0
        )
        yield name, wall_s, False


def aggregate_stages(
    events: Sequence[Dict[str, Any]],
    stage_names: Optional[Sequence[str]] = None,
) -> Dict[str, Dict[str, float]]:
    """Per-stage ``{"wall_s", "spans"}``, charging outermost spans only.

    See :func:`charged_spans` for the charging rule.  Stages with spans
    that never closed (an exception aborted the workload mid-stage, or
    the trace was truncated) additionally carry an ``"unclosed"`` count;
    their estimated wall time is included in ``"wall_s"`` so a crashed
    run still accounts for where its time went.
    """
    stages: Dict[str, Dict[str, float]] = {}
    for name, wall_s, closed in charged_spans(events, stage_names):
        stage = stages.setdefault(name, {"wall_s": 0.0, "spans": 0})
        stage["wall_s"] += wall_s
        stage["spans"] += 1
        if not closed:
            stage["unclosed"] = stage.get("unclosed", 0) + 1
    return stages


