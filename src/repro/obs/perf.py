"""Span analytics: profile trees, percentiles and flame-graph export.

This is the *analysis* half of the tracing substrate: :mod:`repro.obs.trace`
records span events, this module turns a captured (or loaded) event stream
into answers:

* :func:`build_profile_tree` — aggregate events into a tree keyed by span
  *path* (the stack of span names from the root), with per-node call
  counts, cumulative wall time and **self** time (cumulative minus the
  time spent in direct child spans).
* :func:`span_histograms` — one power-of-two :class:`~repro.obs.metrics.
  Histogram` per span kind over the charged span durations (observed in
  microseconds, so sub-second spans spread across buckets), from which
  p50/p95/p99 are estimated via :meth:`Histogram.percentile`.
* :func:`collapse_stacks` / :func:`parse_collapsed` — the collapsed-stack
  format consumed by Brendan Gregg's ``flamegraph.pl`` and by speedscope:
  one ``a;b;c <value>`` line per unique stack, value = self time in
  integer microseconds.  ``repro-bus profile --flame out.txt`` writes it.

Spans that began but never ended (a workload aborted by an exception, a
killed process, a truncated trace file) are charged with the gap between
their ``span_begin`` timestamp and the last timestamp in the stream —
the same estimate :func:`repro.obs.manifest.charged_spans` uses — so a
crashed run still produces an honest profile.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.manifest import charged_spans
from repro.obs.metrics import Histogram, _label_key

#: Microseconds per second — span durations are floats of seconds, the
#: histogram buckets and collapsed-stack values are integer microseconds.
US_PER_S = 1_000_000


@dataclass
class ProfileNode:
    """One node of the profile tree: a unique span-name path."""

    name: str
    count: int = 0
    cum_s: float = 0.0
    self_s: float = 0.0
    errors: int = 0
    unclosed: int = 0
    children: Dict[str, "ProfileNode"] = field(default_factory=dict)

    def child(self, name: str) -> "ProfileNode":
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = ProfileNode(name)
        return node

    def walk(
        self, path: Tuple[str, ...] = ()
    ) -> Iterable[Tuple[Tuple[str, ...], "ProfileNode"]]:
        """Depth-first ``(path, node)`` pairs, children in name order."""
        here = path + (self.name,)
        yield here, self
        for name in sorted(self.children):
            yield from self.children[name].walk(here)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "count": self.count,
            "cum_s": self.cum_s,
            "self_s": self.self_s,
            "errors": self.errors,
            "unclosed": self.unclosed,
            "children": [
                self.children[name].to_dict()
                for name in sorted(self.children)
            ],
        }


ROOT_NAME = "(root)"


def _span_durations(
    events: Sequence[Dict[str, Any]],
) -> Tuple[
    Dict[int, str],
    Dict[int, Optional[int]],
    Dict[int, float],
    Dict[int, Dict[str, Any]],
]:
    """Names, parents and estimated durations of every span in ``events``.

    Returns ``(names, parents, durations, flags)`` where ``flags[id]``
    carries ``{"error": bool, "unclosed": bool}``.  Unclosed spans get
    the begin-to-last-timestamp estimate.
    """
    names: Dict[int, str] = {}
    parents: Dict[int, Optional[int]] = {}
    begin_ts: Dict[int, float] = {}
    durations: Dict[int, float] = {}
    flags: Dict[int, Dict[str, Any]] = {}
    last_ts: Optional[float] = None
    for entry in events:
        ts = entry.get("ts")
        if isinstance(ts, (int, float)):
            last_ts = ts if last_ts is None else max(last_ts, ts)
        kind = entry.get("type")
        if kind == "span_begin":
            span_id = entry["id"]
            names[span_id] = entry["name"]
            parents[span_id] = entry.get("parent")
            if isinstance(ts, (int, float)):
                begin_ts[span_id] = float(ts)
        elif kind == "span_end":
            span_id = entry.get("id")
            if not isinstance(span_id, int):
                continue
            names.setdefault(span_id, entry.get("name", "?"))
            parents.setdefault(span_id, entry.get("parent"))
            durations[span_id] = float(entry.get("dur_s", 0.0))
            flags[span_id] = {
                "error": entry.get("status") == "error",
                "unclosed": False,
            }
    for span_id in names:
        if span_id in durations:
            continue
        started = begin_ts.get(span_id)
        durations[span_id] = (
            max(0.0, last_ts - started)
            if started is not None and last_ts is not None
            else 0.0
        )
        flags[span_id] = {"error": False, "unclosed": True}
    return names, parents, durations, flags


def _span_path(
    span_id: int,
    names: Dict[int, str],
    parents: Dict[int, Optional[int]],
) -> Tuple[str, ...]:
    """The root-to-span chain of names (orphaned parents are skipped)."""
    chain: List[str] = []
    current: Optional[int] = span_id
    seen: set = set()
    while current is not None and current not in seen:
        seen.add(current)
        name = names.get(current)
        if name is not None:
            chain.append(name)
        current = parents.get(current)
    return tuple(reversed(chain))


def build_profile_tree(events: Sequence[Dict[str, Any]]) -> ProfileNode:
    """Aggregate a span event stream into a self/cumulative-time tree.

    Each unique span-name *path* becomes one node; a span contributes its
    wall time to its path's cumulative time, and the time not covered by
    its direct child spans to the path's self time.  Point events are
    ignored (they carry no duration).
    """
    names, parents, durations, flags = _span_durations(events)
    child_total: Dict[int, float] = {}
    for span_id, parent in parents.items():
        if parent is not None and parent in names:
            child_total[parent] = child_total.get(parent, 0.0) + durations.get(
                span_id, 0.0
            )
    root = ProfileNode(ROOT_NAME)
    for span_id, name in names.items():
        path = _span_path(span_id, names, parents)
        node = root
        for step in path:
            node = node.child(step)
        duration = durations.get(span_id, 0.0)
        node.count += 1
        node.cum_s += duration
        node.self_s += max(0.0, duration - child_total.get(span_id, 0.0))
        if flags.get(span_id, {}).get("error"):
            node.errors += 1
        if flags.get(span_id, {}).get("unclosed"):
            node.unclosed += 1
    # The synthetic root's cumulative time is the sum of its top-level
    # children (its self time stays zero: no span covers it).
    root.cum_s = sum(child.cum_s for child in root.children.values())
    root.count = sum(child.count for child in root.children.values())
    return root


def render_tree(
    root: ProfileNode,
    min_share: float = 0.0,
) -> str:
    """ASCII rendering of a profile tree, children by descending time."""
    total = root.cum_s or 1.0
    lines = [
        f"{'span':<40} {'cum (s)':>9} {'self (s)':>9} {'share':>6} {'calls':>7}"
    ]

    def emit(node: ProfileNode, depth: int) -> None:
        share = node.cum_s / total
        if depth and share < min_share:
            return
        label = ("  " * depth + node.name)[:40]
        suffix = ""
        if node.errors:
            suffix += f"  !{node.errors} error(s)"
        if node.unclosed:
            suffix += f"  ~{node.unclosed} unclosed"
        lines.append(
            f"{label:<40} {node.cum_s:>9.3f} {node.self_s:>9.3f} "
            f"{share:>6.1%} {node.count:>7d}{suffix}"
        )
        for child in sorted(
            node.children.values(), key=lambda n: -n.cum_s
        ):
            emit(child, depth + 1)

    emit(root, 0)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Per-span-kind percentiles
# ---------------------------------------------------------------------------


def span_histograms(
    events: Sequence[Dict[str, Any]],
    stage_names: Optional[Sequence[str]] = None,
) -> Dict[str, Histogram]:
    """One duration histogram per span kind over the *charged* spans.

    Durations are observed in microseconds so that sub-second spans
    spread across the power-of-two buckets instead of collapsing into
    bucket zero; convert percentiles back with ``/ 1e6``.  The charging
    rule (outermost-in-stage-set, unclosed spans estimated) matches
    :func:`repro.obs.manifest.aggregate_stages`, so the histogram counts
    agree with the stage table's span counts.
    """
    histograms: Dict[str, Histogram] = {}
    for name, wall_s, _closed in charged_spans(events, stage_names):
        histogram = histograms.get(name)
        if histogram is None:
            histogram = histograms[name] = Histogram(
                f"span.{name}.dur_us", _label_key({})
            )
        histogram.observe(wall_s * US_PER_S)
    return histograms


# ---------------------------------------------------------------------------
# Collapsed stacks (flamegraph.pl / speedscope)
# ---------------------------------------------------------------------------

#: Stack frames are joined with ";" in collapsed output; a frame name
#: containing the separator would corrupt the format, so it is replaced.
_FRAME_SEPARATOR = ";"


def collapse_stacks(events: Sequence[Dict[str, Any]]) -> List[str]:
    """Collapsed-stack lines (``a;b;c <self-time-us>``) from span events.

    One line per unique span path carrying nonzero self time, sorted by
    path for determinism.  Values are integer microseconds of *self*
    time, so the flame graph's widths add up exactly like the profile
    tree's self column.  Feed the result to ``flamegraph.pl`` or paste
    it into speedscope.
    """
    root = build_profile_tree(events)
    lines: List[str] = []
    for path, node in root.walk():
        frames = [
            frame.replace(_FRAME_SEPARATOR, ",") for frame in path[1:]
        ]
        if not frames:
            continue
        value = int(round(node.self_s * US_PER_S))
        if value <= 0:
            continue
        lines.append(f"{_FRAME_SEPARATOR.join(frames)} {value}")
    return sorted(lines)


def parse_collapsed(text: str) -> Dict[Tuple[str, ...], int]:
    """Parse collapsed-stack text back into ``{(frame, ...): value_us}``.

    The round-trip partner of :func:`collapse_stacks` — used by the
    tests to prove the export is well-formed, and handy for asserting
    properties of a flame file without an external tool.
    """
    stacks: Dict[Tuple[str, ...], int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        stack_text, _, value_text = line.rpartition(" ")
        if not stack_text:
            raise ValueError(f"line {lineno}: no stack before the value")
        try:
            value = int(value_text)
        except ValueError:
            raise ValueError(
                f"line {lineno}: value {value_text!r} is not an integer"
            ) from None
        if value < 0:
            raise ValueError(f"line {lineno}: negative value {value}")
        frames = tuple(stack_text.split(_FRAME_SEPARATOR))
        if any(not frame for frame in frames):
            raise ValueError(f"line {lineno}: empty frame in {stack_text!r}")
        stacks[frames] = stacks.get(frames, 0) + value
    return stacks


def write_flame(path: Any, events: Sequence[Dict[str, Any]]) -> int:
    """Write collapsed stacks for ``events`` to ``path``; returns lines."""
    lines = collapse_stacks(events)
    with open(path, "w", encoding="utf-8") as handle:
        for line in lines:
            handle.write(line + "\n")
    return len(lines)
