"""Per-layer tracing from outside the program.

:class:`Tracer` wraps the public entry points of each ``repro`` module
(the layer boundaries listed in :data:`LAYERS`) and records, per layer,
its *self* time: the time spent inside the layer's calls minus the part
covered by wrapped calls into other layers (or nested calls into the
same layer).  The self times of all layers plus the unattributed
remainder add up to the traced pass's wall time.

Wrapping rebinds every reference to the wrapped function in every loaded
``repro`` module (``from x import f`` copies the binding), and replaces
methods on their class.  :meth:`Tracer.uninstall` restores the originals,
so untraced passes run the program exactly as shipped.  Nothing under
``src/`` changes.

The tracer records calls on the thread that installed it only: the batch
workloads run their layers on that thread.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, DefaultDict, Dict, List, Optional, Tuple

Counts = DefaultDict[str, float]
#: A work counter ``(counts, call args, result)``.  It runs at the outermost
#: call of its layer only, so a nested call into the layer is not counted twice.
Counter = Callable[[Counts, Tuple[Any, ...], Any], None]


def _addresses(counts: Counts, args: Tuple[Any, ...], result: Any) -> None:
    traces = result if isinstance(result, list) else [result]
    counts["tracegen.addresses"] += sum(len(trace) for trace in traces)


def _kernel_words(counts: Counts, args: Tuple[Any, ...], result: Any) -> None:
    counts["core.encoded_words"] += result.cycles
    counts["core.kernel_words"] += result.cycles


def _words(counts: Counts, args: Tuple[Any, ...], result: Any) -> None:
    counts["core.encoded_words"] += len(result)


def _count_call(counts: Counts, args: Tuple[Any, ...], result: Any) -> None:
    counts["metrics.count_calls"] += 1


def _cells(counts: Counts, args: Tuple[Any, ...], result: Any) -> None:
    counts["engine.cells"] += len(args[1])


def _cache_hit(counts: Counts, args: Tuple[Any, ...], result: Any) -> None:
    counts["engine.cache_hits"] += result is not None


def _cycles(counts: Counts, args: Tuple[Any, ...], result: Any) -> None:
    counts["rtl.simulated_cycles"] += result.cycles


def _circuit_cycles(counts: Counts, args: Tuple[Any, ...], result: Any) -> None:
    counts["rtl.simulated_cycles"] += result[0].cycles


#: Layer -> entry points ``(module, "function" or "Class.method", counter)``.
#: ``metrics.count`` includes ``KernelResult.report``: it is the fold the
#: program's own spans call ``count``, though it lives in
#: ``repro.core.kernels``.  ``metrics.compare`` is the inline comparison
#: row; its self time is the work around the wrapped encode and count
#: calls (mostly building the binary-reference words).
LAYERS: Dict[str, Tuple[Tuple[str, str, Optional[Counter]], ...]] = {
    "tracegen": (
        ("repro.tracegen.profiles", "instruction_trace", _addresses),
        ("repro.tracegen.profiles", "data_trace", _addresses),
        ("repro.tracegen.profiles", "multiplexed_trace", _addresses),
        ("repro.tracegen.profiles", "all_traces", _addresses),
    ),
    "core.encode": (
        ("repro.core.kernels", "encode_stream_kernel", _kernel_words),
        ("repro.core.base", "encode_stream", _words),
        ("repro.core.base", "BusEncoder.encode_stream", _words),
    ),
    "metrics.count": (
        ("repro.metrics.transitions", "count_transitions", _count_call),
        ("repro.metrics.fast", "count_transitions_fast", _count_call),
        ("repro.metrics.fast", "binary_reference_report", _count_call),
        ("repro.metrics.stats", "in_sequence_fraction", _count_call),
        ("repro.metrics.fast", "in_sequence_fraction_fast", _count_call),
        ("repro.core.kernels", "KernelResult.report", _count_call),
    ),
    "metrics.compare": (("repro.metrics.report", "compare_codecs", None),),
    "engine.run": (("repro.engine.runner", "BatchEngine.run", _cells),),
    "engine.cache": (
        ("repro.engine.cache", "ResultCache.get", _cache_hit),
        ("repro.engine.cache", "ResultCache.put", None),
    ),
    "rtl.simulate": (
        ("repro.rtl.codecs", "EncoderCircuit.run", _circuit_cycles),
        ("repro.rtl.codecs", "DecoderCircuit.run", _circuit_cycles),
        ("repro.rtl.netlist", "Netlist.simulate", _cycles),
    ),
    "rtl.estimate": (("repro.rtl.power", "estimate_from_simulation", None),),
    "experiments.render": (
        ("repro.metrics.report", "PaperTable.render", None),
        ("repro.experiments.tables", "compare_with_paper", None),
        ("repro.experiments.power_tables", "render_table8", None),
        ("repro.experiments.power_tables", "render_table9", None),
    ),
}

#: Modules imported before wrapping, so every re-export is rebound.
_PRELOAD = (
    "repro.experiments",
    "repro.engine",
    "repro.core.kernels",
    "repro.metrics.fast",
    "repro.rtl.codecs",
    "repro.rtl.power",
)


class Tracer:
    """Self time and work counts per layer, while installed."""

    def __init__(self) -> None:
        self.self_s: Counts = defaultdict(float)
        self.counts: Counts = defaultdict(float)
        self._stack: List[List[Any]] = []  # [layer, child seconds]
        self._restore: List[Tuple[Any, str, Any]] = []
        self._thread: Optional[threading.Thread] = None

    def _wrap(
        self, layer: str, fn: Callable[..., Any], count: Optional[Counter]
    ) -> Callable[..., Any]:
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if threading.current_thread() is not self._thread:
                return fn(*args, **kwargs)
            outermost = all(frame[0] != layer for frame in stack)
            frame = [layer, 0.0]
            stack.append(frame)
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                stack.pop()
                self.self_s[layer] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if count is not None and outermost:
                count(self.counts, args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every entry point in :data:`LAYERS`."""
        for name in _PRELOAD:
            importlib.import_module(name)
        self._thread = threading.current_thread()
        for layer, targets in LAYERS.items():
            for module_name, qualname, count in targets:
                module = importlib.import_module(module_name)
                if "." in qualname:
                    class_name, method = qualname.split(".")
                    owner = getattr(module, class_name)
                    original = owner.__dict__[method]
                    self._restore.append((owner, method, original))
                    setattr(owner, method, self._wrap(layer, original, count))
                    continue
                original = getattr(module, qualname)
                wrapper = self._wrap(layer, original, count)
                for loaded in list(sys.modules.values()):
                    if not getattr(loaded, "__name__", "").startswith("repro"):
                        continue
                    for attr, value in list(vars(loaded).items()):
                        if value is original:
                            self._restore.append((loaded, attr, original))
                            setattr(loaded, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        self._thread = None

    def layer_metrics(self, passes: float, wall_s: float) -> Dict[str, float]:
        """Per-pass layer metrics; ``wall_s`` is the traced passes' total."""
        self_s = {layer: self.self_s[layer] / passes for layer in LAYERS}
        counts = {name: value / passes for name, value in self.counts.items()}
        words = counts.get("core.encoded_words", 0.0)
        cells = counts.get("engine.cells", 0.0)
        hits = counts.get("engine.cache_hits", 0.0)
        cycles = counts.get("rtl.simulated_cycles", 0.0)
        return {
            "tracegen.busy_s": self_s["tracegen"],
            "tracegen.addresses": counts.get("tracegen.addresses", 0.0),
            "core.encode_busy_s": self_s["core.encode"],
            "core.encoded_words": words,
            "core.kernel_share": (
                counts.get("core.kernel_words", 0.0) / words if words else 0.0
            ),
            "metrics.count_busy_s": self_s["metrics.count"],
            "metrics.count_calls": counts.get("metrics.count_calls", 0.0),
            "metrics.compare_self_s": self_s["metrics.compare"],
            "engine.run_self_s": self_s["engine.run"],
            "engine.cells": cells,
            "engine.cache_hits": hits,
            "engine.cache_misses": cells - hits,
            "engine.hit_ratio": hits / cells if cells else 0.0,
            "engine.cache_io_s": self_s["engine.cache"],
            "rtl.simulate_busy_s": self_s["rtl.simulate"],
            "rtl.simulated_cycles": cycles,
            "rtl.us_per_cycle": (
                self_s["rtl.simulate"] * 1e6 / cycles if cycles else 0.0
            ),
            "rtl.estimate_busy_s": self_s["rtl.estimate"],
            "experiments.render_busy_s": self_s["experiments.render"],
            "other.busy_s": wall_s / passes - sum(self_s.values()),
        }
