"""The columnar kernels vs the per-cycle reference encoder on a 1M trace.

The cold encode path is the engine's bottleneck: one million addresses
through the per-cycle reference encoder take seconds per codec, while the
columnar kernels (:mod:`repro.core.kernels`) run the same recurrences as
whole-array numpy scans.  This benchmark locks three properties on a
seeded million-address mixed stream:

* the kernel's packed stream is **bit-identical** to the reference
  encoder's, and its transition report equals the reference counter's;
* the kernel path is at least ``MIN_SPEEDUP_T0``x faster than the
  reference ``encode_stream`` on the t0 code (and ``MIN_SPEEDUP_ANY``x on
  every measured codec);
* Table 2 renders **byte-identically** with kernels on, kernels off and
  no engine at all.

The measured wall times land in ``benchmarks/results/kernel_speedup.json``.
"""

from __future__ import annotations

import json
import time

import numpy as np

from repro.core import kernels, make_codec
from repro.core.base import encode_stream
from repro.engine import ExecutionConfig
from repro.experiments import table2
from repro.metrics.fast import count_transitions_fast, pack_words

from benchmarks.conftest import publish

#: Cold-encode speedup floors on a million-address trace.  t0 is the
#: paper's headline sequential code and the fastest kernel (a pure
#: gather); the scan-heavy bus-invert family clears a lower bar.
MIN_SPEEDUP_T0 = 50.0
MIN_SPEEDUP_ANY = 8.0

TRACE_LENGTH = 1_000_000
CODEC_NAMES = ("t0", "gray", "bus-invert", "dualt0bi")


def _million_address_stream(length: int = TRACE_LENGTH, seed: int = 98):
    """A seeded mixed stream: sequential runs, local jumps, region hops —
    the same branch mix as ``tests.conftest.make_mixed_stream``, built
    vectorised so the benchmark spends its time encoding, not generating."""
    rng = np.random.default_rng(seed)
    roll = rng.random(length)
    steps = np.where(
        roll < 0.5,
        4,
        np.where(
            roll < 0.8,
            4 * rng.integers(-64, 64, size=length),
            4 * rng.integers(-(1 << 18), 1 << 18, size=length),
        ),
    )
    addresses = (np.cumsum(steps.astype(np.int64)) & 0xFFFF_FFFF).astype(
        np.uint64
    )
    sels = (rng.random(length) < 0.7).astype(np.uint8)
    return addresses, sels


def _timed(workload):
    started = time.perf_counter()
    result = workload()
    return result, time.perf_counter() - started


def test_kernel_speedup_and_bit_identity(results_dir, benchmark):
    addresses, sels = _million_address_stream()
    address_list = addresses.tolist()
    sel_list = sels.tolist()

    rows = {}
    for name in CODEC_NAMES:
        codec = make_codec(name, 32)
        result, kernel_s = _timed(
            lambda: kernels.encode_stream_kernel(codec, addresses, sels)
        )
        kernel_report, count_s = _timed(result.report)
        kernel_s += count_s

        def reference():
            words = encode_stream(codec, address_list, sel_list)
            return words, count_transitions_fast(words, width=32)

        (words, reference_report), reference_s = _timed(reference)

        # Bit-identical streams, equal reports.
        assert np.array_equal(result.packed, pack_words(words, width=32)), name
        assert kernel_report == reference_report, name

        speedup = reference_s / kernel_s
        floor = MIN_SPEEDUP_T0 if name == "t0" else MIN_SPEEDUP_ANY
        assert speedup >= floor, (
            f"{name} kernel only {speedup:.1f}x faster than the reference "
            f"path ({kernel_s:.3f}s vs {reference_s:.3f}s, floor {floor}x)"
        )
        rows[name] = {
            "kernel_s": round(kernel_s, 4),
            "reference_s": round(reference_s, 4),
            "speedup": round(speedup, 1),
            "transitions": kernel_report.total,
        }

    # Table 2 must render byte-identically on every path.
    sequential = table2().render()
    with_kernels = table2(config=ExecutionConfig(jobs=1)).render()
    without = table2(config=ExecutionConfig(jobs=1, kernels=False)).render()
    assert with_kernels == sequential
    assert without == sequential
    rows["table2_byte_identical"] = True
    rows["trace_length"] = TRACE_LENGTH

    publish(
        results_dir,
        "kernel_speedup",
        f"kernel vs reference cold encode ({TRACE_LENGTH} addresses):\n"
        + json.dumps(rows, indent=2),
        rows=rows,
    )

    # Timed unit: one cold t0 kernel encode+count of the million-address
    # trace (the engine's per-cell hot path).
    t0 = make_codec("t0", 32)

    def workload():
        return kernels.encode_stream_kernel(t0, addresses, sels).report()

    report = benchmark(workload)
    assert report.total == rows["t0"]["transitions"]
