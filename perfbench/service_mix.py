"""The ``service-mix`` workload: a closed loop against ``repro-bus serve``.

Two client threads share one seeded request sequence.  Each client sends
its next request only after the previous job is done (closed loop), so
at most two jobs are in flight against a server run with ``--jobs 2``,
a fresh result cache and an on-disk trace corpus.  The sequence mixes:

* ``fresh``: a new inline trace, never seen before (corpus write, engine
  cache miss, pool compute);
* ``duplicate``: the exact payload of an earlier request (dedupe against
  the retained job, no engine work);
* ``digest``: a ``trace_digest`` reference to an earlier fresh trace with
  the other codec roster of the same stream kind (corpus read; the
  binary-reference cell is a cache hit, the new codec cells are computed).

Fresh traces are slices of the paper's 27 calibrated streams
(:func:`repro.tracegen.all_traces`, SEL lines included), sent the way
:func:`repro.service.client.table_text_via_service` sends them, and each
request's codec roster is the one :data:`repro.experiments.TABLE_SPECS`
gives that stream kind: a fresh request takes Tables 2-4's or 5-7's
roster, a digest reference the other.  The streams are built and the
sequence seeded before timing starts.

After a warm-up prefix sent before timing, every block of 40 requests
holds 16 fresh, 12 duplicate and 12 digest requests in a seeded order.
A request that names an earlier one waits until that one is done, so
the mix the server sees does not depend on timing.  The measured window
runs in slices, with the clock calibrated between them while the server
is idle, on both cores at once (:class:`common.TwoCoreClock`).
Afterwards every served row is checked against the
``TABLE_SPECS`` rendering of the same request computed in-process.

The work runs in the server and its pool workers, out of reach of the
in-process :class:`layers.Tracer`; the per-layer metrics are read from
the server's ``GET /v1/metrics`` instead.
"""

from __future__ import annotations

import json
import random
import resource
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from common import (
    LAYER_UNITS,
    ROOT,
    Clock,
    Context,
    Report,
    TwoCoreClock,
    add_end_to_end,
    env_with_src,
    import_seconds,
    percentile,
    startup_time,
)

CLIENTS = 2
SERVER_JOBS = 2
#: Fresh-trace length per stream kind.  The paper's data streams are only
#: 11,000-19,000 addresses long, so their slices are shorter.
SLICE_LENGTH = {"instruction": 20_000, "data": 10_000, "multiplexed": 20_000}
#: Each block of BLOCK requests holds exactly these kinds, in seeded order.
#: The shares are an assumption: there is no production traffic to copy.
BLOCK_KINDS = ("fresh",) * 16 + ("duplicate",) * 12 + ("digest",) * 12
BLOCK = len(BLOCK_KINDS)
#: Requests sent one at a time before timing: they give the first block
#: something to name and pay the server's lazy imports.
WARMUP_KINDS = ("fresh",) * 8 + ("digest", "duplicate")
#: A duplicate or digest request names one at least REFERENCE_GAP requests
#: earlier; a duplicate at most DUPLICATE_WINDOW earlier, well inside the
#: server's retention of finished jobs.
REFERENCE_GAP = 4
DUPLICATE_WINDOW = 64
#: Server boots timed for the boot share of ``setup_s`` (median).
BOOT_SAMPLES = 3
#: The loop runs in slices of SLICE_S wall seconds; the clock is
#: calibrated between slices, while the server is idle.
SLICE_S = 2.0
POLL_S = 0.005
JOB_TIMEOUT_S = 60.0
BOOT_TIMEOUT_S = 60.0


@dataclass
class Spec:
    """One request of the seeded sequence."""

    index: int
    kind: str  # fresh | duplicate | digest
    trace: int  # fresh-trace number
    table: int  # the TABLE_SPECS entry whose roster the request names
    ref: Optional[int] = None  # index of the request this one names
    by_digest: bool = False  # names its trace by digest, not inline


@dataclass
class Record:
    """What the client saw for one request, in raw seconds."""

    spec: Spec
    latency_s: float = 0.0
    submit_s: float = 0.0
    compute_s: Optional[float] = None
    deduped: bool = False
    row: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    scale: float = 1.0  # reference seconds per raw second in its slice


@dataclass
class Window:
    """The requests of one measured window, and its seconds."""

    records: List[Record] = field(default_factory=list)
    raw_s: float = 0.0
    ref_s: float = 0.0
    slice_pass_s: List[float] = field(default_factory=list)
    slice_p50_s: List[float] = field(default_factory=list)

    def ok(self) -> List[Record]:
        return [record for record in self.records if record.error is None]

    def passes(self) -> float:
        """Blocks of BLOCK requests the window holds."""
        return len(self.records) / BLOCK

    def pass_s(self) -> float:
        """Median over the slices of reference seconds per BLOCK requests:
        a slice that a host slowdown hit unevenly does not move it."""
        return statistics.median(self.slice_pass_s)

    def job_p50_s(self) -> float:
        """Median over the slices of each slice's median job latency."""
        return statistics.median(self.slice_p50_s)


@dataclass(frozen=True)
class Trace:
    """One fresh trace: a slice of a paper stream, as the service sees it."""

    label: str
    kind: str
    addresses: List[int]
    sels: List[int]
    stride: int


class MixGenerator:
    """The seeded request sequence and the traces it names."""

    def __init__(self, seed: int) -> None:
        from repro.experiments import TABLE_SPECS
        from repro.tracegen import all_traces

        self.rng = random.Random(seed)
        self.sources = [trace for kind in SLICE_LENGTH for trace in all_traces(kind)]
        self.rng.shuffle(self.sources)
        self.sels = [source.effective_sels() for source in self.sources]
        self.tables = {
            kind: sorted(n for n, spec in TABLE_SPECS.items() if spec.kind == kind)
            for kind in SLICE_LENGTH
        }
        self.starts: List[int] = []  # fresh trace -> start in its source
        self.used: Set[Tuple[int, int]] = set()
        self.specs: List[Spec] = []
        self.kinds: List[str] = list(WARMUP_KINDS)
        self.unreferenced: List[int] = []  # fresh requests not yet digest-named

    def _source(self, trace: int) -> Any:
        return self.sources[trace % len(self.sources)]

    def _new_trace(self) -> int:
        """Pick a not yet used slice of the next source stream."""
        trace = len(self.starts)
        source = self._source(trace)
        last = len(source.addresses) - SLICE_LENGTH[source.kind]
        while True:
            start = self.rng.randint(0, last)
            if (trace % len(self.sources), start) not in self.used:
                break
        self.used.add((trace % len(self.sources), start))
        self.starts.append(start)
        return trace

    def trace(self, number: int) -> Trace:
        source = self._source(number)
        start = self.starts[number]
        stop = start + SLICE_LENGTH[source.kind]
        return Trace(
            source.name.split(".")[0],
            source.kind,
            list(source.addresses[start:stop]),
            list(self.sels[number % len(self.sources)][start:stop]),
            source.stride,
        )

    def next(self) -> Spec:
        index = len(self.specs)
        if not self.kinds:
            self.kinds = list(BLOCK_KINDS)
            self.rng.shuffle(self.kinds)
        kind = self.kinds.pop(0)
        newest = index - REFERENCE_GAP
        duplicates = [
            spec.index
            for spec in self.specs[max(0, index - DUPLICATE_WINDOW) : max(0, newest + 1)]
            if spec.kind != "duplicate"
        ]
        digests = [ref for ref in self.unreferenced if ref <= newest]
        if kind == "duplicate" and duplicates:
            original = self.specs[self.rng.choice(duplicates)]
            spec = Spec(
                index, "duplicate", original.trace, original.table,
                original.index, original.by_digest,
            )
        elif kind == "digest" and digests:
            ref = self.rng.choice(digests)
            self.unreferenced.remove(ref)
            fresh = self.specs[ref]
            pair = self.tables[self._source(fresh.trace).kind]
            other = pair[1 - pair.index(fresh.table)]
            spec = Spec(index, "digest", fresh.trace, other, ref, by_digest=True)
        else:
            trace = self._new_trace()
            pair = self.tables[self._source(trace).kind]
            spec = Spec(index, "fresh", trace, pair[trace % len(pair)])
            self.unreferenced.append(index)
        self.specs.append(spec)
        return spec

    def payload(self, spec: Spec) -> Dict[str, Any]:
        from repro.experiments import TABLE_SPECS
        from repro.service import SCHEMA_VERSION
        from repro.service.corpus import trace_digest

        trace = self.trace(spec.trace)
        body: Dict[str, Any] = {
            "schema_version": SCHEMA_VERSION,
            "codecs": [
                {"name": name, "params": {} if name == "bus-invert" else {"stride": 4}}
                for name in TABLE_SPECS[spec.table].codecs
            ],
            "metrics": ["codec-transitions"],
            "width": 32,
            "stride": trace.stride,
            "benchmark": trace.label,
        }
        if spec.by_digest:
            body["trace_digest"] = trace_digest(trace.addresses, trace.sels)
        else:
            body["trace"] = {"addresses": trace.addresses, "sels": trace.sels}
        return body


class Server:
    """``repro-bus serve`` as a subprocess with its own cache and corpus."""

    def __init__(self, ctx: Context) -> None:
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            self.port = sock.getsockname()[1]
        self.log = open(ctx.workdir / "server.log", "a", encoding="utf-8")
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", str(self.port),
                "--jobs", str(SERVER_JOBS),
                "--cache", str(ctx.workdir / "cache"),
                "--corpus", str(ctx.workdir / "corpus"),
            ],
            env=env_with_src(),
            cwd=ROOT,
            stdout=self.log,
            stderr=subprocess.STDOUT,
        )
        from repro.service import ServiceClient

        self.client = ServiceClient(f"http://127.0.0.1:{self.port}", timeout=30)
        deadline = time.perf_counter() + BOOT_TIMEOUT_S
        try:
            while True:
                try:
                    if self.client.request("GET", "/v1/healthz")[0] == 200:
                        break
                except OSError:
                    pass
                if self.process.poll() is not None:
                    raise RuntimeError("repro-bus serve exited during start-up")
                if time.perf_counter() > deadline:
                    raise RuntimeError("repro-bus serve did not come up")
                time.sleep(0.01)
        except BaseException:
            self.stop()
            raise

    def totals(self) -> Dict[str, float]:
        """Counters, and histogram sums and counts, summed over labels; the
        ``engine.cell_compute_us`` histogram is kept per execution path."""
        snapshot = self.client.metrics()["metrics"]
        totals: Dict[str, float] = {}
        for entry in snapshot["counters"]:
            totals[entry["name"]] = totals.get(entry["name"], 0) + entry["value"]
        for entry in snapshot["histograms"]:
            name = entry["name"]
            if name == "engine.cell_compute_us":
                name += f"{{{entry['labels']['path']}}}"
            for part in ("sum", "count"):
                key = f"{name}.{part}"
                totals[key] = totals.get(key, 0) + entry[part]
        return totals

    def stop(self) -> None:
        try:
            if self.process.poll() is None:
                self.client.shutdown()
                self.process.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            pass
        finally:
            if self.process.poll() is None:
                self.process.kill()
                self.process.wait()
            self.log.close()


def boot(ctx: Context, samples: int) -> Tuple[Server, float]:
    """Boot the server ``samples`` times, keeping the last one; returns it
    and the median boot time (until ``/v1/healthz`` answers 200)."""
    times = []
    for sample in range(samples):
        server, seconds = startup_time(Server, ctx)
        times.append(seconds)
        if sample < samples - 1:
            server.stop()
    return server, statistics.median(times)


class ClosedLoop:
    """Two client threads draining the shared sequence until a deadline."""

    def __init__(self, server: Server, mix: MixGenerator) -> None:
        self.server = server
        self.mix = mix
        self.lock = threading.Lock()
        self.done: Dict[int, threading.Event] = {}

    def dispatch(self) -> Spec:
        with self.lock:
            spec = self.mix.next()
            self.done[spec.index] = threading.Event()
            return spec

    def one(self, client: Any, spec: Spec) -> Record:
        from repro.service.client import ServiceError

        record = Record(spec)
        if spec.ref is not None:
            self.done[spec.ref].wait(JOB_TIMEOUT_S)
        payload = self.mix.payload(spec)
        started = time.perf_counter()
        try:
            status, job = client.request("POST", "/v1/jobs", payload)
            record.submit_s = time.perf_counter() - started
            if status != 202:
                record.error = f"HTTP {status}: {job.get('error')}"
                return record
            record.deduped = bool(job.get("deduped"))
            while job["status"] not in ("done", "failed"):
                if time.perf_counter() - started > JOB_TIMEOUT_S:
                    record.error = "timeout"
                    return record
                time.sleep(POLL_S)
                job = client.job(job["job_id"])
            record.latency_s = time.perf_counter() - started
            if job["status"] == "failed":
                record.error = f"job failed: {job.get('error')}"
                return record
            record.row = job["result"]["row"]
            if not record.deduped:
                record.compute_s = job.get("wall_s")
        except (OSError, ServiceError, KeyError, ValueError) as error:
            record.error = f"{type(error).__name__}: {error}"
        finally:
            self.done[spec.index].set()
        return record

    def run(self, seconds: float) -> List[Record]:
        """Run the loop for ``seconds`` wall seconds; returns its records."""
        from repro.service import ServiceClient

        records: List[Record] = []
        deadline = time.perf_counter() + seconds

        def client_loop() -> None:
            client = ServiceClient(self.server.client.base_url, timeout=30)
            while time.perf_counter() < deadline:
                record = self.one(client, self.dispatch())
                with self.lock:
                    records.append(record)

        threads = [threading.Thread(target=client_loop) for _ in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return records


def _run_window(loop: ClosedLoop, clock: Clock, seconds: float) -> Window:
    """Run the loop in slices until they add up to ``seconds`` reference
    seconds."""
    window = Window()
    while window.ref_s < seconds:
        records, raw, ref = clock.time(loop.run, SLICE_S)
        for record in records:
            record.scale = ref / raw
        window.records.extend(records)
        window.slice_pass_s.append(BLOCK * ref / len(records))
        latencies = [record.latency_s * record.scale for record in records if record.error is None]
        if latencies:
            window.slice_p50_s.append(percentile(latencies, 0.5))
        window.raw_s += raw
        window.ref_s += ref
    return window


class Verifier:
    """Served rows against the ``TABLE_SPECS`` rendering of the same
    request, computed in-process."""

    def __init__(self, mix: MixGenerator) -> None:
        self.mix = mix
        self.expected: Dict[Tuple[int, int], str] = {}
        self.bytes: Dict[Tuple[bool, int, int], int] = {}

    @staticmethod
    def _render(table: int, row: Any) -> str:
        from repro.experiments import TABLE_SPECS
        from repro.metrics import PaperTable

        spec = TABLE_SPECS[table]
        rendered = PaperTable(title=spec.title, codec_names=list(spec.codecs))
        rendered.add(row)
        return rendered.render()

    @staticmethod
    def _codecs(names: Sequence[str]) -> List[Any]:
        from repro.core import make_codec

        return [
            make_codec(name, 32) if name == "bus-invert" else make_codec(name, 32, stride=4)
            for name in names
        ]

    def expected_text(self, spec: Spec) -> str:
        key = (spec.trace, spec.table)
        if key not in self.expected:
            from repro.engine import ExecutionConfig
            from repro.experiments import TABLE_SPECS
            from repro.metrics import compare_codecs

            trace = self.mix.trace(spec.trace)
            row = compare_codecs(
                self._codecs(TABLE_SPECS[spec.table].codecs),
                trace.addresses,
                trace.sels,
                stride=trace.stride,
                benchmark=trace.label,
                config=ExecutionConfig(),
            )
            self.expected[key] = self._render(spec.table, row)
        return self.expected[key]

    def check(self, record: Record) -> bool:
        from repro.service.protocol import row_from_payload

        if record.row is None:
            return False
        label = self.mix.trace(record.spec.trace).label
        served = row_from_payload(record.row, benchmark=label)
        return self._render(record.spec.table, served) == self.expected_text(record.spec)

    def request_bytes(self, spec: Spec) -> int:
        key = (spec.by_digest, spec.trace, spec.table)
        if key not in self.bytes:
            self.bytes[key] = len(json.dumps(self.mix.payload(spec)).encode("utf-8"))
        return self.bytes[key]


def _verify(records: List[Record], verifier: Verifier) -> None:
    for record in records:
        if record.error is None and not verifier.check(record):
            record.error = "served row differs from the TABLE_SPECS rendering"


def _median_ms(values: List[float]) -> float:
    return statistics.median(values) * 1e3 if values else 0.0


def _layer_report(
    report: Report,
    window: Window,
    before: Dict[str, float],
    after: Dict[str, float],
    verifier: Verifier,
) -> None:
    """Per-pass (40-request) layer metrics of the measured window.

    The encode, count and engine work runs in the server and its pool
    workers, so its times come from the server's own metrics: the pool
    workers' per-cell compute time by execution path and each job's
    engine time.  Client-side times split the latency of each request."""
    ok = window.ok()
    computed = [record for record in ok if record.compute_s is not None]
    passes = window.passes()
    scale = window.ref_s / window.raw_s

    def delta(name: str) -> float:
        return (after.get(name, 0) - before.get(name, 0)) / passes

    def compute(path: str, part: str = "sum") -> float:
        return delta(f"engine.cell_compute_us{{{path}}}.{part}")

    encode_s = (compute("kernel") + compute("steppable")) * 1e-6 * scale
    count_s = compute("columnar") * 1e-6 * scale
    job_s = delta("service.job_wall_us.sum") * 1e-6 * scale
    latency_s = sum(record.latency_s * record.scale for record in ok) / passes
    codec_cells = compute("kernel", "count") + compute("steppable", "count")
    cells = delta("engine.cells")
    hits = delta("engine.cache.hits")
    layer = {name: 0.0 for name in LAYER_UNITS}
    layer.update(
        {
            "core.encode_busy_s": encode_s,
            "core.encoded_words": delta("core.encoded_words"),
            "core.kernel_share": compute("kernel", "count") / codec_cells if codec_cells else 0.0,
            "metrics.count_busy_s": count_s,
            "metrics.count_calls": codec_cells + compute("columnar", "count"),
            "engine.run_self_s": job_s - encode_s - count_s,
            "engine.cells": cells,
            "engine.cache_hits": hits,
            "engine.cache_misses": delta("engine.cache.misses"),
            "engine.hit_ratio": hits / cells if cells else 0.0,
            "service.submit_ms_p50": _median_ms([r.submit_s * r.scale for r in ok]),
            "service.compute_ms_p50": _median_ms(
                [r.compute_s * r.scale for r in computed]  # type: ignore[operator]
            ),
            "service.wait_ms_p50": _median_ms(
                [
                    (r.latency_s - r.submit_s - r.compute_s) * r.scale  # type: ignore[operator]
                    for r in computed
                ]
            ),
            "service.dedup_ratio": sum(r.deduped for r in ok) / max(1, len(ok)),
            "service.rejected": delta("service.rejected"),
            "service.request_bytes": statistics.mean(
                verifier.request_bytes(r.spec) for r in window.records
            ),
            "other.busy_s": latency_s - job_s,
        }
    )
    for name, value in layer.items():
        report.add(name, value, LAYER_UNITS[name])
    report.notes.append(
        "not measured on service-mix (read 0): engine.cache_io_s, which the "
        "server does not time apart from its job, and trace.overhead_frac, "
        "since nothing is wrapped; tracegen, rtl and render are not reached"
    )


def _mix_notes(records: List[Record]) -> List[str]:
    notes = []
    for kind in ("fresh", "duplicate", "digest"):
        mine = [record for record in records if record.spec.kind == kind]
        latencies = [r.latency_s * r.scale for r in mine if r.error is None]
        if latencies:
            notes.append(
                f"{kind}: {len(mine) / len(records):.3f} of {len(records)} requests, "
                f"p50 {percentile(latencies, 0.5) * 1e3:.1f} ms"
            )
    errors = sorted({record.error for record in records if record.error})
    notes.extend(f"error: {error}" for error in errors[:5])
    return notes


def service_mix(ctx: Context) -> Report:
    report = Report()
    setup_s = 0.0 if ctx.trace else import_seconds()
    mix = MixGenerator(ctx.seed)
    verifier = Verifier(mix)
    clock = TwoCoreClock()  # the server, its pool and the clients share both cores
    try:
        server, boot_s = boot(ctx, 1 if ctx.trace else BOOT_SAMPLES)
        try:
            loop = ClosedLoop(server, mix)
            warmup = [loop.one(server.client, loop.dispatch()) for _ in WARMUP_KINDS]
            before = server.totals()
            window = _run_window(loop, clock, ctx.seconds)
            after = server.totals()
        finally:
            server.stop()
    finally:
        clock.close()
    checked = warmup + window.records
    _verify(checked, verifier)
    report.attempted = len(checked)
    report.failed = sum(record.error is not None for record in checked)
    if not ctx.trace:
        children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        latencies = [record.latency_s * record.scale for record in window.ok()]
        add_end_to_end(
            report, setup_s + boot_s, window.pass_s(), window.job_p50_s(), latencies, children
        )
        report.notes.append(
            f"jobs_per_s = {len(latencies) / window.ref_s:.6g} 1/s "
            f"(about {BLOCK} / wall_s)"
        )
    else:
        _layer_report(report, window, before, after, verifier)
    report.notes.extend(_mix_notes(window.records))
    report.notes.append(clock.note())
    return report
