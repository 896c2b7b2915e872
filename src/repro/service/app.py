"""The asyncio evaluation service: routing, the worker loop, manifests.

Execution model — one event loop, one engine, one compute lane:

* HTTP handlers run on the loop and only touch loop-owned state (the
  job queue, the corpus, counters), so admission and dedupe need no
  locks;
* a single worker coroutine drains the queue FIFO and runs each job's
  cell batch on a one-thread executor, so the shared
  :class:`~repro.engine.BatchEngine` (whose own ``--jobs`` pool is the
  real parallelism) is never entered concurrently;
* results are deterministic payloads — the exact rows the batch path
  produces — so a served row diffs byte-identically against
  ``repro-bus tables`` output (the CI smoke gate does exactly this).

Construct the service *on* the event loop that will run it (its asyncio
primitives bind to the running loop); :func:`run_server` does this for
the CLI.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from typing import Any, Dict, Optional, Tuple

from repro.engine import ExecutionConfig, comparison_cells, make_cell, row_from_results
from repro.engine.cells import METRIC_CODEC, METRIC_POWER
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span as obs_span
from repro.service.http import Response, json_response, start_http_server
from repro.service.protocol import (
    SCHEMA_VERSION,
    UNSERVABLE_CODECS,
    EvalRequest,
    ProtocolError,
    make_codecs,
    parse_request,
    row_to_payload,
)
from repro.service.queue import Job, JobQueue, ServiceOverloaded
from repro.tracegen.corpus import TraceCorpus


def _stats_view(stats: Any) -> Dict[str, Any]:
    return {
        "cells": stats.cells,
        "hits": stats.hits,
        "misses": stats.misses,
        "uncacheable": stats.uncacheable,
    }


def _stats_delta(before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, Any]:
    return {name: after[name] - before[name] for name in before}


class EvaluationService:
    """The service state machine, transport-agnostic.

    ``submit``/``job_payload``/``manifest`` are the API the HTTP layer
    (and the direct in-process tests) call; ``start``/``stop`` own the
    worker coroutine.
    """

    def __init__(
        self,
        config: Optional[ExecutionConfig] = None,
        corpus: Optional[TraceCorpus] = None,
        max_pending: int = 64,
        retry_after: int = 2,
    ) -> None:
        self.config = config if config is not None else ExecutionConfig()
        self.corpus = corpus if corpus is not None else TraceCorpus()
        self.queue = JobQueue(max_pending=max_pending, retry_after=retry_after)
        self.shutdown_event = asyncio.Event()
        self._manifests: Dict[str, Dict[str, Any]] = {}
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-service-compute"
        )
        self._worker_task: Optional["asyncio.Task[None]"] = None

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> None:
        if self._worker_task is None:
            self._worker_task = asyncio.get_running_loop().create_task(
                self._worker()
            )

    async def stop(self) -> None:
        if self._worker_task is not None:
            self._worker_task.cancel()
            try:
                await self._worker_task
            except asyncio.CancelledError:
                pass
            self._worker_task = None
        self._executor.shutdown(wait=True)

    # -- admission (called from handlers and tests) ---------------------

    def submit(self, payload: Any) -> Tuple[int, Dict[str, Any]]:
        """Admit one raw request body; returns ``(http_status, response)``."""
        obs_metrics.counter("service.requests", endpoint="jobs").inc()
        request = parse_request(payload)
        request = self._resolve_trace(request)
        make_codecs(request)  # fail unknown/unbuildable codecs at admission
        if METRIC_POWER in request.metrics:
            from repro.rtl.codecs import ENCODER_BUILDERS

            missing = [
                spec.name
                for spec in request.codecs
                if spec.name not in ENCODER_BUILDERS
            ]
            if missing:
                raise ProtocolError(
                    f"no gate-level circuit for codec(s): "
                    f"{', '.join(sorted(set(missing)))} "
                    f"(power-sim serves: {', '.join(sorted(ENCODER_BUILDERS))})",
                    http_status=422,
                )
        try:
            job, deduped = self.queue.submit(request)
        except ServiceOverloaded as error:
            obs_metrics.counter("service.rejected").inc()
            raise error
        if deduped:
            obs_metrics.counter("service.dedup_hits").inc()
        else:
            obs_metrics.counter("service.jobs_admitted").inc()
        obs_metrics.gauge("service.pending_jobs").set(self.queue.pending())
        response = job.to_payload()
        response["schema_version"] = SCHEMA_VERSION
        response["deduped"] = deduped
        return 202, response

    def _resolve_trace(self, request: EvalRequest) -> EvalRequest:
        """Register inline traces; verify digest references exist and fit
        the request's ``width`` (inline traces were checked at parsing)."""
        if request.addresses is not None:
            digest = self.corpus.add(request.addresses, request.sels)
            return replace(request, trace_digest=digest)
        assert request.trace_digest is not None
        stored = self.corpus.get(request.trace_digest)
        if stored is None:
            raise ProtocolError(
                f"unknown trace digest {request.trace_digest!r} "
                "(upload it via POST /v1/traces first)",
                http_status=404,
            )
        widest = max(stored[0], default=0)
        if widest >> request.width:
            raise ProtocolError(
                f"trace {request.trace_digest!r} has address {widest:#x}, "
                f"which does not fit a {request.width}-bit bus"
            )
        return request

    def add_trace(self, payload: Any) -> Dict[str, Any]:
        """POST /v1/traces body → corpus registration."""
        obs_metrics.counter("service.requests", endpoint="traces").inc()
        if not isinstance(payload, dict):
            raise ProtocolError("request body must be a JSON object")
        if payload.get("schema_version") != SCHEMA_VERSION:
            raise ProtocolError(
                f"unsupported schema_version {payload.get('schema_version')!r} "
                f"(this server speaks {SCHEMA_VERSION})"
            )
        trace = payload.get("trace")
        if not isinstance(trace, dict):
            raise ProtocolError("request needs a 'trace' object")
        from repro.service.protocol import _parse_addresses

        addresses, sels = _parse_addresses(trace)
        digest = self.corpus.add(addresses, sels)
        return {
            "schema_version": SCHEMA_VERSION,
            "trace_digest": digest,
            "length": len(addresses),
        }

    # -- the worker -----------------------------------------------------

    async def _worker(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            job = await self.queue.next_job()
            obs_metrics.gauge("service.pending_jobs").set(self.queue.pending())
            started = time.perf_counter()
            before = _stats_view(self.config.engine().stats)
            try:
                result = await loop.run_in_executor(
                    self._executor, self._compute, job.request
                )
            except ProtocolError as error:
                wall_s = time.perf_counter() - started
                self.queue.finish(
                    job,
                    error=str(error),
                    error_status=error.http_status,
                    wall_s=wall_s,
                )
                obs_metrics.counter("service.job_failures").inc()
            except Exception as error:  # noqa: BLE001 - job isolation
                wall_s = time.perf_counter() - started
                self.queue.finish(
                    job,
                    error=f"{type(error).__name__}: {error}",
                    wall_s=wall_s,
                )
                obs_metrics.counter("service.job_failures").inc()
            else:
                wall_s = time.perf_counter() - started
                self.queue.finish(job, result=result, wall_s=wall_s)
                obs_metrics.counter("service.jobs_completed").inc()
                obs_metrics.histogram("service.job_wall_us").observe(
                    wall_s * 1e6
                )
                self._manifests[job.key] = self._manifest(
                    job, before, _stats_view(self.config.engine().stats)
                )
            obs_metrics.gauge("service.pending_jobs").set(self.queue.pending())

    def _compute(self, request: EvalRequest) -> Dict[str, Any]:
        """One job's full computation (runs on the executor thread)."""
        assert request.trace_digest is not None
        stored = self.corpus.get(request.trace_digest)
        if stored is None:  # corpus entry evicted between admit and run
            raise ProtocolError(
                f"trace {request.trace_digest!r} vanished from the corpus",
                http_status=404,
            )
        addresses, sels = stored
        codecs = make_codecs(request)
        engine = self.config.engine()
        result: Dict[str, Any] = {
            "schema_version": SCHEMA_VERSION,
            "trace_digest": request.trace_digest,
            "benchmark": request.benchmark,
        }
        with obs_span(
            "service-job",
            digest=request.trace_digest[:12],
            cycles=len(addresses),
        ):
            if METRIC_CODEC in request.metrics:
                cells = comparison_cells(
                    codecs,
                    addresses,
                    sels,
                    stride=request.stride,
                    benchmark=request.benchmark,
                )
                payloads = engine.run(
                    cells, codecs={codec.name: codec for codec in codecs}
                )
                row = row_from_results(
                    codecs,
                    payloads,
                    len(addresses),
                    benchmark=request.benchmark,
                )
                result["row"] = row_to_payload(row)
            if METRIC_POWER in request.metrics:
                power_cells = [
                    make_cell(
                        METRIC_POWER,
                        request.benchmark,
                        addresses,
                        sels,
                        width=request.width,
                        codec_name=spec.name,
                    )
                    for spec in request.codecs
                ]
                payloads = engine.run(power_cells)
                result["power"] = {
                    spec.name: payload
                    for spec, payload in zip(request.codecs, payloads)
                }
        return result

    def _manifest(
        self,
        job: Job,
        stats_before: Dict[str, Any],
        stats_after: Dict[str, Any],
    ) -> Dict[str, Any]:
        result_text = json.dumps(job.result, sort_keys=True)
        return {
            "schema_version": SCHEMA_VERSION,
            "job_id": job.key,
            "trace_digest": job.request.trace_digest,
            "metrics": list(job.request.metrics),
            "codecs": [spec.name for spec in job.request.codecs],
            "engine": _stats_delta(stats_before, stats_after),
            "result_sha256": hashlib.sha256(
                result_text.encode("utf-8")
            ).hexdigest(),
        }

    # -- HTTP routing ---------------------------------------------------

    async def handle(self, method: str, path: str, body: bytes) -> Response:
        try:
            return await self._route(method, path, body)
        except ServiceOverloaded as error:
            return json_response(
                429,
                {
                    "schema_version": SCHEMA_VERSION,
                    "error": str(error),
                    "retry_after": error.retry_after,
                },
                {"Retry-After": str(error.retry_after)},
            )
        except ProtocolError as error:
            return json_response(error.http_status, error.to_payload())

    async def _route(self, method: str, path: str, body: bytes) -> Response:
        if path == "/v1/healthz" and method == "GET":
            return json_response(200, self.health())
        if path == "/v1/codecs" and method == "GET":
            return json_response(200, self.codec_roster())
        if path == "/v1/metrics" and method == "GET":
            obs_metrics.counter("service.requests", endpoint="metrics").inc()
            return json_response(
                200,
                {
                    "schema_version": SCHEMA_VERSION,
                    "metrics": obs_metrics.snapshot(),
                },
            )
        if path == "/v1/traces" and method == "POST":
            return json_response(200, self.add_trace(_parse_body(body)))
        if path.startswith("/v1/traces/") and method == "GET":
            digest = path[len("/v1/traces/") :]
            stored = self.corpus.get(digest)
            if stored is None:
                raise ProtocolError(
                    f"unknown trace digest {digest!r}", http_status=404
                )
            return json_response(
                200,
                {
                    "schema_version": SCHEMA_VERSION,
                    "trace_digest": digest,
                    "length": len(stored[0]),
                    "has_sels": stored[1] is not None,
                },
            )
        if path == "/v1/jobs" and method == "POST":
            status, payload = self.submit(_parse_body(body))
            return json_response(status, payload)
        if path.startswith("/v1/jobs/") and method == "GET":
            rest = path[len("/v1/jobs/") :]
            if rest.endswith("/manifest"):
                return json_response(200, self.manifest(rest[: -len("/manifest")]))
            return json_response(200, self.job_payload(rest))
        if path == "/v1/shutdown" and method == "POST":
            self.shutdown_event.set()
            return json_response(
                200, {"schema_version": SCHEMA_VERSION, "status": "shutting-down"}
            )
        raise ProtocolError(
            f"no route for {method} {path}",
            http_status=404 if method == "GET" else 405,
        )

    def health(self) -> Dict[str, Any]:
        obs_metrics.counter("service.requests", endpoint="healthz").inc()
        return {
            "schema_version": SCHEMA_VERSION,
            "status": "ok",
            "config": self.config.to_dict(),
            "queue": self.queue.stats(),
            "corpus_traces": len(self.corpus),
        }

    def codec_roster(self) -> Dict[str, Any]:
        from repro.core.registry import available_codecs

        obs_metrics.counter("service.requests", endpoint="codecs").inc()
        return {
            "schema_version": SCHEMA_VERSION,
            "codecs": [
                name
                for name in available_codecs()
                if name not in UNSERVABLE_CODECS
            ],
            "metrics": [METRIC_CODEC, METRIC_POWER],
        }

    def job_payload(self, job_id: str) -> Dict[str, Any]:
        obs_metrics.counter("service.requests", endpoint="jobs").inc()
        job = self.queue.get(job_id)
        if job is None:
            raise ProtocolError(f"unknown job {job_id!r}", http_status=404)
        payload = job.to_payload()
        payload["schema_version"] = SCHEMA_VERSION
        return payload

    def manifest(self, job_id: str) -> Dict[str, Any]:
        obs_metrics.counter("service.requests", endpoint="manifest").inc()
        manifest = self._manifests.get(job_id)
        if manifest is None:
            job = self.queue.get(job_id)
            if job is None:
                raise ProtocolError(f"unknown job {job_id!r}", http_status=404)
            raise ProtocolError(
                f"job {job_id!r} has no manifest yet (status: {job.status})",
                http_status=404,
            )
        return manifest


def _parse_body(body: bytes) -> Any:
    try:
        return json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as error:
        raise ProtocolError(f"request body is not valid JSON: {error}") from error


async def run_server(
    host: str = "127.0.0.1",
    port: int = 8765,
    config: Optional[ExecutionConfig] = None,
    corpus: Optional[TraceCorpus] = None,
    max_pending: int = 64,
    ready: Optional["asyncio.Event"] = None,
) -> None:
    """Run the service until ``POST /v1/shutdown`` (or cancellation).

    Builds the service on the running loop, binds the HTTP transport,
    and tears both down cleanly.  ``ready`` (if given) is set once the
    socket is listening — the smoke script and tests key off it.
    """
    service = EvaluationService(
        config=config, corpus=corpus, max_pending=max_pending
    )
    await service.start()
    server = await start_http_server(service.handle, host, port)
    bound = server.sockets[0].getsockname() if server.sockets else (host, port)
    print(f"repro-bus serve: listening on http://{bound[0]}:{bound[1]}")
    if ready is not None:
        ready.set()
    try:
        await service.shutdown_event.wait()
    finally:
        server.close()
        await server.wait_closed()
        await service.stop()
