"""Codec-evaluation service: an async API over the sharded batch engine.

The batch reproduction regenerates the paper's tables as one-shot runs;
this package serves the same computations as a long-running system.  A
client submits an address trace — inline, or by sha256 digest against
the service's content-addressed trace corpus — plus a codec roster, and
the service shards the resulting (trace, codec, metric) cells across the
existing :class:`~repro.engine.BatchEngine`.  Identical in-flight work
coalesces across clients (same stream digest + codec roster = one
computation, many waiters), a bounded job queue applies backpressure
past a high-water mark, and result payloads are deterministic —
byte-identical to the batch path's rows.

Layers (stdlib only, no framework):

* :mod:`repro.service.protocol` — the versioned request/response schema;
* :mod:`repro.tracegen.corpus`  — the content-addressed trace store
  (re-exported as :mod:`repro.service.corpus`);
* :mod:`repro.service.queue`    — bounded FIFO job queue with dedupe;
* :mod:`repro.service.app`      — the asyncio service + HTTP routing;
* :mod:`repro.service.http`     — a minimal HTTP/1.1 transport;
* :mod:`repro.service.client`   — a blocking urllib client.

See ``docs/service.md`` for endpoints and semantics; ``repro-bus serve``
is the CLI entry point.
"""

from repro.service.app import EvaluationService, run_server
from repro.service.client import ServiceClient, table_text_via_service
from repro.service.protocol import (
    SCHEMA_VERSION,
    CodecSpec,
    EvalRequest,
    ProtocolError,
    parse_request,
    request_key,
    row_from_payload,
    row_to_payload,
)
from repro.service.queue import Job, JobQueue, ServiceOverloaded
from repro.tracegen.corpus import TraceCorpus, trace_digest

__all__ = [
    "CodecSpec",
    "EvalRequest",
    "EvaluationService",
    "Job",
    "JobQueue",
    "ProtocolError",
    "SCHEMA_VERSION",
    "ServiceClient",
    "ServiceOverloaded",
    "TraceCorpus",
    "parse_request",
    "request_key",
    "row_from_payload",
    "row_to_payload",
    "run_server",
    "table_text_via_service",
    "trace_digest",
]
