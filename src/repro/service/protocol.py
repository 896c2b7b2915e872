"""The service's versioned request/response schema.

Every payload the service accepts or returns carries
``schema_version`` = :data:`SCHEMA_VERSION`; a version the server does
not speak is rejected up front (a client from the future should fail
loudly, not silently misparse).  Parsing is strict: unknown fields,
wrong types and out-of-range values all raise :class:`ProtocolError`
with an HTTP status attached, so the transport layer can translate
without string-matching.

The job identity rule lives here too: :func:`request_key` hashes the
*canonical* request — schema version, trace digest, width, stride,
sorted codec specs, sorted metrics — and deliberately excludes the
display label (``benchmark``).  Two clients naming the same stream
differently still collapse to one computation; the label is overlaid
client-side (:func:`row_from_payload` accepts an override).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.core.registry import TRAINED_CODECS
from repro.engine.cells import (
    METRIC_CODEC,
    METRIC_POWER,
    report_from_payload,
    report_to_payload,
)
from repro.metrics.report import CodecResult, ComparisonRow

#: The one schema version this server speaks.
SCHEMA_VERSION = 1

#: Metrics a request may ask for.  ``codec-transitions`` computes a full
#: comparison row (binary reference included); ``power-sim`` runs the
#: gate-level encoder/decoder circuits per codec.
REQUEST_METRICS = (METRIC_CODEC, METRIC_POWER)

#: Codecs the service refuses: their constructor params do not determine
#: their behaviour (they are trained on stream data), so a
#: content-addressed job key cannot identify their results.
UNSERVABLE_CODECS = TRAINED_CODECS


class ProtocolError(ValueError):
    """A malformed or unserviceable request, with its HTTP translation."""

    def __init__(self, message: str, http_status: int = 400) -> None:
        super().__init__(message)
        self.http_status = http_status

    def to_payload(self) -> Dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "error": str(self),
            "status": self.http_status,
        }


@dataclass(frozen=True)
class CodecSpec:
    """One codec the request evaluates: registry name + constructor params."""

    name: str
    params: Tuple[Tuple[str, Any], ...] = ()

    def to_payload(self) -> Dict[str, Any]:
        return {"name": self.name, "params": dict(self.params)}

    @classmethod
    def from_payload(cls, payload: Any) -> "CodecSpec":
        if isinstance(payload, str):
            return cls(name=payload)
        if not isinstance(payload, Mapping):
            raise ProtocolError(
                f"codec spec must be a name or object, got {type(payload).__name__}"
            )
        name = payload.get("name")
        if not isinstance(name, str) or not name:
            raise ProtocolError("codec spec needs a non-empty 'name'")
        params = payload.get("params", {})
        if not isinstance(params, Mapping):
            raise ProtocolError(f"codec {name!r}: 'params' must be an object")
        for key, value in params.items():
            if not isinstance(value, (int, float, str, bool)):
                raise ProtocolError(
                    f"codec {name!r}: param {key!r} must be a scalar"
                )
        return cls(name=name, params=tuple(sorted(params.items())))


@dataclass(frozen=True)
class EvalRequest:
    """A parsed, validated evaluation request.

    Exactly one of ``addresses`` (inline trace) or ``trace_digest``
    (corpus reference) is set after :func:`parse_request`; the service
    registers inline traces into its corpus before queueing, so a job's
    identity is always digest-based.
    """

    codecs: Tuple[CodecSpec, ...]
    metrics: Tuple[str, ...]
    width: int = 32
    stride: int = 4
    benchmark: str = ""  # display label only — never part of the job key
    trace_digest: Optional[str] = None
    addresses: Optional[Tuple[int, ...]] = None
    sels: Optional[Tuple[int, ...]] = field(default=None)

    def to_payload(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "schema_version": SCHEMA_VERSION,
            "codecs": [spec.to_payload() for spec in self.codecs],
            "metrics": list(self.metrics),
            "width": self.width,
            "stride": self.stride,
            "benchmark": self.benchmark,
        }
        if self.trace_digest is not None:
            payload["trace_digest"] = self.trace_digest
        if self.addresses is not None:
            payload["trace"] = {
                "addresses": list(self.addresses),
                "sels": list(self.sels) if self.sels is not None else None,
            }
        return payload


_REQUEST_FIELDS = frozenset(
    {
        "schema_version",
        "codecs",
        "metrics",
        "width",
        "stride",
        "benchmark",
        "trace",
        "trace_digest",
    }
)


def _check_version(payload: Mapping[str, Any]) -> None:
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ProtocolError(
            f"unsupported schema_version {version!r} "
            f"(this server speaks {SCHEMA_VERSION})",
        )


def _is_int(value: Any) -> bool:
    """A JSON integer.  ``bool`` subclasses ``int`` in Python, but JSON
    ``true`` is not a number, so it is rejected wherever one is required."""
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_addresses(
    trace: Mapping[str, Any], width: int = 64
) -> Tuple[Tuple[int, ...], Optional[Tuple[int, ...]]]:
    """Validate an inline trace whose addresses must fit ``width`` lines."""
    addresses = trace.get("addresses")
    if not isinstance(addresses, list) or not addresses:
        raise ProtocolError("inline trace needs a non-empty 'addresses' list")
    limit = 1 << width
    if not (
        all(type(a) is int for a in addresses)
        and min(addresses) >= 0
        and max(addresses) < limit
    ):
        for index, address in enumerate(addresses):
            if not _is_int(address) or address < 0:
                raise ProtocolError(
                    "'addresses' must be non-negative integers"
                )
            if address >= limit:
                raise ProtocolError(
                    f"address #{index} ({address:#x}) does not fit a "
                    f"{width}-bit bus"
                )
    sels = trace.get("sels")
    if sels is not None:
        if not isinstance(sels, list) or len(sels) != len(addresses):
            raise ProtocolError(
                "'sels' must be a list the same length as 'addresses'"
            )
        if not all(type(s) is int and s in (0, 1) for s in sels):
            raise ProtocolError("'sels' entries must be 0 or 1")
    return tuple(addresses), tuple(sels) if sels is not None else None


def parse_request(payload: Any) -> EvalRequest:
    """Validate a raw JSON request body into an :class:`EvalRequest`."""
    if not isinstance(payload, Mapping):
        raise ProtocolError("request body must be a JSON object")
    _check_version(payload)
    unknown = set(payload) - _REQUEST_FIELDS
    if unknown:
        raise ProtocolError(
            f"unknown request field(s): {', '.join(sorted(unknown))}"
        )

    raw_codecs = payload.get("codecs")
    if not isinstance(raw_codecs, list) or not raw_codecs:
        raise ProtocolError("request needs a non-empty 'codecs' list")
    codecs = tuple(CodecSpec.from_payload(entry) for entry in raw_codecs)
    for spec in codecs:
        if spec.name in UNSERVABLE_CODECS:
            raise ProtocolError(
                f"codec {spec.name!r} is trained on stream data and cannot "
                "be served (its params do not determine its behaviour)",
                http_status=422,
            )

    raw_metrics = payload.get("metrics", [METRIC_CODEC])
    if not isinstance(raw_metrics, list) or not raw_metrics:
        raise ProtocolError("'metrics' must be a non-empty list")
    bad = [m for m in raw_metrics if m not in REQUEST_METRICS]
    if bad:
        raise ProtocolError(
            f"unknown metric(s): {', '.join(map(repr, bad))} "
            f"(known: {', '.join(REQUEST_METRICS)})"
        )
    metrics = tuple(dict.fromkeys(raw_metrics))  # dedupe, keep order

    width = payload.get("width", 32)
    stride = payload.get("stride", 4)
    if not _is_int(width) or not 1 <= width <= 64:
        raise ProtocolError(f"'width' must be an integer in [1, 64], got {width!r}")
    if not _is_int(stride) or stride < 1:
        raise ProtocolError(f"'stride' must be a positive integer, got {stride!r}")

    benchmark = payload.get("benchmark", "")
    if not isinstance(benchmark, str):
        raise ProtocolError("'benchmark' must be a string")

    trace = payload.get("trace")
    digest = payload.get("trace_digest")
    if (trace is None) == (digest is None):
        raise ProtocolError(
            "request needs exactly one of 'trace' (inline) or 'trace_digest'"
        )
    addresses: Optional[Tuple[int, ...]] = None
    sels: Optional[Tuple[int, ...]] = None
    if trace is not None:
        if not isinstance(trace, Mapping):
            raise ProtocolError("'trace' must be an object")
        addresses, sels = _parse_addresses(trace, width)
    else:
        if not isinstance(digest, str) or len(digest) != 64:
            raise ProtocolError(
                "'trace_digest' must be a 64-hex-character sha256"
            )
        digest = digest.lower()

    return EvalRequest(
        codecs=codecs,
        metrics=metrics,
        width=width,
        stride=stride,
        benchmark=benchmark,
        trace_digest=digest,
        addresses=addresses,
        sels=sels,
    )


def request_key(request: EvalRequest) -> str:
    """The job identity: sha256 over the canonical digest-based request.

    Requires ``trace_digest`` (the service registers inline traces into
    its corpus first).  The display label is excluded — see the module
    docstring.
    """
    if request.trace_digest is None:
        raise ValueError("request_key needs a digest-resolved request")
    canonical = json.dumps(
        {
            "schema_version": SCHEMA_VERSION,
            "trace_digest": request.trace_digest,
            "width": request.width,
            "stride": request.stride,
            "codecs": [
                {"name": spec.name, "params": dict(spec.params)}
                for spec in request.codecs
            ],
            "metrics": sorted(request.metrics),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# ComparisonRow <-> JSON payload (full fidelity, deterministic)
# ---------------------------------------------------------------------------


def row_to_payload(row: ComparisonRow) -> Dict[str, Any]:
    """Serialize a row losslessly (floats round-trip exactly via JSON)."""
    return {
        "benchmark": row.benchmark,
        "length": row.length,
        "in_sequence": row.in_sequence,
        "binary_transitions": row.binary_transitions,
        "results": [
            {
                "name": result.name,
                "transitions": result.transitions,
                "savings": result.savings,
                "report": report_to_payload(result.report),
            }
            for result in row.results
        ],
    }


def row_from_payload(
    payload: Mapping[str, Any], benchmark: Optional[str] = None
) -> ComparisonRow:
    """Rebuild the exact :class:`ComparisonRow` a service job computed.

    ``benchmark`` overlays the client's own display label — the served
    payload carries the label of whichever request computed the row,
    which may be another tenant's name for the same stream.
    """
    results: List[CodecResult] = []
    for entry in payload["results"]:
        results.append(
            CodecResult(
                name=entry["name"],
                transitions=entry["transitions"],
                savings=entry["savings"],
                report=report_from_payload(entry["report"]),
            )
        )
    return ComparisonRow(
        benchmark=(
            benchmark if benchmark is not None else payload["benchmark"]
        ),
        length=payload["length"],
        in_sequence=payload["in_sequence"],
        binary_transitions=payload["binary_transitions"],
        results=tuple(results),
    )


def make_codecs(request: EvalRequest) -> List[Any]:
    """Build the live codecs a request names (raises :class:`ProtocolError`
    on unknown names or bad params)."""
    from repro.core.registry import available_codecs, make_codec

    built = []
    for spec in request.codecs:
        if spec.name not in available_codecs():
            raise ProtocolError(
                f"unknown codec {spec.name!r} "
                f"(see GET /v1/codecs for the roster)",
                http_status=422,
            )
        try:
            built.append(
                make_codec(spec.name, request.width, **dict(spec.params))
            )
        except (TypeError, ValueError) as error:
            raise ProtocolError(
                f"cannot build codec {spec.name!r}: {error}", http_status=422
            ) from error
    return built
