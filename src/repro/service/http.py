"""Minimal stdlib HTTP/1.1 transport for the evaluation service.

Deliberately small: one request per connection (``Connection: close``),
JSON bodies only, no chunked encoding, no TLS.  The transport knows
nothing about routes — it parses a request into ``(method, path, body)``
and hands it to an async handler that returns
``(status, payload, extra_headers)``.  Anything the handler raises
becomes a 500 with a JSON error body; malformed requests never reach
the handler.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Awaitable, Callable, Dict, Optional, Tuple

#: status, JSON payload, extra headers.
Response = Tuple[int, Dict[str, Any], Dict[str, str]]
Handler = Callable[[str, str, bytes], Awaitable[Response]]

#: Request bodies past this size are rejected up front (413).
MAX_BODY_BYTES = 64 * 1024 * 1024

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    500: "Internal Server Error",
}


class PayloadTooLarge(ValueError):
    """A request declared a body past :data:`MAX_BODY_BYTES` (answered 413)."""


def json_response(
    status: int,
    payload: Dict[str, Any],
    headers: Optional[Dict[str, str]] = None,
) -> Response:
    return status, payload, dict(headers or {})


def _encode(status: int, payload: Dict[str, Any], headers: Dict[str, str]) -> bytes:
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    reason = _REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    lines.extend(f"{name}: {value}" for name, value in sorted(headers.items()))
    return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii") + body


async def _read_request(
    reader: asyncio.StreamReader,
) -> Tuple[str, str, bytes]:
    """Parse one request; raises ValueError on anything malformed, and
    :class:`PayloadTooLarge` before reading an oversize body."""
    request_line = await reader.readline()
    if not request_line:
        raise ConnectionError("client closed before sending a request")
    parts = request_line.decode("ascii", "replace").split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise ValueError(f"malformed request line: {request_line!r}")
    method, target = parts[0].upper(), parts[1]

    content_length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            try:
                content_length = int(value.strip())
            except ValueError as error:
                raise ValueError(f"bad Content-Length: {value!r}") from error
    if content_length > MAX_BODY_BYTES:
        raise PayloadTooLarge(
            f"body of {content_length} bytes exceeds the limit"
        )
    body = (
        await reader.readexactly(content_length) if content_length else b""
    )
    return method, target, body


async def serve_connection(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    handler: Handler,
) -> None:
    """One connection: read a request, dispatch, respond, close."""
    try:
        try:
            method, target, body = await _read_request(reader)
        except ConnectionError:
            return
        except (ValueError, asyncio.IncompleteReadError) as error:
            status = 413 if isinstance(error, PayloadTooLarge) else 400
            writer.write(_encode(status, {"error": str(error)}, {}))
            await writer.drain()
            return
        try:
            status, payload, headers = await handler(method, target, body)
        except Exception as error:  # noqa: BLE001 - the transport firewall
            status, payload, headers = 500, {"error": str(error)}, {}
        writer.write(_encode(status, payload, headers))
        await writer.drain()
    finally:
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def start_http_server(
    handler: Handler, host: str, port: int
) -> asyncio.AbstractServer:
    """Bind and return the listening server (caller owns its lifetime)."""

    async def on_connection(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        await serve_connection(reader, writer, handler)

    return await asyncio.start_server(on_connection, host=host, port=port)
