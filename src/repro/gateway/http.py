"""Minimal HTTP/1.1 codec over asyncio streams — stdlib only.

The gateway speaks just enough HTTP/1.1 for a production-shaped serving
tier without adding a dependency: request-line + header parsing with hard
size limits, bodies by ``Content-Length`` or ``chunked`` transfer coding,
keep-alive connection reuse, JSON responses, and chunked NDJSON response
streaming for the delta-stream endpoint.

Parsing errors surface as :class:`HttpError` carrying the status the
connection handler should answer with (400/405/411/413/431/...), so the
server loop stays a straight pipeline: read head → read body → route →
respond.  A clean EOF before the first request byte is *not* an error —
:func:`read_head` returns ``None`` and the keep-alive loop ends quietly.
"""

from __future__ import annotations

import asyncio
import json
from typing import (
    Any,
    AsyncIterator,
    Dict,
    Iterable,
    Optional,
    Tuple,
)
from urllib.parse import parse_qsl, unquote

from repro.exceptions import GatewayError

__all__ = [
    "HttpError",
    "HttpRequest",
    "read_head",
    "read_body",
    "iter_ndjson",
    "response_bytes",
    "json_response",
    "NdjsonStreamWriter",
    "REASONS",
]

#: Reason phrases for every status the gateway emits.
REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    411: "Length Required",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Hard cap on the request head (request line + headers).
MAX_HEADER_BYTES = 16384

#: Default cap on request bodies; the server can lower or raise it.
DEFAULT_MAX_BODY = 8 * 1024 * 1024

_SUPPORTED_METHODS = frozenset(("GET", "POST", "HEAD", "PUT", "DELETE"))


class HttpError(GatewayError):
    """A malformed or unserviceable request, with the HTTP status to send."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class HttpRequest:
    """One parsed request head (the body is read separately, if at all)."""

    __slots__ = ("method", "path", "query", "headers", "version")

    def __init__(
        self,
        method: str,
        path: str,
        query: Dict[str, str],
        headers: Dict[str, str],
        version: str,
    ) -> None:
        self.method = method
        self.path = path
        self.query = query
        self.headers = headers
        self.version = version

    @property
    def keep_alive(self) -> bool:
        """HTTP/1.1 defaults to keep-alive; 1.0 defaults to close."""
        connection = self.headers.get("connection", "").lower()
        if self.version == "HTTP/1.0":
            return connection == "keep-alive"
        return connection != "close"

    @property
    def content_length(self) -> Optional[int]:
        raw = self.headers.get("content-length")
        if raw is None:
            return None
        try:
            length = int(raw)
        except ValueError:
            raise HttpError(400, f"invalid Content-Length {raw!r}") from None
        if length < 0:
            raise HttpError(400, f"negative Content-Length {raw!r}")
        return length

    @property
    def chunked(self) -> bool:
        coding = self.headers.get("transfer-encoding", "").lower().strip()
        if not coding:
            return False
        if coding != "chunked":
            raise HttpError(400, f"unsupported transfer coding {coding!r}")
        return True

    def __repr__(self) -> str:
        return f"HttpRequest({self.method} {self.path})"


async def read_head(
    reader: asyncio.StreamReader,
    max_header_bytes: int = MAX_HEADER_BYTES,
) -> Optional[HttpRequest]:
    """Read and parse one request head, or ``None`` on clean EOF.

    A connection closed between requests (no bytes pending) is the normal
    end of a keep-alive session; a connection dying mid-head is a 400.
    """
    try:
        raw = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None
        raise HttpError(400, "connection closed inside the request head")
    except asyncio.LimitOverrunError:
        raise HttpError(431, "request head exceeds the stream limit")
    if len(raw) > max_header_bytes:
        raise HttpError(431, f"request head over {max_header_bytes} bytes")

    lines = raw[:-4].split(b"\r\n")
    try:
        request_line = lines[0].decode("ascii")
    except UnicodeDecodeError:
        raise HttpError(400, "request line is not ASCII")
    parts = request_line.split(" ")
    if len(parts) != 3:
        raise HttpError(400, f"malformed request line {request_line!r}")
    method, target, version = parts
    if method not in _SUPPORTED_METHODS:
        raise HttpError(405, f"unsupported method {method!r}")
    if version not in ("HTTP/1.1", "HTTP/1.0"):
        raise HttpError(400, f"unsupported HTTP version {version!r}")

    path, _, query_string = target.partition("?")
    query = {key: value for key, value in parse_qsl(query_string)}

    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(b":")
        if not sep:
            raise HttpError(400, f"malformed header line {line!r}")
        try:
            headers[name.decode("ascii").strip().lower()] = (
                value.decode("latin-1").strip()
            )
        except UnicodeDecodeError:
            raise HttpError(400, "header name is not ASCII")

    return HttpRequest(method, unquote(path), query, headers, version)


async def _read_chunk(
    reader: asyncio.StreamReader, used: int, max_body: int
) -> bytes:
    """One chunk of a ``chunked`` body; ``b""`` ends it (no trailer support).

    ``used`` counts the body bytes the caller already holds against
    ``max_body``.
    """
    try:
        size_line = await reader.readuntil(b"\r\n")
    except asyncio.IncompleteReadError:
        raise HttpError(400, "connection closed inside a chunk header")
    except asyncio.LimitOverrunError:
        raise HttpError(400, "chunk header over the stream limit")
    try:
        size = int(size_line.split(b";", 1)[0].strip(), 16)
    except ValueError:
        raise HttpError(400, f"malformed chunk size {size_line!r}")
    if size < 0:
        raise HttpError(400, "negative chunk size")
    if size == 0:
        # Consume the (empty) trailer section.
        try:
            while (await reader.readuntil(b"\r\n")) != b"\r\n":
                pass
        except asyncio.IncompleteReadError:
            raise HttpError(400, "connection closed inside the trailer")
        except asyncio.LimitOverrunError:
            raise HttpError(400, "trailer line over the stream limit")
        return b""
    if used + size > max_body:
        raise HttpError(413, f"chunked body over {max_body} bytes")
    try:
        chunk = await reader.readexactly(size + 2)
    except asyncio.IncompleteReadError:
        raise HttpError(400, "connection closed inside a chunk")
    if chunk[-2:] != b"\r\n":
        raise HttpError(400, "chunk missing its CRLF terminator")
    return chunk[:-2]


async def _read_chunked(
    reader: asyncio.StreamReader, max_body: int
) -> bytes:
    """Decode a whole ``chunked`` request body."""
    chunks = []
    total = 0
    while True:
        chunk = await _read_chunk(reader, total, max_body)
        if not chunk:
            return b"".join(chunks)
        total += len(chunk)
        chunks.append(chunk)


async def read_body(
    reader: asyncio.StreamReader,
    head: HttpRequest,
    max_body: int = DEFAULT_MAX_BODY,
) -> bytes:
    """Read the request body per the head's framing headers.

    Bodies need explicit framing: a POST with neither ``Content-Length``
    nor ``chunked`` is answered 411 (the gateway never reads to EOF, which
    would break keep-alive).
    """
    if head.chunked:
        return await _read_chunked(reader, max_body)
    length = head.content_length
    if length is None:
        if head.method in ("GET", "HEAD", "DELETE"):
            return b""
        raise HttpError(411, "request body requires Content-Length or chunked")
    if length > max_body:
        raise HttpError(413, f"body of {length} bytes over the {max_body} cap")
    try:
        return await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        raise HttpError(400, "connection closed inside the request body")


async def iter_ndjson(
    reader: asyncio.StreamReader,
    head: HttpRequest,
    max_body: int = DEFAULT_MAX_BODY,
) -> AsyncIterator[Any]:
    """Yield parsed JSON values from an NDJSON request body, incrementally.

    The streaming endpoint's request reader: ops are processed as they
    arrive instead of after the whole body (which, for a long-lived
    delta stream, may never end).  Supports both framings; with
    ``chunked`` the iterator is genuinely incremental across chunks.
    """
    buffer = b""
    line_number = 0

    def parse(line: bytes) -> Any:
        nonlocal line_number
        line_number += 1
        try:
            return json.loads(line)
        except (ValueError, RecursionError) as error:
            raise HttpError(
                400, f"stream line {line_number}: invalid JSON: {error}"
            )

    if head.chunked:
        while True:
            chunk = await _read_chunk(reader, len(buffer), max_body)
            if not chunk:
                break
            buffer += chunk
            while b"\n" in buffer:
                line, buffer = buffer.split(b"\n", 1)
                if line.strip():
                    yield parse(line)
    else:
        length = head.content_length
        if length is None:
            raise HttpError(
                411, "NDJSON stream requires Content-Length or chunked"
            )
        if length > max_body:
            raise HttpError(413, f"body of {length} bytes over the cap")
        remaining = length
        while remaining > 0:
            chunk = await reader.read(min(65536, remaining))
            if not chunk:
                raise HttpError(400, "connection closed inside the stream")
            remaining -= len(chunk)
            buffer += chunk
            while b"\n" in buffer:
                line, buffer = buffer.split(b"\n", 1)
                if line.strip():
                    yield parse(line)
    if buffer.strip():
        yield parse(buffer)


def response_bytes(
    status: int,
    body: bytes = b"",
    content_type: str = "application/json",
    keep_alive: bool = True,
    extra_headers: Iterable[Tuple[str, str]] = (),
) -> bytes:
    """One complete HTTP/1.1 response, ready for a single ``write``."""
    reason = REASONS.get(status, "Unknown")
    parts = [
        f"HTTP/1.1 {status} {reason}\r\n",
        f"content-length: {len(body)}\r\n",
        f"content-type: {content_type}\r\n",
    ]
    if not keep_alive:
        parts.append("connection: close\r\n")
    for name, value in extra_headers:
        parts.append(f"{name}: {value}\r\n")
    parts.append("\r\n")
    return "".join(parts).encode("ascii") + body


def json_response(
    status: int,
    payload: Any,
    keep_alive: bool = True,
    extra_headers: Iterable[Tuple[str, str]] = (),
) -> bytes:
    """A JSON-encoded :func:`response_bytes` (sorted keys, one line)."""
    body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
    return response_bytes(
        status, body, keep_alive=keep_alive, extra_headers=extra_headers
    )


class NdjsonStreamWriter:
    """Chunked NDJSON response streaming for the delta-stream endpoint.

    Each :meth:`send` emits one JSON line as its own HTTP chunk, so the
    client sees every prediction as soon as the engine produced it —
    headers go out on the first line (or at :meth:`finish` for an empty
    stream), which lets the handler still answer a plain error response
    if the stream fails before producing anything.
    """

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self._writer = writer
        self._started = False
        self.lines = 0

    @property
    def started(self) -> bool:
        return self._started

    async def _start(self) -> None:
        self._writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"content-type: application/x-ndjson\r\n"
            b"transfer-encoding: chunked\r\n\r\n"
        )
        self._started = True

    async def send(self, payload: Any) -> None:
        if not self._started:
            await self._start()
        line = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        self._writer.write(b"%x\r\n" % len(line) + line + b"\r\n")
        self.lines += 1
        await self._writer.drain()

    async def finish(self) -> None:
        if not self._started:
            await self._start()
        self._writer.write(b"0\r\n\r\n")
        await self._writer.drain()
