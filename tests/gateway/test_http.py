"""HTTP/1.1 codec: head parsing, body framing, NDJSON, responses."""

from __future__ import annotations

import asyncio
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gateway import HttpError
from repro.gateway.http import (
    NdjsonStreamWriter,
    iter_ndjson,
    json_response,
    read_body,
    read_head,
    response_bytes,
)


def feed(data: bytes) -> asyncio.StreamReader:
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    reader.feed_eof()
    return reader


def run(coroutine):
    return asyncio.run(coroutine)


async def parse(data: bytes):
    return await read_head(feed(data))


# ----------------------------------------------------------------------
# Heads
# ----------------------------------------------------------------------


def test_parse_simple_get():
    head = run(parse(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"))
    assert head is not None
    assert head.method == "GET"
    assert head.path == "/healthz"
    assert head.headers["host"] == "x"
    assert head.keep_alive  # 1.1 default


def test_query_parameters_and_percent_decoding():
    head = run(parse(b"GET /v1/predict?model=m&version=2 HTTP/1.1\r\n\r\n"))
    assert head.query == {"model": "m", "version": "2"}
    head = run(parse(b"GET /a%20b HTTP/1.1\r\n\r\n"))
    assert head.path == "/a b"


def test_clean_eof_returns_none():
    assert run(parse(b"")) is None


def test_mid_head_eof_is_400():
    with pytest.raises(HttpError) as error:
        run(parse(b"GET /x HTT"))
    assert error.value.status == 400


def test_unsupported_method_is_405():
    with pytest.raises(HttpError) as error:
        run(parse(b"BREW /pot HTTP/1.1\r\n\r\n"))
    assert error.value.status == 405


def test_oversized_head_is_431():
    big = b"GET / HTTP/1.1\r\nx: " + b"a" * 20000 + b"\r\n\r\n"
    with pytest.raises(HttpError) as error:
        run(parse(big))
    assert error.value.status == 431


def test_keep_alive_negotiation():
    head = run(parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n"))
    assert not head.keep_alive
    head = run(parse(b"GET / HTTP/1.0\r\n\r\n"))
    assert not head.keep_alive
    head = run(parse(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"))
    assert head.keep_alive


# ----------------------------------------------------------------------
# Bodies
# ----------------------------------------------------------------------


async def body_of(data: bytes, max_body: int = 1 << 20) -> bytes:
    reader = feed(data)
    head = await read_head(reader)
    assert head is not None
    return await read_body(reader, head, max_body)


def test_content_length_body():
    data = b"POST / HTTP/1.1\r\ncontent-length: 5\r\n\r\nhello"
    assert run(body_of(data)) == b"hello"


def test_chunked_body():
    data = (
        b"POST / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n"
        b"5\r\nhello\r\n6\r\n world\r\n0\r\n\r\n"
    )
    assert run(body_of(data)) == b"hello world"


def test_post_without_framing_is_411():
    with pytest.raises(HttpError) as error:
        run(body_of(b"POST / HTTP/1.1\r\n\r\n"))
    assert error.value.status == 411


def test_oversized_body_is_413():
    data = b"POST / HTTP/1.1\r\ncontent-length: 100\r\n\r\n" + b"x" * 100
    with pytest.raises(HttpError) as error:
        run(body_of(data, max_body=10))
    assert error.value.status == 413


def test_bad_content_length_is_400():
    with pytest.raises(HttpError) as error:
        run(body_of(b"POST / HTTP/1.1\r\ncontent-length: nan\r\n\r\n"))
    assert error.value.status == 400


def test_get_without_body_reads_empty():
    assert run(body_of(b"GET / HTTP/1.1\r\n\r\n")) == b""


# ----------------------------------------------------------------------
# NDJSON request streaming
# ----------------------------------------------------------------------


async def ndjson_of(data: bytes, max_body: int = 1 << 20):
    reader = feed(data)
    head = await read_head(reader)
    assert head is not None
    return [item async for item in iter_ndjson(reader, head, max_body)]


def test_ndjson_content_length_framing():
    payload = b'{"op": "init"}\n{"op": "predict", "id": 1}\n'
    data = (
        b"POST /v1/stream HTTP/1.1\r\ncontent-length: %d\r\n\r\n"
        % len(payload)
    ) + payload
    assert run(ndjson_of(data)) == [
        {"op": "init"},
        {"op": "predict", "id": 1},
    ]


def test_ndjson_chunked_framing_splits_lines_across_chunks():
    # One JSON line split across two chunks, plus a final unterminated line.
    part1 = b'{"op": "in'
    part2 = b'it"}\n{"op": "predict"}'
    data = (
        b"POST /v1/stream HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n"
        + b"%x\r\n%s\r\n" % (len(part1), part1)
        + b"%x\r\n%s\r\n" % (len(part2), part2)
        + b"0\r\n\r\n"
    )
    assert run(ndjson_of(data)) == [{"op": "init"}, {"op": "predict"}]


@pytest.mark.parametrize(
    "payload",
    [b"not json\n", b"\xff\n", b"[" * 100000 + b"\n"],
    ids=["not-json", "not-utf8", "too-deep"],
)
def test_ndjson_invalid_line_is_400(payload):
    data = (
        b"POST /v1/stream HTTP/1.1\r\ncontent-length: %d\r\n\r\n"
        % len(payload)
    ) + payload
    with pytest.raises(HttpError) as error:
        run(ndjson_of(data))
    assert error.value.status == 400


# ----------------------------------------------------------------------
# Chunk framing (one reader behind read_body and iter_ndjson)
# ----------------------------------------------------------------------

CHUNKED_HEAD = (
    b"POST /v1/stream HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n"
)


@pytest.mark.parametrize("read", [body_of, ndjson_of])
@pytest.mark.parametrize(
    "framing",
    [
        b"-5\r\nhello\r\n0\r\n\r\n",  # negative size
        b'e\r\n{"op": "init"}XY0\r\n\r\n',  # no CRLF after the data
        b"1" * 70000 + b"\r\n",  # size line past the stream limit
    ],
    ids=["negative-size", "missing-crlf", "overlong-size-line"],
)
def test_malformed_chunk_is_400(read, framing):
    with pytest.raises(HttpError) as error:
        run(read(CHUNKED_HEAD + framing))
    assert error.value.status == 400


@st.composite
def chunked_framings(draw):
    """A chunked body from drawn size lines and payloads.

    Returns ``(raw, expected)``: ``expected`` is the decoded body when the
    framing is well formed, else ``None``.
    """
    raw = b""
    payloads = []
    well_formed = True
    for _ in range(draw(st.integers(0, 3))):
        payload = draw(st.binary(max_size=24))
        size = draw(st.one_of(st.just(len(payload)), st.integers(-40, 40)))
        sign = "-" if size < 0 else draw(st.sampled_from(["", "+"]))
        digits = "%x" % abs(size)
        if draw(st.booleans()):
            digits = digits.upper()
        extension = draw(st.sampled_from(["", ";x", ";name=value", " ; q"]))
        terminator = draw(st.sampled_from([b"\r\n", b"", b"XY", b"\n"]))
        raw += f"{sign}{digits}{extension}\r\n".encode("ascii")
        raw += payload + terminator
        payloads.append(payload)
        well_formed &= (
            sign == "" and 0 < size == len(payload) and terminator == b"\r\n"
        )
    if draw(st.booleans()):
        raw += b"0\r\n\r\n"
    else:
        well_formed = False
    expected = b"".join(payloads)
    if not well_formed or len(expected) > 48:
        expected = None
    return raw, expected


@settings(max_examples=200, deadline=None)
@given(chunked_framings())
def test_chunk_framing_decodes_or_raises_http_error(framing):
    raw, expected = framing
    try:
        decoded = run(body_of(CHUNKED_HEAD + raw, max_body=48))
    except HttpError:
        decoded = None
    if expected is not None:
        assert decoded == expected
    try:
        run(ndjson_of(CHUNKED_HEAD + raw, max_body=48))
    except HttpError:
        pass


# ----------------------------------------------------------------------
# Responses
# ----------------------------------------------------------------------


def test_response_bytes_shape():
    raw = response_bytes(200, b"ok", content_type="text/plain")
    text = raw.decode("ascii")
    assert text.startswith("HTTP/1.1 200 OK\r\n")
    assert "content-length: 2\r\n" in text
    assert text.endswith("\r\n\r\nok")


def test_json_response_round_trips():
    raw = json_response(429, {"error": "busy"}, keep_alive=False,
                        extra_headers=[("retry-after", "1")])
    text = raw.decode("utf-8")
    assert text.startswith("HTTP/1.1 429 Too Many Requests\r\n")
    assert "connection: close\r\n" in text
    assert "retry-after: 1\r\n" in text
    body = text.split("\r\n\r\n", 1)[1]
    assert json.loads(body) == {"error": "busy"}


def test_ndjson_stream_writer_chunks():
    async def scenario():
        reader = asyncio.StreamReader()

        class FakeWriter:
            def __init__(self):
                self.data = b""

            def write(self, data):
                self.data += data

            async def drain(self):
                pass

        writer = FakeWriter()
        out = NdjsonStreamWriter(writer)
        assert not out.started
        await out.send({"id": 1})
        await out.send({"id": 2})
        await out.finish()
        return writer.data, out.lines

    data, lines = asyncio.run(scenario())
    text = data.decode("utf-8")
    assert text.startswith("HTTP/1.1 200 OK\r\n")
    assert "transfer-encoding: chunked" in text
    assert '{"id": 1}' in text and '{"id": 2}' in text
    assert text.endswith("0\r\n\r\n")
    assert lines == 2
