"""HTTP/1.1 codec: head parsing, body framing, NDJSON, responses."""

from __future__ import annotations

import asyncio
import json
from urllib.parse import parse_qsl, quote, unquote, urlencode

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gateway import HttpError
from repro.gateway.http import (
    MAX_HEADER_BYTES,
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


def _head_of_size(size: int) -> bytes:
    """A GET head of exactly ``size`` bytes, terminator included."""
    prefix = b"GET / HTTP/1.1\r\nx: "
    return prefix + b"a" * (size - len(prefix) - 4) + b"\r\n\r\n"


def test_head_of_exactly_the_cap_parses():
    raw = _head_of_size(MAX_HEADER_BYTES)
    assert len(raw) == MAX_HEADER_BYTES
    head = run(parse(raw))
    framing = len(b"GET / HTTP/1.1\r\nx: \r\n\r\n")
    assert head.headers["x"] == "a" * (MAX_HEADER_BYTES - framing)


def test_head_one_byte_over_the_cap_is_431():
    with pytest.raises(HttpError) as error:
        run(parse(_head_of_size(MAX_HEADER_BYTES + 1)))
    assert error.value.status == 431
    assert str(MAX_HEADER_BYTES) in str(error.value)


def test_head_over_the_stream_limit_is_431():
    # Below the head cap but past the reader's own limit: readuntil
    # raises LimitOverrunError instead of returning the head.
    async def scenario():
        reader = asyncio.StreamReader(limit=1024)
        reader.feed_data(_head_of_size(2048))
        reader.feed_eof()
        return await read_head(reader)

    with pytest.raises(HttpError) as error:
        run(scenario())
    assert error.value.status == 431
    assert "stream limit" in str(error.value)


#: Request-line bytes: anything but the CR and LF that end the line.
_LINE_BYTES = st.binary(max_size=24).map(
    lambda raw: raw.replace(b"\r", b"").replace(b"\n", b"")
)
_METHODS = st.one_of(
    st.sampled_from(["GET", "POST", "HEAD", "PUT", "DELETE", "BREW", "get"]),
    _LINE_BYTES.map(lambda raw: raw[:6].decode("latin-1")),
)
_VERSIONS = st.one_of(
    st.sampled_from(["HTTP/1.1", "HTTP/1.0", "HTTP/2", "http/1.1", ""]),
    _LINE_BYTES.map(lambda raw: raw[:9].decode("latin-1")),
)


@settings(max_examples=300, deadline=None)
@given(_METHODS, _LINE_BYTES, _VERSIONS)
def test_request_lines_parse_or_raise_http_error(method, target, version):
    raw = (
        method.encode("latin-1") + b" " + target + b" "
        + version.encode("latin-1") + b"\r\n\r\n"
    )
    try:
        head = run(parse(raw))
    except HttpError as error:
        assert error.status in (400, 405, 431)
        return
    assert head.method == method
    assert head.version == version
    assert head.path == unquote(target.decode("ascii").partition("?")[0])


@settings(max_examples=200, deadline=None)
@given(
    st.text(max_size=12),
    st.dictionaries(st.text(min_size=1, max_size=4), st.text(max_size=4),
                    max_size=3),
)
def test_percent_encoded_targets_decode_to_their_path(path, query):
    target = "/" + quote(path, safe="/")
    query_string = urlencode(query)
    if query_string:
        target += "?" + query_string
    head = run(parse(f"GET {target} HTTP/1.1\r\n\r\n".encode("ascii")))
    assert head.path == unquote("/" + quote(path, safe="/")) == "/" + path
    assert head.query == dict(parse_qsl(query_string))
    for key, value in query.items():
        if value:
            assert head.query[key] == value


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


@pytest.mark.parametrize(
    "length",
    [b"nan", b"+5", b"0_5", b"-5", b"0x5", b"5 5", b"\xb2", b"9" * 5000],
    ids=["nan", "plus", "underscore", "minus", "hex", "two-numbers",
         "superscript", "past-int-digit-limit"],
)
def test_bad_content_length_is_400(length):
    """``int()`` takes ``+5`` and ``0_5``; RFC 9112 allows only digits."""
    data = b"POST / HTTP/1.1\r\ncontent-length: " + length + b"\r\n\r\nhello"
    with pytest.raises(HttpError) as error:
        run(body_of(data))
    assert error.value.status == 400


@pytest.mark.parametrize("second", [b"2", b"5"], ids=["differ", "equal"])
def test_repeated_content_length_is_400(second):
    """A second Content-Length is a 400, equal to the first or not.

    Framing by the last copy read 2 bytes of a 5-byte body and left
    ``llo`` on the connection as the start of the next request.
    """
    data = (
        b"POST / HTTP/1.1\r\ncontent-length: 5\r\n"
        b"Content-Length: " + second + b"\r\n\r\nhello"
    )
    with pytest.raises(HttpError) as error:
        run(body_of(data))
    assert error.value.status == 400


@pytest.mark.parametrize("first", [b"gzip", b"identity", b"chunked"])
def test_repeated_transfer_encoding_is_400(first):
    """A second Transfer-Encoding is a 400, whatever the first one says.

    Keeping the last copy framed ``gzip`` then ``chunked`` as a plain
    chunked body, a coding the gateway cannot undo, and dropped an
    ``identity`` another parser may frame by.
    """
    data = (
        b"POST / HTTP/1.1\r\ntransfer-encoding: " + first + b"\r\n"
        b"Transfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n"
    )
    with pytest.raises(HttpError) as error:
        run(body_of(data))
    assert error.value.status == 400


@pytest.mark.parametrize(
    "data",
    [
        b"POST / HTTP/1.1\r\nContent-Length : 5\r\n\r\nhello",
        b"POST / HTTP/1.1\r\nX-Probe: 1\r\n Content-Length: 2\r\n\r\nhello",
        b"POST / HTTP/1.1\r\n: x\r\ncontent-length: 5\r\n\r\nhello",
        b"POST / HTTP/1.1\r\nContent-Length: 3\r\n"
        b"Transfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
        b"POST / HTTP/1.1\r\nX-Probe: 1\nContent-Length: 2\r\n\r\nhello",
        b"POST / HTTP/1.1\r\nX-Probe: 1\x00\r\ncontent-length: 5\r\n\r\nhello",
    ],
    ids=["space-before-colon", "obs-fold", "empty-name", "length-and-chunked",
         "bare-lf-in-value", "nul-in-value"],
)
def test_malformed_header_field_is_400(data):
    """RFC 9112 §5.1, §5.2 and §6.1; RFC 9110 §5.5 for field values.

    Each head reads one way here and another way to a parser that strips
    the name, unfolds the line, splits on a bare LF, or frames by the
    other header.
    """
    with pytest.raises(HttpError) as error:
        run(parse(data))
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
        # int(size, 16) takes the rest; RFC 9112 allows only hex digits.
        b"0x5\r\n[1,2]\r\n0\r\n\r\n",
        b"+5\r\n[1,2]\r\n0\r\n\r\n",
        b"0_5\r\n[1,2]\r\n0\r\n\r\n",
        b" 5\r\n[1,2]\r\n0\r\n\r\n",
        b"5\r\n[1,2]\r\n-0\r\n\r\n",
        b"5\r\n[1,2]\r\n0x0\r\n\r\n",
    ],
    ids=["negative-size", "missing-crlf", "overlong-size-line", "hex-prefix",
         "plus", "underscore", "leading-space", "last-minus",
         "last-hex-prefix"],
)
def test_malformed_chunk_is_400(read, framing):
    with pytest.raises(HttpError) as error:
        run(read(CHUNKED_HEAD + framing))
    assert error.value.status == 400


@st.composite
def chunked_framings(draw):
    """A chunked body from drawn size lines and payloads.

    Returns ``(raw, expected, rejected)``: ``expected`` is the decoded
    body when the framing is well formed, else ``None``; ``rejected`` says
    the first size line is not bare hex digits, so no reader may accept
    the body.
    """
    raw = b""
    payloads = []
    well_formed = True
    rejected = False
    for index in range(draw(st.integers(0, 3))):
        payload = draw(st.binary(max_size=24))
        size = draw(st.one_of(st.just(len(payload)), st.integers(-40, 40)))
        sign = "-" if size < 0 else draw(st.sampled_from(["", "+", "-"]))
        digits = "%x" % abs(size)
        if draw(st.booleans()):
            digits = digits.upper()
        # int(size, 16) takes a 0x prefix and _ separators; RFC 9112 does not.
        form = draw(st.sampled_from(["", "0x", "_"]))
        if form == "0x":
            digits = "0x" + digits
        elif form == "_":
            digits = "0_" + digits
        extension = draw(st.sampled_from(["", ";x", ";name=value", " ; q"]))
        terminator = draw(st.sampled_from([b"\r\n", b"", b"XY", b"\n"]))
        raw += f"{sign}{digits}{extension}\r\n".encode("ascii")
        raw += payload + terminator
        payloads.append(payload)
        bare = sign == "" and form == ""
        rejected |= index == 0 and not bare
        well_formed &= (
            bare and 0 < size == len(payload) and terminator == b"\r\n"
        )
    if draw(st.booleans()):
        raw += b"0\r\n\r\n"
    else:
        well_formed = False
    expected = b"".join(payloads)
    if not well_formed or len(expected) > 48:
        expected = None
    return raw, expected, rejected


@settings(max_examples=200, deadline=None)
@given(chunked_framings())
def test_chunk_framing_decodes_or_raises_http_error(framing):
    raw, expected, rejected = framing
    try:
        decoded = run(body_of(CHUNKED_HEAD + raw, max_body=48))
    except HttpError:
        decoded = None
    if expected is not None:
        assert decoded == expected
    if rejected:
        assert decoded is None
    try:
        items = run(ndjson_of(CHUNKED_HEAD + raw, max_body=48))
    except HttpError:
        items = None
    if rejected:
        assert items is None


# ----------------------------------------------------------------------
# Header-field syntax
# ----------------------------------------------------------------------

#: Field names: tokens, then an empty name, inner whitespace, a character
#: outside the token set, and non-ASCII bytes.
FIELD_NAMES = ["X-Probe", "Host", "accept", "a.b~c!", "", "X Probe", "X@Probe",
               "X-\xfc"]
TOKEN_NAMES = frozenset(FIELD_NAMES[:4])
#: The fields that frame a body, each in three cases.
FRAMING_NAMES = ["Transfer-Encoding", "transfer-encoding", "TRANSFER-ENCODING",
                 "Content-Length", "content-length", "CONTENT-LENGTH"]


@st.composite
def header_heads(draw):
    """A GET head with drawn header lines.

    Each line draws its field name (a framing field half the time, so
    heads repeat one often), then whether it is well-formed; a line that
    need not be draws a fold prefix (obs-fold), whitespace before the
    colon, the colon itself, and a CR, LF or NUL inside the value.  Every
    line draws whitespace around its value.  Returns ``(raw, expected)``:
    ``expected`` is the header dict of the strict reading, or ``None``
    when a line breaks the syntax or the head has more than one framing
    field, and must be refused.
    """
    raw = b"GET / HTTP/1.1\r\n"
    expected = {}
    strict = True
    framing = 0
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            name = draw(st.sampled_from(FRAMING_NAMES))
            framing += 1
        else:
            name = draw(st.sampled_from(FIELD_NAMES))
        fold = before = bad = ""
        colon = ":"
        after = draw(st.sampled_from(["", " ", "\t", " \t "]))
        value = draw(st.text(alphabet="abc 1-;=", max_size=8))
        if not draw(st.booleans()):
            fold = draw(st.sampled_from(["", "", " ", "\t"]))
            before = draw(st.sampled_from(["", "", " ", "\t"]))
            colon = draw(st.sampled_from([":", ":", ""]))
            bad = draw(st.sampled_from(["", "", "", "\r", "\n", "\x00"]))
        if bad:
            cut = draw(st.integers(0, len(value)))
            value = value[:cut] + bad + "v" + value[cut:]
        trailing = draw(st.sampled_from(["", " ", "\t"]))
        # An empty line would end the head early; it has no colon anyway.
        line = f"{fold}{name}{before}{colon}{after}{value}{trailing}" or "-"
        raw += line.encode("latin-1") + b"\r\n"
        strict &= (
            not fold and not before and colon == ":" and not bad
            and (name in TOKEN_NAMES or name in FRAMING_NAMES)
        )
        expected[name.lower()] = f"{after}{value}{trailing}".strip(" \t")
    strict &= framing <= 1
    return raw + b"\r\n", expected if strict else None


@settings(max_examples=300, deadline=None)
@given(header_heads())
def test_header_fields_parse_strictly_or_raise_http_error(drawn):
    raw, expected = drawn
    try:
        head = run(parse(raw))
    except HttpError as error:
        assert expected is None, (raw, error)
        assert error.status == 400
        return
    assert expected is not None, raw
    assert head.headers == expected


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
