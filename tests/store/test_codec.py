"""Answer codec: round-trips and strict failure modes."""

from __future__ import annotations

import pytest

from repro.store import (
    CodecError,
    UnencodableAnswer,
    decode_answer,
    encode_answer,
)


def test_answer_round_trip():
    answer = frozenset({("a", 1), ("b", 2), (True,), ()})
    # Mixed arity is unusual but the codec must not conflate rows.
    assert decode_answer(encode_answer(answer)) == answer


def test_answer_rows_are_sorted_deterministically():
    one = encode_answer(frozenset({("b",), ("a",)}))
    two = encode_answer(frozenset({("a",), ("b",)}))
    assert one == two
    assert one["rows"] == [[["s", "a"]], [["s", "b"]]]


def test_answer_distinguishes_int_str_bool():
    answer = frozenset({(1,), ("1",), (True,)})
    assert decode_answer(encode_answer(answer)) == answer


def test_exotic_elements_refuse_to_encode():
    with pytest.raises(UnencodableAnswer):
        encode_answer(frozenset({(frozenset(),)}))
    with pytest.raises(UnencodableAnswer):
        encode_answer(frozenset({((1, 2),)}))


@pytest.mark.parametrize(
    "payload",
    [
        "rows",
        {"rows": "nope"},
        {"rows": ["nope"]},
        {"rows": [[["x", 1]]]},
        {"rows": [[["i", "1"]]]},
        {"rows": [[["b", 1]]]},
        {"rows": [[["s", 1]]]},
        {"rows": [[["i", 1, 2]]]},
    ],
)
def test_malformed_answer_payloads_are_codec_errors(payload):
    with pytest.raises(CodecError):
        decode_answer(payload)
