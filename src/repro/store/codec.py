"""The answer codec between the engine and store payloads (plain JSON).

Answers (kind ``"answer"``) are memoized ``q(D)`` results, keyed by
``(query digest, database digest)``.  Rows serialize as type-tagged
element tokens (``["i", 1]`` vs ``["s", "1"]`` — the digest module's
discipline), and only JSON-native elements round-trip; an answer over
exotic elements raises :class:`UnencodableAnswer` and is simply not
persisted (correctness is unaffected — the entry is recomputed).

The decoder is *strict in effect, lenient in failure mode*: a payload
that does not decode (hand-edited file that still checksums, an older
codec shape) raises :class:`CodecError`, which the warm facade treats as
a miss-and-recompute, never as data.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from repro.exceptions import StoreError

__all__ = [
    "ANSWER_FORMAT",
    "CodecError",
    "UnencodableAnswer",
    "encode_answer",
    "decode_answer",
]

#: Version of the answer payload shape; part of the memo key.
ANSWER_FORMAT = 1


class CodecError(StoreError):
    """A store payload does not decode to the expected engine object."""


class UnencodableAnswer(StoreError):
    """An answer holds elements outside the JSON-native token types."""


# ----------------------------------------------------------------------
# Element tokens (int/str/bool only)
# ----------------------------------------------------------------------


def _encode_element(element: Any) -> List[Any]:
    if isinstance(element, bool):
        return ["b", element]
    if isinstance(element, int):
        return ["i", element]
    if isinstance(element, str):
        return ["s", element]
    raise UnencodableAnswer(
        f"element {element!r} of type {type(element).__name__} has no "
        "JSON round-trip; answer not persisted"
    )


def _decode_element(token: Any) -> Any:
    if (
        not isinstance(token, list)
        or len(token) != 2
        or token[0] not in ("b", "i", "s")
    ):
        raise CodecError(f"bad element token {token!r}")
    tag, value = token
    if tag == "b" and isinstance(value, bool):
        return value
    if tag == "i" and isinstance(value, int) and not isinstance(value, bool):
        return value
    if tag == "s" and isinstance(value, str):
        return value
    raise CodecError(f"element token {token!r} tag/value mismatch")


# ----------------------------------------------------------------------
# Answers
# ----------------------------------------------------------------------


def encode_answer(answer: FrozenSet[Tuple[Any, ...]]) -> Dict[str, Any]:
    """Serialize a memoized ``q(D)`` answer set (rows of element tuples).

    Raises :class:`UnencodableAnswer` when any element has no JSON
    round-trip; the caller then skips persistence.
    """
    rows = sorted(
        [[_encode_element(element) for element in row] for row in answer]
    )
    return {"rows": rows}


def decode_answer(payload: Any) -> Optional[FrozenSet[Tuple[Any, ...]]]:
    """Rebuild an answer set; :class:`CodecError` on a malformed payload."""
    if not isinstance(payload, dict) or not isinstance(
        payload.get("rows"), list
    ):
        raise CodecError("answer payload must hold a rows list")
    rows = []
    for row in payload["rows"]:
        if not isinstance(row, list):
            raise CodecError(f"answer row {row!r} is not a list")
        rows.append(tuple(_decode_element(token) for token in row))
    return frozenset(rows)
