"""Canonical content digests shared by artifacts and the warm-state store.

One hashing discipline for the whole library: a payload is reduced to its
*canonical dump* (JSON with sorted keys, compact separators, ASCII-only)
and digested with SHA-256.  :mod:`repro.serve.artifact` checksums model
files this way, and :mod:`repro.store` keys every memoized answer and
model version by the same scheme — so an artifact checksum and
a store key are directly comparable, and equal content always collides
onto one entry.

Elements of a database may be arbitrary hashable values, and the textual
codec in :mod:`repro.data.io` cannot distinguish ``1`` from ``"1"``.
Digests therefore encode elements as *type-tagged tokens* (``["i", 1]`` vs
``["s", "1"]``): two databases get the same digest iff they are equal
under :meth:`~repro.data.database.Database.__eq__`, never because two
distinct elements print alike.  Values outside the JSON-native types are
tagged by ``repr`` — deterministic for digesting, though such elements are
not round-trippable and the store's answer codec refuses to persist them.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, List

__all__ = [
    "canonical_dump",
    "checksum",
    "digest_hex",
    "element_token",
    "database_digest",
    "cq_digest",
]


def canonical_dump(payload: Any) -> str:
    """The canonical byte form checksums are computed over."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    )


def digest_hex(payload: Any) -> str:
    """Bare SHA-256 hex of the canonical dump (store entry names)."""
    return hashlib.sha256(canonical_dump(payload).encode("ascii")).hexdigest()


def checksum(payload: Any) -> str:
    """``sha256:<hex>`` over the canonical dump (artifact/envelope form)."""
    return f"sha256:{digest_hex(payload)}"


def element_token(element: Any) -> List[Any]:
    """A JSON-safe, type-tagged token distinguishing ``1`` from ``"1"``."""
    if isinstance(element, bool):
        return ["b", element]
    if isinstance(element, int):
        return ["i", element]
    if isinstance(element, str):
        return ["s", element]
    return ["r", repr(element)]


def database_digest(database: Any) -> str:
    """``sha256:<hex>`` content hash of a database's facts.

    Consistent with :meth:`~repro.data.database.Database.__eq__` (facts
    are the identity; the schema is derivable metadata): equal databases
    share a digest, unequal ones differ up to SHA-256 collision.  Called
    through :meth:`~repro.data.database.Database.digest`, which caches the
    result on the instance.
    """
    facts = [
        [fact.relation, [element_token(a) for a in fact.arguments]]
        for fact in database
    ]
    return checksum({"kind": "database", "facts": facts})


def cq_digest(query: Any) -> str:
    """``sha256:<hex>`` content hash of a conjunctive query.

    Hashes the parser's textual rule form, which is canonical for a CQ
    (atoms are sorted at construction), so a query and its
    ``parse_cq(str(q))`` round-trip share a digest.
    """
    return checksum({"kind": "cq", "rule": str(query)})
