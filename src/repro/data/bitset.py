"""Packed-``uint64`` bitset encodings of a :class:`DatabaseIndex`.

This is the data layer of the vectorized evaluation backend
(:mod:`repro.cq.vectorized`, DESIGN.md §3.12).  A database's domain is
mapped to dense integer ids ``0..n-1`` (in ``sorted_domain`` order, so the
encoding is deterministic), and every per-position occurrence set of the
:class:`~repro.data.database.DatabaseIndex` becomes a packed ``uint64``
bit-row: bit ``i`` of the row is set iff element ``i`` occurs at that
``(relation, position)``.  Candidate-set intersection — the inner loop of
every homomorphism check — is then one ``np.bitwise_and`` over whole words
instead of a Python set intersection, and the ``facts_at`` buckets are
replaced by dense id matrices (one ``(n_facts, arity)`` table per
relation) that batched joins and semijoins read column-wise.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Mapping, Tuple

import numpy as np

from repro.exceptions import DatabaseError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.data.database import DatabaseIndex

__all__ = [
    "WORD_BITS",
    "pack_ids",
    "unpack_ids",
    "bit_test",
    "BitsetIndex",
]

Element = Any

#: Bits per packed word; bit ``i`` of word ``w`` covers element ``64*w + i``.
WORD_BITS = 64


def pack_ids(ids: Any, n_bits: int) -> Any:
    """Pack a sequence of element ids into a ``uint64`` bitset row.

    ``ids`` may be any integer sequence (list or ndarray) with values in
    ``[0, n_bits)``; the result has ``ceil(n_bits / 64)`` words.  Inverse
    of :func:`unpack_ids`.
    """
    n_words = (n_bits + WORD_BITS - 1) // WORD_BITS
    words = np.zeros(n_words, dtype=np.uint64)
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size:
        if ids.min() < 0 or ids.max() >= n_bits:
            raise DatabaseError(
                f"bitset ids must lie in [0, {n_bits}), got "
                f"[{ids.min()}, {ids.max()}]"
            )
        np.bitwise_or.at(
            words,
            ids // WORD_BITS,
            np.uint64(1) << (ids % WORD_BITS).astype(np.uint64),
        )
    return words


def unpack_ids(words: Any, n_bits: int) -> Any:
    """The sorted ``int64`` id array whose :func:`pack_ids` image is ``words``."""
    if n_bits == 0:
        return np.zeros(0, dtype=np.int64)
    bits = np.unpackbits(
        np.ascontiguousarray(words, dtype="<u8").view(np.uint8),
        bitorder="little",
    )[:n_bits]
    return np.nonzero(bits)[0].astype(np.int64)


def bit_test(words: Any, ids: Any) -> Any:
    """Boolean mask: for each id, whether its bit is set in ``words``."""
    ids = np.asarray(ids, dtype=np.int64)
    return (
        (words[ids // WORD_BITS] >> (ids % WORD_BITS).astype(np.uint64))
        & np.uint64(1)
    ) != 0


class BitsetIndex:
    """The numpy encoding of one :class:`~repro.data.database.DatabaseIndex`.

    Built lazily (via :meth:`DatabaseIndex.bitsets`) once per database and
    shared by every vectorized evaluation against it, exactly like the
    plain index is shared by every backtracking search:

    - ``elements`` / ``element_id`` — the dense id assignment, in
      ``sorted_domain`` order (deterministic across processes);
    - ``occurrence_bits`` — per ``(relation, position)``, the packed
      bitset of occurring element ids (the vectorized ``positions``);
    - ``fact_tables`` — per relation, an ``(n_facts, arity)`` ``int64``
      matrix of element ids, row order matching ``facts_by_relation``
      (the vectorized ``facts_at``: semijoins test whole columns against
      candidate bitsets instead of probing hash buckets per element).
    """

    __slots__ = (
        "elements",
        "element_id",
        "n_elements",
        "n_words",
        "occurrence_bits",
        "fact_tables",
    )

    def __init__(self, index: "DatabaseIndex") -> None:
        self.elements: Tuple[Element, ...] = index.sorted_domain
        self.element_id: Dict[Element, int] = {
            element: i for i, element in enumerate(self.elements)
        }
        self.n_elements = len(self.elements)
        self.n_words = (self.n_elements + WORD_BITS - 1) // WORD_BITS

        occurrence: Dict[Tuple[str, int], Any] = {}
        for key, occupants in index.positions.items():
            ids = np.fromiter(
                (self.element_id[element] for element in occupants),
                dtype=np.int64,
                count=len(occupants),
            )
            occurrence[key] = pack_ids(ids, self.n_elements)
        self.occurrence_bits: Mapping[Tuple[str, int], Any] = occurrence

        tables: Dict[str, Any] = {}
        for name, facts in index.facts_by_relation.items():
            if not facts:
                continue
            arity = facts[0].arity
            table = np.empty((len(facts), arity), dtype=np.int64)
            for row, fact in enumerate(facts):
                for column, element in enumerate(fact.arguments):
                    table[row, column] = self.element_id[element]
            tables[name] = table
        self.fact_tables: Mapping[str, Any] = tables

    def __repr__(self) -> str:
        return (
            f"BitsetIndex(elements={self.n_elements}, "
            f"relations={len(self.fact_tables)})"
        )
