"""The engine-facing warm-state facade over a :class:`ContentStore`.

:class:`WarmStore` is what an :class:`~repro.cq.engine.EvaluationEngine`
(and the serving/gateway tiers) actually hold: it owns the key scheme,
runs the codecs, keeps hit/miss accounting, and shields the hot path from
the disk with a bounded *negative cache* — a key that just missed is not
re-stat'ed on every subsequent lookup of the same query/database pair
(training loops probe the same misses thousands of times).

Key scheme (all digests are ``sha256:<hex>`` canonical content hashes):
answer entries are keyed ``{"query": q.digest(), "database": D.digest(),
"format": ANSWER_FORMAT}``, with the payload also recording the query's
mentioned relations, so :meth:`invalidate_database` can drop exactly the
entries a relation-scoped delta could have changed.

Invalidation discipline: keys are content-addressed, so a delta *never*
makes a stored answer wrong — the new database has a new digest and
simply misses.  :meth:`invalidate_database` exists for hygiene (the
retired digest's touched entries are dead weight) and mirrors
:meth:`~repro.cq.engine.EvaluationEngine.apply_delta`'s relation-scoped
rule: entries over disjoint relations are kept (still correct *and* still
reachable if the same database content recurs), touched ones are dropped.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Iterable, Optional, Tuple

from repro.cq.query import CQ
from repro.data.database import Database
from repro.exceptions import StoreError
from repro.store.codec import (
    ANSWER_FORMAT,
    CodecError,
    UnencodableAnswer,
    decode_answer,
    encode_answer,
)
from repro.store.content import ContentStore

__all__ = ["WarmStore", "open_store"]

#: Bound on the in-memory negative cache; at the cap it is simply cleared
#: (misses then re-probe the disk once — correctness is unaffected).
_NEGATIVE_CACHE_LIMIT = 65536

ANSWER_KIND = "answer"


class WarmStore:
    """Memoized-answer persistence with engine-shaped accounting."""

    def __init__(self, store: ContentStore) -> None:
        self.store = store
        self.memo_hits = 0
        self.memo_misses = 0
        self.memo_saves = 0
        self.skipped = 0
        self.invalidated = 0
        self._negative: set = set()

    @property
    def path(self) -> str:
        """The store root (what worker initializers re-open it from)."""
        return self.store.root

    # ------------------------------------------------------------------
    # Keys
    # ------------------------------------------------------------------

    @staticmethod
    def answer_key(query: CQ, database: Database) -> Dict[str, Any]:
        return {
            "query": query.digest(),
            "database": database.digest(),
            "format": ANSWER_FORMAT,
        }

    def _negative_key(self, key: Dict[str, Any]) -> str:
        return self.store.key_digest(ANSWER_KIND, key)

    def _remember_miss(self, marker: str) -> None:
        if len(self._negative) >= _NEGATIVE_CACHE_LIMIT:
            self._negative.clear()
        self._negative.add(marker)

    # ------------------------------------------------------------------
    # Memoized answers
    # ------------------------------------------------------------------

    def load_answer(
        self, query: CQ, database: Database
    ) -> Optional[FrozenSet[Tuple[Any, ...]]]:
        """The persisted ``q(D)`` answer set, or ``None`` on a miss."""
        key = self.answer_key(query, database)
        marker = self._negative_key(key)
        if marker in self._negative:
            self.memo_misses += 1
            return None
        payload = self.store.get(ANSWER_KIND, key)
        if payload is None:
            self.memo_misses += 1
            self._remember_miss(marker)
            return None
        try:
            answer = decode_answer(
                payload.get("answer") if isinstance(payload, dict) else None
            )
        except CodecError:
            self.memo_misses += 1
            return None
        self.memo_hits += 1
        return answer

    def save_answer(
        self,
        query: CQ,
        database: Database,
        answer: FrozenSet[Tuple[Any, ...]],
    ) -> None:
        """Persist a ``q(D)`` answer set.

        An answer that does not encode, or whose write fails (a full
        disk), is counted in ``skipped`` instead of raising.
        """
        key = self.answer_key(query, database)
        try:
            encoded = encode_answer(answer)
        except UnencodableAnswer:
            self.skipped += 1
            return
        payload = {
            "answer": encoded,
            "relations": sorted(query.mentioned_relations()),
        }
        try:
            self.store.put(ANSWER_KIND, key, payload)
        except OSError:
            # The caller already holds the answer; a later miss recomputes.
            self.skipped += 1
            return
        self.memo_saves += 1
        self._negative.discard(self._negative_key(key))

    def invalidate_database(
        self, database: Database, touched_relations: Iterable[str]
    ) -> int:
        """Drop answer entries for ``database`` touching any given relation.

        The relation-scoped mirror of
        :meth:`~repro.cq.engine.EvaluationEngine.apply_delta`: entries of
        the retired digest whose query mentions only untouched relations
        stay (still correct, still content-addressed); the rest go.
        Returns the number of dropped entries.
        """
        touched = frozenset(touched_relations)
        digest = database.digest()
        dropped = 0
        for entry_digest, envelope in self.store.scan(ANSWER_KIND):
            key = envelope.get("key")
            if not isinstance(key, dict) or key.get("database") != digest:
                continue
            payload = envelope.get("payload")
            relations = (
                payload.get("relations") if isinstance(payload, dict) else None
            )
            if not isinstance(relations, list) or not touched.isdisjoint(
                relations
            ):
                if self.store.delete(ANSWER_KIND, entry_digest):
                    dropped += 1
        self.invalidated += dropped
        return dropped

    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """JSON-safe accounting (metrics snapshots, CLI ``--metrics``)."""
        merged = dict(self.store.stats())
        merged.update(
            memo_hits=self.memo_hits,
            memo_misses=self.memo_misses,
            memo_saves=self.memo_saves,
            skipped=self.skipped,
            invalidated=self.invalidated,
        )
        return merged

    def __repr__(self) -> str:
        return f"WarmStore(root={self.store.root!r})"


def open_store(target: Any) -> Optional["WarmStore"]:
    """Normalize a ``store=`` knob into a :class:`WarmStore` (or ``None``).

    Accepts ``None`` (no store), a path string, a :class:`ContentStore`,
    or an existing :class:`WarmStore` (returned as-is, so one facade — and
    its accounting — can be shared across an engine, a service, and a
    registry).
    """
    if target is None:
        return None
    if isinstance(target, WarmStore):
        return target
    if isinstance(target, ContentStore):
        return WarmStore(target)
    if isinstance(target, str):
        return WarmStore(ContentStore(target))
    raise StoreError(
        f"store must be a path, ContentStore, or WarmStore; got "
        f"{type(target).__name__}"
    )
