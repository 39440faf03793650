"""Evolving databases: an immutable snapshot plus a replayable delta log.

:class:`EvolvingDatabase` is the streaming subsystem's state holder.  It
keeps the current fact set as one mutable set per relation, so applying a
:class:`~repro.stream.delta.Delta` costs O(|delta|) set operations —
untouched relations are never copied, iterated, or re-indexed (structural
sharing).  :meth:`~EvolvingDatabase.apply` returns the *effective* delta,
whose ``touched_relations`` tell consumers which derived state (cached
query answers, feature columns) a delta can invalidate.

:meth:`materialize` produces the plain immutable
:class:`~repro.data.database.Database` for the current version — by
construction equal to rebuilding from scratch by replaying the log over the
base snapshot (the differential property suite asserts exactly that).  The
materialized database is cached per version, so repeated reads between
deltas are free and engine caches keyed on it stay coherent.
"""

from __future__ import annotations

from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.data.database import Database, Fact
from repro.data.schema import ENTITY_SYMBOL, EntitySchema, Schema
from repro.exceptions import SchemaError, StreamError
from repro.stream.delta import Delta

__all__ = ["EvolvingDatabase"]

Element = Any


class EvolvingDatabase:
    """A database that evolves fact-by-fact under a validated delta log.

    Parameters
    ----------
    base:
        The initial immutable snapshot (version 0).
    schema:
        Optional explicit schema.  Defaults to the base's schema — note a
        schema *inferred* from facts only declares relations that have at
        least one fact, so streams that introduce brand-new relations
        should pass a schema declaring them up front.  The schema is fixed
        for the lifetime of the evolving database.
    """

    __slots__ = (
        "_schema",
        "_relations",
        "_log",
        "_version",
        "_materialized",
        "_fact_count",
    )

    def __init__(self, base: Database, schema: Optional[Schema] = None) -> None:
        if schema is None:
            schema = base.schema
        else:
            base = base.with_schema(schema)  # revalidate under the override
        self._schema = schema
        self._relations: Dict[str, Set[Fact]] = {
            name: set(base.facts_of(name)) for name in base.relation_names
        }
        self._log: List[Delta] = []
        self._version = 0
        self._materialized: Optional[Database] = base
        self._fact_count = len(base)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def version(self) -> int:
        """Number of deltas applied so far (0 for the pristine base)."""
        return self._version

    @property
    def delta_log(self) -> Tuple[Delta, ...]:
        """The applied deltas, oldest first."""
        return tuple(self._log)

    def facts_of(self, relation: str) -> FrozenSet[Fact]:
        """The current facts over ``relation`` (possibly empty)."""
        return frozenset(self._relations.get(relation, ()))

    @property
    def relation_names(self) -> Tuple[str, ...]:
        """Names of relations with at least one current fact, sorted."""
        return tuple(
            sorted(name for name, facts in self._relations.items() if facts)
        )

    def __len__(self) -> int:
        return self._fact_count

    def __iter__(self) -> Iterator[Fact]:
        for name in self.relation_names:
            yield from sorted(self._relations[name], key=repr)

    def __contains__(self, fact: object) -> bool:
        if not isinstance(fact, Fact):
            return False
        return fact in self._relations.get(fact.relation, ())

    @property
    def entity_symbol(self) -> str:
        if isinstance(self._schema, EntitySchema):
            return self._schema.entity_symbol
        return ENTITY_SYMBOL

    def entities(self) -> FrozenSet[Element]:
        """``η(D)`` of the current version."""
        return frozenset(
            fact.arguments[0] for fact in self._relations.get(
                self.entity_symbol, ()
            )
        )

    def __repr__(self) -> str:
        return (
            f"EvolvingDatabase(version={self._version}, "
            f"facts={self._fact_count}, "
            f"relations={len(self.relation_names)})"
        )

    # ------------------------------------------------------------------
    # Evolution
    # ------------------------------------------------------------------

    def _validate(self, delta: Delta) -> None:
        """Eager schema validation: every fact must fit the fixed schema."""
        for fact in delta.adds + delta.removes:
            try:
                arity = self._schema.arity_of(fact.relation)
            except SchemaError:
                raise StreamError(
                    f"delta mentions relation {fact.relation!r} absent from "
                    "the evolving database's schema; construct the "
                    "EvolvingDatabase with a schema declaring it"
                ) from None
            if fact.arity != arity:
                raise StreamError(
                    f"delta fact {fact} does not match arity {arity} of "
                    f"relation {fact.relation!r}"
                )

    def apply(self, delta: Delta) -> Delta:
        """Apply one delta in O(|delta|); returns the *effective* delta.

        Application is set-semantic (``(F - removes) | adds``): adding a
        present fact or removing an absent one is a no-op.  The returned
        delta contains exactly the changes that took effect — callers that
        invalidate downstream state can use its (possibly smaller)
        ``touched_relations`` instead of the request's.

        Validation happens *before* any mutation, so a rejected delta
        leaves the database untouched.  Generation counters advance for
        every relation the effective delta touches; an entirely
        ineffective delta still appends to the log (the stream happened)
        but bumps nothing.
        """
        self._validate(delta)
        effective_removes: List[Fact] = []
        effective_adds: List[Fact] = []
        for fact in delta.removes:
            facts = self._relations.get(fact.relation)
            if facts is not None and fact in facts:
                facts.discard(fact)
                effective_removes.append(fact)
                if not facts:
                    del self._relations[fact.relation]
        for fact in delta.adds:
            facts = self._relations.setdefault(fact.relation, set())
            if fact not in facts:
                facts.add(fact)
                effective_adds.append(fact)
        effective = Delta(adds=effective_adds, removes=effective_removes)
        self._fact_count += len(effective_adds) - len(effective_removes)
        self._log.append(delta)
        self._version += 1
        if not effective.is_empty:
            self._materialized = None
        return effective

    def apply_all(self, deltas: Iterable[Delta]) -> Delta:
        """Apply a sequence of deltas; returns the composed effective delta."""
        net = Delta()
        for delta in deltas:
            net = net.then(self.apply(delta))
        return net

    # ------------------------------------------------------------------
    # Materialization
    # ------------------------------------------------------------------

    def materialize(self) -> Database:
        """The current version as an immutable :class:`Database`.

        Equal (by :class:`Database` value equality) to replaying the delta
        log over the base snapshot from scratch; cached per version, so the
        returned object is stable between deltas — engine caches keyed on
        it (and migrated across deltas by
        :meth:`~repro.cq.engine.EvaluationEngine.apply_delta`) stay valid.
        """
        if self._materialized is None:
            self._materialized = Database(
                (
                    fact
                    for facts in self._relations.values()
                    for fact in facts
                ),
                schema=self._schema,
            )
        return self._materialized
