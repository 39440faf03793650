"""Facts and databases over relational schemas (paper, Section 2).

A *fact* is an expression ``R(a1, ..., ak)`` where ``R`` is a k-ary relation
symbol and the ``ai`` are universe elements (any hashable Python values).  A
*database* is a finite set of facts; its *domain* is the set of elements
occurring in its facts.

:class:`Database` is immutable and hashable, indexes its facts by relation
name for fast query evaluation, and knows about entity schemas (the paper's
``η(D)`` set of entities).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.data.schema import ENTITY_SYMBOL, EntitySchema, RelationSymbol, Schema
from repro.exceptions import DatabaseError, SchemaError

__all__ = ["Fact", "Database", "DatabaseIndex", "DatabaseBuilder"]

Element = Any


@dataclass(frozen=True, order=True)
class Fact:
    """A single fact ``relation(arguments)``.

    ``arguments`` is stored as a tuple; elements may be any hashable values
    (strings and integers in practice).
    """

    relation: str
    arguments: Tuple[Element, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "arguments", tuple(self.arguments))
        if not self.relation:
            raise DatabaseError("fact relation name must be nonempty")
        if len(self.arguments) < 1:
            raise DatabaseError(
                f"fact over {self.relation!r} must have at least one argument"
            )

    @property
    def arity(self) -> int:
        return len(self.arguments)

    @property
    def elements(self) -> FrozenSet[Element]:
        return frozenset(self.arguments)

    def __str__(self) -> str:
        inner = ", ".join(repr(a) if isinstance(a, str) else str(a)
                          for a in self.arguments)
        return f"{self.relation}({inner})"


class DatabaseIndex:
    """Immutable positional-occurrence index of a :class:`Database`.

    Built lazily, once per database instance, and shared by every
    homomorphism check against that database (see
    :mod:`repro.cq.homomorphism` and :mod:`repro.cq.engine`):

    - ``positions`` maps ``(relation, position)`` to the frozenset of
      elements occurring at that argument position of some fact;
    - ``facts_by_relation`` maps each relation name to its fact tuple
      (the database's own per-relation index, re-exposed here so engine
      code needs only the index object);
    - ``facts_at`` maps ``(relation, position, element)`` to the tuple of
      facts with that element at that position — the hash buckets that let
      a :class:`~repro.cq.homomorphism.HomomorphismProgram` enumerate
      only the target facts compatible with an already-bound element,
      instead of scanning the whole relation;
    - ``sorted_domain`` is ``sorted(dom(D), key=repr)``, computed once so
      repeated structured evaluations stop re-sorting the domain;
    - :meth:`bitsets` packs the whole index into numpy bit-matrices for
      the vectorized backend, lazily and at most once per database.
    """

    __slots__ = (
        "positions",
        "facts_by_relation",
        "facts_at",
        "sorted_domain",
        "_bitsets",
    )

    def __init__(self, database: "Database") -> None:
        occurrence: Dict[Tuple[str, int], set] = {}
        buckets: Dict[Tuple[str, int, Element], List[Fact]] = {}
        for name in database.relation_names:
            for fact in database.facts_of(name):
                for position, element in enumerate(fact.arguments):
                    occurrence.setdefault((name, position), set()).add(
                        element
                    )
                    buckets.setdefault((name, position, element), []).append(
                        fact
                    )
        self.positions: Mapping[Tuple[str, int], FrozenSet[Element]] = {
            key: frozenset(elements) for key, elements in occurrence.items()
        }
        self.facts_by_relation: Mapping[str, Tuple[Fact, ...]] = {
            name: database.facts_of(name) for name in database.relation_names
        }
        self.facts_at: Mapping[Tuple[str, int, Element], Tuple[Fact, ...]] = {
            key: tuple(facts) for key, facts in buckets.items()
        }
        self.sorted_domain: Tuple[Element, ...] = tuple(
            sorted(database.domain, key=repr)
        )
        self._bitsets: Optional[Any] = None

    def occurrences(self, relation: str, position: int) -> FrozenSet[Element]:
        """Elements occurring at ``position`` of ``relation`` (possibly empty)."""
        return self.positions.get((relation, position), frozenset())

    def bitsets(self) -> Any:
        """The :class:`~repro.data.bitset.BitsetIndex`, built on first use.

        Like the index itself the encoding never invalidates: databases
        are immutable.
        """
        if self._bitsets is None:
            from repro.data.bitset import BitsetIndex

            self._bitsets = BitsetIndex(self)
        return self._bitsets


class Database:
    """An immutable finite set of facts with per-relation indexes.

    Parameters
    ----------
    facts:
        The facts of the database.
    schema:
        Optional schema; when omitted, the schema is inferred from the facts.
        When provided, every fact must fit it (known symbol, right arity).
        Passing an :class:`~repro.data.schema.EntitySchema` makes the database
        entity-aware (see :meth:`entities`).
    """

    __slots__ = (
        "_facts",
        "_schema",
        "_by_relation",
        "_domain",
        "_hash",
        "_index",
        "_digest",
        # The engine's table of canonical instances holds databases weakly.
        "__weakref__",
    )

    def __init__(
        self,
        facts: Iterable[Fact],
        schema: Optional[Schema] = None,
    ) -> None:
        fact_set = frozenset(facts)
        by_relation: Dict[str, List[Fact]] = {}
        for fact in sorted(fact_set, key=repr):
            by_relation.setdefault(fact.relation, []).append(fact)

        if schema is None:
            schema = Schema(
                RelationSymbol(name, facts_for[0].arity)
                for name, facts_for in by_relation.items()
            )
        for name, facts_for in by_relation.items():
            try:
                arity = schema.arity_of(name)
            except SchemaError as exc:
                raise DatabaseError(str(exc)) from exc
            for fact in facts_for:
                if fact.arity != arity:
                    raise DatabaseError(
                        f"fact {fact} does not match arity {arity} of "
                        f"relation {name!r}"
                    )

        domain = frozenset(
            element for fact in fact_set for element in fact.arguments
        )
        self._facts = fact_set
        self._schema = schema
        self._by_relation: Mapping[str, Tuple[Fact, ...]] = {
            name: tuple(facts_for) for name, facts_for in by_relation.items()
        }
        self._domain = domain
        self._hash: Optional[int] = None
        self._index: Optional[DatabaseIndex] = None
        self._digest: Optional[str] = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_tuples(
        cls,
        tuples: Mapping[str, Iterable[Sequence[Element]]],
        schema: Optional[Schema] = None,
    ) -> "Database":
        """Build a database from ``{relation: [tuple, ...]}``.

        One-element tuples may be given as bare elements for convenience
        *only* when wrapped in a 1-sequence; strings are treated as atomic
        elements, never iterated.
        """
        facts = []
        for relation, rows in tuples.items():
            for row in rows:
                if isinstance(row, (str, bytes)) or not isinstance(
                    row, Sequence
                ):
                    row = (row,)
                facts.append(Fact(relation, tuple(row)))
        return cls(facts, schema=schema)

    def builder(self) -> "DatabaseBuilder":
        """A mutable builder pre-populated with this database's facts."""
        builder = DatabaseBuilder(schema=self._schema)
        for fact in self._facts:
            builder.add_fact(fact)
        return builder

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def facts(self) -> FrozenSet[Fact]:
        return self._facts

    @property
    def domain(self) -> FrozenSet[Element]:
        """``dom(D)``: the elements occurring in the facts of the database."""
        return self._domain

    @property
    def relation_names(self) -> Tuple[str, ...]:
        """Names of relations with at least one fact, sorted."""
        return tuple(sorted(self._by_relation))

    def facts_of(self, relation: str) -> Tuple[Fact, ...]:
        """All facts over the given relation (empty tuple if none)."""
        return self._by_relation.get(relation, ())

    @property
    def index(self) -> DatabaseIndex:
        """The positional-occurrence index, built on first access.

        The database is immutable, so the index never invalidates; derived
        databases (:meth:`union`, :meth:`restrict_to_relations`, ...) are new
        objects and build their own.
        """
        if self._index is None:
            self._index = DatabaseIndex(self)
        return self._index

    def tuples_of(self, relation: str) -> Tuple[Tuple[Element, ...], ...]:
        """Argument tuples of all facts over ``relation``."""
        return tuple(fact.arguments for fact in self.facts_of(relation))

    def __contains__(self, fact: object) -> bool:
        return fact in self._facts

    def __iter__(self) -> Iterator[Fact]:
        return iter(sorted(self._facts, key=repr))

    def __len__(self) -> int:
        return len(self._facts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Database):
            return NotImplemented
        return self._facts == other._facts

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._facts)
        return self._hash

    def digest(self) -> str:
        """``sha256:<hex>`` content hash of the facts, cached per instance.

        Consistent with ``__eq__``: equal databases share a digest.  This
        is the database half of the warm-state store's memo keys
        (:mod:`repro.store`) and uses the same canonical-dump scheme as
        model-artifact checksums (:mod:`repro.data.digest`).
        """
        if self._digest is None:
            from repro.data.digest import database_digest

            self._digest = database_digest(self)
        return self._digest

    def __repr__(self) -> str:
        preview = ", ".join(str(fact) for fact in list(self)[:6])
        suffix = ", ..." if len(self) > 6 else ""
        return f"{type(self).__name__}({{{preview}{suffix}}})"

    # ------------------------------------------------------------------
    # Pickling (shard dispatch ships databases to worker processes)
    # ------------------------------------------------------------------

    def __getstate__(self) -> Tuple[FrozenSet[Fact], Schema]:
        """Pickle only the facts and schema, never the lazy caches.

        The positional index and memoized hash can be large and are cheap
        to rebuild, so shard payloads (:mod:`repro.runtime`) stay lean and
        each worker builds its own index on first use.
        """
        return (self._facts, self._schema)

    def __setstate__(self, state: Tuple[FrozenSet[Fact], Schema]) -> None:
        facts, schema = state
        self.__init__(facts, schema=schema)  # type: ignore[misc]

    # ------------------------------------------------------------------
    # Entity support (Section 3)
    # ------------------------------------------------------------------

    @property
    def entity_symbol(self) -> str:
        """The entity relation name (``eta`` unless the schema overrides it)."""
        if isinstance(self._schema, EntitySchema):
            return self._schema.entity_symbol
        return ENTITY_SYMBOL

    def entities(self) -> FrozenSet[Element]:
        """``η(D)``: elements ``a`` with ``η(a)`` a fact of the database."""
        return frozenset(
            fact.arguments[0] for fact in self.facts_of(self.entity_symbol)
        )

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------

    def union(self, other: "Database") -> "Database":
        """Set union of facts (schemas are merged; arities must agree)."""
        return Database(
            self._facts | other._facts,
            schema=self._schema.union(other._schema),
        )

    def restrict_to_relations(self, names: Iterable[str]) -> "Database":
        """Keep only facts over the given relation names."""
        wanted = set(names)
        return Database(
            (fact for fact in self._facts if fact.relation in wanted),
            schema=self._schema.restrict(wanted),
        )

    def restrict_to_elements(self, elements: Iterable[Element]) -> "Database":
        """Keep only facts all of whose arguments lie in ``elements``."""
        allowed = set(elements)
        return Database(
            (
                fact
                for fact in self._facts
                if all(a in allowed for a in fact.arguments)
            ),
            schema=self._schema,
        )

    def rename_elements(
        self, mapping: Mapping[Element, Element]
    ) -> "Database":
        """Apply an element renaming; unmapped elements are kept as-is."""
        return Database(
            (
                Fact(
                    fact.relation,
                    tuple(mapping.get(a, a) for a in fact.arguments),
                )
                for fact in self._facts
            ),
            schema=self._schema,
        )

    def with_schema(self, schema: Schema) -> "Database":
        """The same facts, revalidated under a (usually richer) schema."""
        return Database(self._facts, schema=schema)


class DatabaseBuilder:
    """A mutable accumulator of facts, finalized into a :class:`Database`.

    Useful in generators that add facts incrementally::

        builder = DatabaseBuilder()
        builder.add("edge", 1, 2).add("edge", 2, 3)
        builder.add_entity("a")
        database = builder.build()

    By default, validation happens at :meth:`build` (when the
    :class:`Database` is constructed), so an arity-mismatched fact added
    early surfaces late, far from the call that caused it.  Pass
    ``strict=True`` to validate eagerly at every insert: against the
    schema when one was given, and against the arities inferred from
    earlier inserts otherwise.
    """

    def __init__(
        self, schema: Optional[Schema] = None, strict: bool = False
    ) -> None:
        self._facts: List[Fact] = []
        self._schema = schema
        self._strict = strict
        self._seen_arities: Dict[str, int] = {}

    def _validate(self, fact: Fact) -> None:
        if self._schema is not None:
            try:
                arity = self._schema.arity_of(fact.relation)
            except SchemaError:
                raise DatabaseError(
                    f"strict builder: relation {fact.relation!r} is not "
                    f"declared by the schema (declares "
                    f"{', '.join(self._schema.names) or 'nothing'})"
                ) from None
        else:
            arity = self._seen_arities.setdefault(fact.relation, fact.arity)
        if fact.arity != arity:
            raise DatabaseError(
                f"strict builder: fact {fact} has arity {fact.arity}, but "
                f"relation {fact.relation!r} has arity {arity}"
            )

    def add(self, relation: str, *arguments: Element) -> "DatabaseBuilder":
        return self.add_fact(Fact(relation, tuple(arguments)))

    def add_fact(self, fact: Fact) -> "DatabaseBuilder":
        if self._strict:
            self._validate(fact)
        self._facts.append(fact)
        return self

    def add_entity(
        self, element: Element, entity_symbol: str = ENTITY_SYMBOL
    ) -> "DatabaseBuilder":
        """Declare ``element`` an entity by adding the fact ``η(element)``."""
        return self.add(entity_symbol, element)

    def extend(self, facts: Iterable[Fact]) -> "DatabaseBuilder":
        for fact in facts:
            self.add_fact(fact)
        return self

    def __len__(self) -> int:
        return len(self._facts)

    def build(self, schema: Optional[Schema] = None) -> Database:
        return Database(self._facts, schema=schema or self._schema)
