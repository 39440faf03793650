"""Enumeration of the classes ``CQ[m]`` and ``CQ[m, p]`` (paper, Section 4).

``CQ[m]`` is the class of feature queries with at most ``m`` atoms, not
counting the mandatory entity atom ``η(x)``; ``CQ[m, p]`` further restricts
each variable to at most ``p`` occurrences across those atoms.  For a fixed
schema the class is finite up to renaming of existential variables, which is
what makes Prop 4.1's all-features statistic computable.

Both public enumerations run one depth-first search.  It grows atom lists
atom by atom, introducing new variables canonically, and deduplicates the
queries they make through :meth:`repro.cq.query.CQ.canonical_form`
(isomorphism level) or cores + canonical forms (equivalence level).  The
search skips an atom list, and its whole subtree, when it has already
visited an isomorphic list of the same length (the free variable held
fixed): in preorder the earlier list's subtree is finished by then and
mirrors the later one's, so the skipped subtree holds no new query and the
output, order included, is what the unpruned search returns.  Each
visited list's canonical form is computed once: it keys the prune and,
when :func:`~repro.cq.core.core_of` returns the list's query itself,
the deduplication too.

The search also records the refinement order it walks.  Both
enumerations return a :class:`FeaturePool`, a list whose ``parents`` give,
per query, the index of the query of the atom list it grew from (its
core, at the equivalence level), or ``None`` for a query grown from no
query.  Adding an atom can only shrink a query's answers, so a parent's
answers contain its children's on every database; in preorder the parent
comes first.  :meth:`~repro.cq.engine.EvaluationEngine.evaluate_unary_batch`
evaluates each query only on the entities its parent selects.
"""

from __future__ import annotations

from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.cq.core import core_of
from repro.cq.query import CQ
from repro.cq.terms import Atom, Variable
from repro.data.schema import ENTITY_SYMBOL, EntitySchema, Schema
from repro.exceptions import QueryError

__all__ = [
    "FeaturePool",
    "enumerate_feature_queries",
    "enumerate_unary_queries",
    "count_feature_queries",
]


def _argument_tuples(
    arity: int,
    available: Sequence[Variable],
    next_fresh_index: int,
) -> Iterator[Tuple[Variable, ...]]:
    """All argument tuples over available plus canonically-named fresh variables.

    Fresh variables are introduced in index order at their first occurrence
    inside the tuple, which removes renaming duplicates within a single atom.
    """

    known = set(available)

    def extend(
        prefix: List[Variable], fresh_used: int
    ) -> Iterator[Tuple[Variable, ...]]:
        if len(prefix) == arity:
            yield tuple(prefix)
            return
        # Fresh variables already introduced earlier in this atom are
        # reusable in later positions.
        introduced = []
        seen_in_prefix = set()
        for variable in prefix:
            if variable not in known and variable not in seen_in_prefix:
                introduced.append(variable)
                seen_in_prefix.add(variable)
        for variable in list(available) + introduced:
            prefix.append(variable)
            yield from extend(prefix, fresh_used)
            prefix.pop()
        fresh = Variable(f"v{next_fresh_index + fresh_used}")
        prefix.append(fresh)
        yield from extend(prefix, fresh_used + 1)
        prefix.pop()

    yield from extend([], 0)


class FeaturePool(List[CQ]):
    """Enumerated queries, with the refinement order they were grown along.

    ``parents[i]`` is the index of an earlier query whose answers contain
    query ``i``'s on every database, or ``None``.  A slice, a sum or any
    other new list is a plain list: its indices no longer match.
    """

    def __init__(
        self, queries: Iterable[CQ], parents: Iterable[Optional[int]]
    ) -> None:
        super().__init__(queries)
        self.parents: Tuple[Optional[int], ...] = tuple(parents)


def _max_occurrences(atoms: Sequence[Atom]) -> int:
    counts: Dict[Variable, int] = {}
    for atom in atoms:
        for variable in atom.arguments:
            counts[variable] = counts.get(variable, 0) + 1
    return max(counts.values(), default=0)


def _enumerate(
    schema: Schema,
    max_atoms: int,
    max_occurrences: Optional[int],
    free_variable: Variable,
    dedupe: str,
    entity_symbol: Optional[str],
) -> FeaturePool:
    """The depth-first search behind both public enumerations.

    With an ``entity_symbol``, every atom list, the empty one included, is
    the body of the feature query ``CQ.feature(atoms)``.  Without one, a
    nonempty list is a unary CQ when the free variable occurs in it, and
    yields no query otherwise.

    A query's parent is the pool entry of the list it grew from, the one
    atom shorter prefix.  That entry is equivalent (isomorphic, under
    ``dedupe="isomorphism"``) to the prefix, whose atoms the identity maps
    into the longer list with the free variable fixed, so the parent's
    answers contain the child's (Chandra–Merlin).  A list without the
    free variable has no entry, so its children have no parent.
    """
    if max_occurrences is not None and max_occurrences < 1:
        raise QueryError("max_occurrences must be positive when given")
    if dedupe not in ("isomorphism", "equivalence"):
        raise QueryError(f"unknown dedupe mode {dedupe!r}")

    relations = sorted(schema, key=lambda symbol: (symbol.name, symbol.arity))
    results: List[CQ] = []
    parents: List[Optional[int]] = []
    # Each kept query's canonical form, mapped to its index in results.
    seen: Dict[Tuple, int] = {}
    # The canonical forms of the visited atom lists, one set per list
    # length, as repr strings: smaller than the nested tuples.
    visited: List[Set[str]] = [set() for _ in range(max_atoms + 1)]

    def register(
        query: CQ, form: Optional[Tuple], parent: Optional[int]
    ) -> int:
        """Keep ``query`` (its core, at the equivalence level) if new.

        ``form`` is the query's canonical form when already computed; it
        still holds when ``core_of`` returns the query itself.  Returns
        the index of the query's entry, new or earlier.
        """
        if dedupe == "equivalence":
            core = core_of(query)
            if core is not query:
                query, form = core, None
        if form is None:
            form = query.canonical_form()
        index = seen.get(form)
        if index is None:
            index = seen[form] = len(results)
            results.append(query.standardized())
            parents.append(parent)
        return index

    def grow(
        atoms: List[Atom], fresh_count: int, parent: Optional[int]
    ) -> None:
        query: Optional[CQ] = None
        if entity_symbol is not None:
            query = CQ.feature(atoms, free_variable, entity_symbol)
        elif any(free_variable in atom.arguments for atom in atoms):
            query = CQ(atoms, (free_variable,))
        key = query
        if key is None and atoms:
            # A list without the free variable is keyed as a Boolean CQ,
            # whose form never equals that of a list with it.
            key = CQ(atoms, ())
        form: Optional[Tuple] = None
        if key is not None:
            try:
                form = key.canonical_form()
            except QueryError:
                # Over canonical_form's guard on orderings, which only the
                # core of a list must meet: visit it unpruned.
                pass
            else:
                text = repr(form)
                if text in visited[len(atoms)]:
                    return
                visited[len(atoms)].add(text)
        if query is not None:
            parent = register(query, form, parent)
        else:
            parent = None
        if len(atoms) == max_atoms:
            return
        used_variables: List[Variable] = [free_variable]
        for atom in atoms:
            for variable in atom.arguments:
                if variable not in used_variables:
                    used_variables.append(variable)
        for symbol in relations:
            for arguments in _argument_tuples(
                symbol.arity, used_variables, fresh_count
            ):
                candidate = Atom(symbol.name, arguments)
                if candidate in atoms:
                    continue
                atoms.append(candidate)
                if (
                    max_occurrences is None
                    or _max_occurrences(atoms) <= max_occurrences
                ):
                    new_fresh = sum(
                        1
                        for variable in set(arguments)
                        if variable not in used_variables
                    )
                    grow(atoms, fresh_count + new_fresh, parent)
                atoms.pop()

    grow([], 0, None)
    return FeaturePool(results, parents)


def enumerate_feature_queries(
    schema: Schema,
    max_atoms: int,
    max_occurrences: Optional[int] = None,
    free_variable: Variable = Variable("x"),
    entity_symbol: Optional[str] = None,
    dedupe: str = "equivalence",
) -> FeaturePool:
    """All feature queries of ``CQ[m]`` (or ``CQ[m, p]``) over a schema.

    Parameters
    ----------
    schema:
        The schema whose relation symbols may appear in atom bodies.  The
        entity symbol is usable in the body like any other unary relation.
    max_atoms:
        The bound ``m`` on body atoms (the entity atom ``η(x)`` is free).
    max_occurrences:
        Optional bound ``p`` of ``CQ[m, p]`` on per-variable occurrences
        across the body atoms (the implicit ``η(x)`` does not count).
    entity_symbol:
        The relation of the entity atom; defaults to the schema's entity
        symbol when it is an :class:`~repro.data.schema.EntitySchema`, and
        to :data:`~repro.data.schema.ENTITY_SYMBOL` otherwise.
    dedupe:
        ``"isomorphism"`` deduplicates up to renaming of existential
        variables; ``"equivalence"`` (default) additionally reduces every
        query to its core and deduplicates semantically equivalent queries.

    Returns
    -------
    FeaturePool
        Feature queries in a deterministic order, each containing ``η(x)``.
        The trivial query ``q(x) :- η(x)`` is always first, and is every
        other query's ancestor in ``parents``.
    """
    if max_atoms < 0:
        raise QueryError("max_atoms must be nonnegative")
    if entity_symbol is None:
        entity_symbol = (
            schema.entity_symbol
            if isinstance(schema, EntitySchema)
            else ENTITY_SYMBOL
        )
    return _enumerate(
        schema,
        max_atoms,
        max_occurrences,
        free_variable,
        dedupe,
        entity_symbol,
    )


def enumerate_unary_queries(
    schema: Schema,
    max_atoms: int,
    max_occurrences: Optional[int] = None,
    free_variable: Variable = Variable("x"),
    dedupe: str = "equivalence",
) -> FeaturePool:
    """All unary CQs ``q(x)`` with at most ``max_atoms`` atoms over a schema.

    Unlike :func:`enumerate_feature_queries`, no entity atom is assumed: the
    free variable simply must occur in at least one atom.  This is the query
    pool of the generic Query-By-Example problem (Section 6.1), where the
    schema need not be an entity schema.
    """
    if max_atoms < 1:
        raise QueryError("enumerate_unary_queries requires max_atoms >= 1")
    return _enumerate(
        schema, max_atoms, max_occurrences, free_variable, dedupe, None
    )


def count_feature_queries(
    schema: Schema,
    max_atoms: int,
    max_occurrences: Optional[int] = None,
    dedupe: str = "equivalence",
) -> int:
    """``|CQ[m]|`` (resp. ``|CQ[m, p]|``) over the schema, up to ``dedupe``."""
    return len(
        enumerate_feature_queries(
            schema,
            max_atoms,
            max_occurrences=max_occurrences,
            dedupe=dedupe,
        )
    )
