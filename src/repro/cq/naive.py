"""Frozen naive evaluation path, kept as the differential-testing oracle.

This module preserves the original, uncached implementations of
homomorphism search and CQ evaluation: every call rebuilds the target's
positional-occurrence table from scratch and runs one fresh backtracking
search — no database index, no memoization.  The indexed and memoized
implementations live in :mod:`repro.cq.engine`; the differential test suite
(``tests/cq/test_engine_differential.py``) and the engine ablation bench
pit the two against each other on randomized workloads.

Nothing in the library proper should import this module on a hot path.
"""

from __future__ import annotations

from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from repro.cq.homomorphism import SearchCounters
from repro.cq.query import CQ
from repro.data.database import Database, Fact
from repro.exceptions import QueryError

__all__ = [
    "naive_has_homomorphism",
    "naive_all_homomorphisms",
    "naive_evaluate",
    "naive_evaluate_unary",
    "naive_selects",
]

Element = Any
Assignment = Dict[Element, Element]

#: Sentinel for "not bound yet" (``None`` is a legal database element).
_UNSET = object()


def _positional_candidates(
    source: Database, target: Database
) -> Optional[Dict[Element, Set[Element]]]:
    """Per-source-element candidate sets, rebuilt from scratch every call."""
    target_positions: Dict[Tuple[str, int], Set[Element]] = {}
    for fact in target.facts:
        for index, element in enumerate(fact.arguments):
            target_positions.setdefault((fact.relation, index), set()).add(
                element
            )

    candidates: Dict[Element, Set[Element]] = {}
    for fact in source.facts:
        for index, element in enumerate(fact.arguments):
            allowed = target_positions.get((fact.relation, index))
            if allowed is None:
                return None
            if element in candidates:
                candidates[element] &= allowed
                if not candidates[element]:
                    return None
            else:
                candidates[element] = set(allowed)
    return candidates


def _order_facts(source: Database, seeded: Set[Element]) -> List[Fact]:
    """Greedy fact ordering: most already-touched elements first."""
    remaining = sorted(source.facts, key=repr)
    ordered: List[Fact] = []
    touched = set(seeded)
    while remaining:
        best_index = 0
        best_key: Optional[Tuple[int, int]] = None
        for index, fact in enumerate(remaining):
            overlap = sum(1 for a in fact.elements if a in touched)
            new_elements = len(fact.elements) - overlap
            key = (-overlap, new_elements)
            if best_key is None or key < best_key:
                best_key = key
                best_index = index
        fact = remaining.pop(best_index)
        ordered.append(fact)
        touched.update(fact.elements)
    return ordered


def naive_all_homomorphisms(
    source: Database,
    target: Database,
    fixed: Optional[Mapping[Element, Element]] = None,
    counters: Optional[SearchCounters] = None,
) -> Iterator[Assignment]:
    """Yield every homomorphism from ``source`` to ``target`` extending ``fixed``."""
    if counters is not None:
        counters.hom_checks += 1
    assignment: Assignment = dict(fixed) if fixed else {}

    candidates = _positional_candidates(source, target)
    if candidates is None:
        return
    for element, image in assignment.items():
        allowed = candidates.get(element)
        if allowed is not None and image not in allowed:
            return

    facts = _order_facts(source, set(assignment))
    target_by_relation = {
        relation: target.facts_of(relation)
        for relation in source.relation_names
    }

    n_facts = len(facts)
    if n_facts == 0:
        yield dict(assignment)
        return
    stack: List[Tuple[int, List[Element]]] = [(0, [])]
    while stack:
        level = len(stack) - 1
        index, bound_here = stack[-1]
        for element in bound_here:
            del assignment[element]
        bound_here.clear()
        fact = facts[level]
        options = target_by_relation[fact.relation]
        advanced = False
        while index < len(options):
            target_fact = options[index]
            index += 1
            if counters is not None:
                counters.backtrack_nodes += 1
            newly_bound: List[Element] = []
            consistent = True
            for element, image in zip(fact.arguments, target_fact.arguments):
                bound = assignment.get(element, _UNSET)
                if bound is not _UNSET:
                    if bound != image:
                        consistent = False
                        break
                elif image not in candidates.get(element, ()):
                    consistent = False
                    break
                else:
                    assignment[element] = image
                    newly_bound.append(element)
            if consistent:
                if level + 1 == n_facts:
                    yield dict(assignment)
                    for bound in newly_bound:
                        del assignment[bound]
                    continue
                stack[-1] = (index, newly_bound)
                stack.append((0, []))
                advanced = True
                break
            for bound in newly_bound:
                del assignment[bound]
        if not advanced:
            stack.pop()


def naive_has_homomorphism(
    source: Database,
    target: Database,
    fixed: Optional[Mapping[Element, Element]] = None,
    counters: Optional[SearchCounters] = None,
) -> bool:
    """Whether ``source → target`` (uncached reference decision)."""
    for _ in naive_all_homomorphisms(source, target, fixed, counters):
        return True
    return False


def _free_variable_candidates(
    query: CQ, database: Database
) -> List[Set[Element]]:
    """Cheap per-free-variable candidate sets from positional occurrence.

    Raises :class:`~repro.exceptions.QueryError` for a free variable that
    appears in no atom: such a variable has no positional constraint at all,
    and silently returning an empty candidate set (the historical behavior)
    dropped it from the results instead of surfacing the malformed query.
    :class:`~repro.cq.query.CQ` already rejects detached free variables at
    construction time, so this only triggers on hand-rolled query objects.
    """
    positions: Dict[Tuple[str, int], Set[Element]] = {}
    for fact in database.facts:
        for index, element in enumerate(fact.arguments):
            positions.setdefault((fact.relation, index), set()).add(element)

    candidate_sets: List[Set[Element]] = []
    for variable in query.free_variables:
        candidates: Optional[Set[Element]] = None
        for atom in query.atoms:
            for index, argument in enumerate(atom.arguments):
                if argument != variable:
                    continue
                allowed = positions.get((atom.relation, index), set())
                candidates = (
                    set(allowed)
                    if candidates is None
                    else candidates & allowed
                )
        if candidates is None:
            raise QueryError(
                f"free variable {variable} does not occur in any atom"
            )
        candidate_sets.append(candidates)
    return candidate_sets


def naive_evaluate(
    query: CQ,
    database: Database,
    counters: Optional[SearchCounters] = None,
) -> FrozenSet[Tuple[Element, ...]]:
    """``q(D)`` by one fresh pointed search per candidate assignment."""
    candidate_sets = _free_variable_candidates(query, database)
    if any(not candidates for candidates in candidate_sets):
        return frozenset()

    canonical = query.canonical_database
    free = query.free_variables
    results: Set[Tuple[Element, ...]] = set()

    def assign(index: int, fixed: Dict[Any, Element]) -> None:
        if index == len(free):
            if naive_has_homomorphism(canonical, database, fixed, counters):
                results.add(tuple(fixed[v] for v in free))
            return
        variable = free[index]
        # Free variables are distinct, so ``variable`` is never bound yet.
        for value in sorted(candidate_sets[index], key=repr):
            fixed[variable] = value
            assign(index + 1, fixed)
            del fixed[variable]

    assign(0, {})
    return frozenset(results)


def naive_evaluate_unary(
    query: CQ,
    database: Database,
    counters: Optional[SearchCounters] = None,
) -> FrozenSet[Element]:
    """``q(D)`` for a unary query, as a set of elements."""
    if not query.is_unary:
        raise QueryError("naive_evaluate_unary requires a unary CQ")
    return frozenset(
        row[0] for row in naive_evaluate(query, database, counters)
    )


def naive_selects(
    query: CQ,
    database: Database,
    element: Element,
    counters: Optional[SearchCounters] = None,
) -> bool:
    """Whether ``element ∈ q(D)`` by a single uncached pointed check."""
    if not query.is_unary:
        raise QueryError("naive_selects requires a unary CQ")
    return naive_has_homomorphism(
        query.canonical_database,
        database,
        {query.free_variable: element},
        counters,
    )
