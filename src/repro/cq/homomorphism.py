"""Homomorphisms between databases (paper, Section 2).

A homomorphism from ``D`` to ``D'`` is a map ``h : dom(D) → dom(D')`` with
``R(h(ā)) ∈ D'`` for every fact ``R(ā) ∈ D``.  The pointed variant
``(D, ā) → (D', b̄)`` additionally requires ``h(ā) = b̄``.

The search is a backtracking constraint solver over the *facts* of the source
database: facts are ordered to maximize connectivity with already-assigned
elements, and positional-occurrence candidate sets provide a cheap
arc-consistency-style prefilter.  Deciding existence is NP-complete in
general; the instances in this library are small by design.

The prefilter reads the target's lazily-built
:class:`~repro.data.database.DatabaseIndex`, so repeated checks against the
same database never rebuild its occurrence table; pass a
:class:`SearchCounters` to tally the work actually done.  Memoization of
whole check results lives one level up, in :mod:`repro.cq.engine`.
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
    Sequence,
    Set,
    Tuple,
)

from repro.data.database import Database, Fact
from repro.exceptions import DatabaseError

__all__ = [
    "SearchCounters",
    "find_homomorphism",
    "has_homomorphism",
    "all_homomorphisms",
    "is_homomorphism",
    "pointed_has_homomorphism",
    "homomorphic_image",
]

Element = Any
Assignment = Dict[Element, Element]

#: Sentinel for "not bound yet" (``None`` is a legal database element, so
#: it cannot play that role).
_UNSET = object()


class SearchCounters:
    """Mutable tally of homomorphism-search work.

    ``hom_checks`` counts top-level searches started; ``backtrack_nodes``
    counts candidate target facts tried (search-tree nodes expanded).  Both
    the instrumented path here and the frozen naive path in
    :mod:`repro.cq.naive` accept one, so benchmarks can compare work done,
    not just wall-clock.
    """

    __slots__ = ("hom_checks", "backtrack_nodes")

    def __init__(self) -> None:
        self.hom_checks = 0
        self.backtrack_nodes = 0

    def __repr__(self) -> str:
        return (
            f"SearchCounters(hom_checks={self.hom_checks}, "
            f"backtrack_nodes={self.backtrack_nodes})"
        )


def _positional_candidates(
    source: Database, target: Database
) -> Optional[Dict[Element, Set[Element]]]:
    """For each source element, the targets allowed by positional occurrence.

    If a source element occurs at position ``i`` of relation ``R``, its image
    must occur at position ``i`` of some ``R``-fact of the target.  Returns
    ``None`` if some source element has no candidate at all (no homomorphism
    exists).  The target side reads the database's cached index instead of
    rescanning its facts.
    """
    target_positions = target.index.positions

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
    """Greedy fact ordering: most already-touched elements first.

    Keeps the search connected so assignments propagate early; ties are
    broken toward facts over rarer relations deterministically.
    """
    return _connected_order(sorted(source.facts, key=repr), seeded)


def _connected_order(ranked: Sequence[Any], seeded: Set[Element]) -> List[Any]:
    """:func:`_order_facts`' greedy rule on facts already sorted by ``repr``.

    Each pick is the first remaining fact with the most touched elements,
    then the fewest new ones.  Element sets are computed once up front
    rather than inside the O(n²) selection loop.  Anything with
    ``arguments`` orders alike, so :func:`repro.cq.core.core_of` orders
    query atoms by the same rule.
    """
    remaining: List[Tuple[Any, FrozenSet[Element]]] = [
        (fact, frozenset(fact.arguments)) for fact in ranked
    ]
    ordered: List[Any] = []
    touched = set(seeded)
    while remaining:
        best_index = 0
        best_key: Optional[Tuple[int, int]] = None
        for index, (_, elements) in enumerate(remaining):
            overlap = sum(1 for a in elements if a in touched)
            new_elements = len(elements) - overlap
            key = (-overlap, new_elements)
            if best_key is None or key < best_key:
                best_key = key
                best_index = index
        fact, elements = remaining.pop(best_index)
        ordered.append(fact)
        touched.update(elements)
    return ordered


def all_homomorphisms(
    source: Database,
    target: Database,
    fixed: Optional[Mapping[Element, Element]] = None,
    counters: Optional[SearchCounters] = None,
) -> Iterator[Assignment]:
    """Yield every homomorphism from ``source`` to ``target`` extending ``fixed``.

    The yielded dictionaries are fresh copies covering all of ``dom(source)``
    plus any extra keys provided in ``fixed``.
    """
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

    # Iterative depth-first search (an explicit stack: recursion depth would
    # equal the fact count, which product databases can push past Python's
    # recursion limit).  stack[level] = (next target-fact index, newly bound
    # elements at this level).
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
                    continue  # leaf level: try the next option directly
                stack[-1] = (index, newly_bound)
                stack.append((0, []))
                advanced = True
                break
            for bound in newly_bound:
                del assignment[bound]
        if not advanced:
            stack.pop()


def find_homomorphism(
    source: Database,
    target: Database,
    fixed: Optional[Mapping[Element, Element]] = None,
    counters: Optional[SearchCounters] = None,
) -> Optional[Assignment]:
    """The first homomorphism found, or ``None`` if none exists."""
    for assignment in all_homomorphisms(source, target, fixed, counters):
        return assignment
    return None


def has_homomorphism(
    source: Database,
    target: Database,
    fixed: Optional[Mapping[Element, Element]] = None,
    counters: Optional[SearchCounters] = None,
) -> bool:
    """Whether ``source → target`` (extending ``fixed`` if given).

    This is the direct, non-memoized decision; for cached repeated checks
    go through :class:`repro.cq.engine.EvaluationEngine`.
    """
    return find_homomorphism(source, target, fixed, counters) is not None


def pointed_has_homomorphism(
    source: Database,
    source_tuple: Sequence[Element],
    target: Database,
    target_tuple: Sequence[Element],
    counters: Optional[SearchCounters] = None,
) -> bool:
    """Whether ``(D, ā) → (D', b̄)`` holds.

    Pass a :class:`SearchCounters` to make the underlying search visible
    to work tallies — pointed checks count toward ``hom_checks`` and
    ``backtrack_nodes`` exactly like unpointed ones.
    """
    if len(source_tuple) != len(target_tuple):
        raise DatabaseError(
            "pointed homomorphism requires equal-length tuples"
        )
    fixed: Assignment = {}
    for element, image in zip(source_tuple, target_tuple):
        if fixed.setdefault(element, image) != image:
            return False
    return has_homomorphism(source, target, fixed, counters)


def is_homomorphism(
    mapping: Mapping[Element, Element],
    source: Database,
    target: Database,
) -> bool:
    """Check that ``mapping`` is a homomorphism from ``source`` to ``target``."""
    for element in source.domain:
        if element not in mapping:
            return False
    for fact in source.facts:
        image = Fact(
            fact.relation, tuple(mapping[a] for a in fact.arguments)
        )
        if image not in target:
            return False
    return True


def homomorphic_image(
    mapping: Mapping[Element, Element], source: Database
) -> Database:
    """The image database ``h(D)`` (facts mapped through ``mapping``)."""
    return Database(
        Fact(fact.relation, tuple(mapping[a] for a in fact.arguments))
        for fact in source.facts
    )
