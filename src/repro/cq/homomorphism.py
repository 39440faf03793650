"""Homomorphisms between databases (paper, Section 2).

A homomorphism from ``D`` to ``D'`` is a map ``h : dom(D) → dom(D')`` with
``R(h(ā)) ∈ D'`` for every fact ``R(ā) ∈ D``.  The pointed variant
``(D, ā) → (D', b̄)`` additionally requires ``h(ā) = b̄``.

Every check runs one backtracking search, a :class:`HomomorphismProgram`:
a constraint solver over the *facts* of the source database, compiled once
per ``(source, seeded elements)`` pair and reusable against any target.
Compilation fixes the fact order (most already-touched elements first, so
assignments propagate early), per-element *occurrence signatures* (a
positional, arc-consistency-style prefilter answered by index lookups), a
*zip schedule* recording per fact slot which elements are already bound,
and per-fact *lookup slots* that enumerate only the target facts whose
indexed position matches an already-bound element.  Deciding existence is
NP-complete in general; the instances in this library are small by design.

:func:`all_homomorphisms` and the functions built on it compile a program
per call; :class:`~repro.cq.plan.QueryPlan` compiles one per CQ and the
engine reuses it across databases.  The search reads the target's
lazily-built :class:`~repro.data.database.DatabaseIndex`, so repeated
checks against the same database never rebuild its occurrence table; pass
a :class:`SearchCounters` to tally the work actually done.  Memoization of
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
    "HomomorphismProgram",
    "find_homomorphism",
    "has_homomorphism",
    "all_homomorphisms",
    "is_homomorphism",
    "pointed_has_homomorphism",
    "homomorphic_image",
]

Element = Any
Assignment = Dict[Element, Element]


class SearchCounters:
    """Mutable tally of homomorphism-search work.

    ``hom_checks`` counts top-level searches started; ``backtrack_nodes``
    counts candidate target facts tried (search-tree nodes expanded).  Both
    :class:`HomomorphismProgram` (whether a plan runs it or a per-call
    function compiled it) and the frozen naive oracle in
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


class HomomorphismProgram:
    """A compiled backtracking search for one source database.

    Compiled once per ``(source, seeded elements)`` pair and reusable
    against any target database.  ``seeded`` is the set of source elements
    that every ``fixed`` assignment passed to :meth:`run` will bind (for a
    CQ plan: the free variables) — the fact order and the zip schedule
    depend on it, so :meth:`run` rejects assignments over a different key
    set rather than silently searching with a stale schedule.
    """

    __slots__ = (
        "source",
        "seeded",
        "_signatures",
        "_relations",
        "_slots",
        "_lookups",
    )

    def __init__(
        self,
        source: Database,
        seeded: FrozenSet[Element],
        signatures: Tuple[Tuple[Element, Tuple[Tuple[str, int], ...]], ...],
        relations: Tuple[str, ...],
        slots: Tuple[Tuple[Tuple[Element, bool], ...], ...],
        lookups: Tuple[Optional[Tuple[int, Element]], ...],
    ) -> None:
        self.source = source
        self.seeded = seeded
        self._signatures = signatures
        self._relations = relations
        self._slots = slots
        self._lookups = lookups

    @classmethod
    def compile(
        cls, source: Database, seeded: Sequence[Element] = ()
    ) -> "HomomorphismProgram":
        """Analyze ``source`` once: signatures, fact order, zip schedule."""
        seeded_set = frozenset(seeded)

        # Per-element occurrence signature: every (relation, position) the
        # element occupies.  At run time the candidate set of the element
        # is the intersection of the target index's occurrence sets over
        # this signature — no rescan of either side.
        occurrence: Dict[Element, Set[Tuple[str, int]]] = {}
        for fact in source.facts:
            for position, element in enumerate(fact.arguments):
                occurrence.setdefault(element, set()).add(
                    (fact.relation, position)
                )
        signatures = tuple(
            (element, tuple(sorted(pairs)))
            for element, pairs in sorted(
                occurrence.items(), key=lambda item: repr(item[0])
            )
        )

        # The greedy connectivity order is computed once, seeded with the
        # elements every run-time assignment will have bound already.
        facts = _order_facts(source, set(seeded_set))

        # Zip schedule: per fact slot, (element, bound-before?) — True when
        # the element is seeded, bound by an earlier fact in the order, or
        # repeated from an earlier position of the same fact.  Lookup
        # slots: the first position whose element is bound before the fact
        # *starts*, usable to enumerate only matching target facts.
        bound: Set[Element] = set(seeded_set)
        relations: List[str] = []
        slots: List[Tuple[Tuple[Element, bool], ...]] = []
        lookups: List[Optional[Tuple[int, Element]]] = []
        for fact in facts:
            lookup: Optional[Tuple[int, Element]] = None
            for position, element in enumerate(fact.arguments):
                if lookup is None and element in bound:
                    lookup = (position, element)
            slot: List[Tuple[Element, bool]] = []
            seen_now: Set[Element] = set()
            for element in fact.arguments:
                slot.append((element, element in bound or element in seen_now))
                seen_now.add(element)
            bound |= seen_now
            relations.append(fact.relation)
            slots.append(tuple(slot))
            lookups.append(lookup)

        return cls(
            source,
            seeded_set,
            signatures,
            tuple(relations),
            tuple(slots),
            tuple(lookups),
        )

    # ------------------------------------------------------------------

    def _options(
        self, level: int, assignment: Assignment, index: Any
    ) -> Tuple:
        lookup = self._lookups[level]
        relation = self._relations[level]
        if lookup is not None:
            position, element = lookup
            return index.facts_at.get(
                (relation, position, assignment[element]), ()
            )
        return index.facts_by_relation.get(relation, ())

    def solutions(
        self,
        target: Database,
        fixed: Optional[Mapping[Element, Element]] = None,
        counters: Optional[SearchCounters] = None,
    ) -> Iterator[Assignment]:
        """Yield every homomorphism into ``target`` extending ``fixed``.

        ``fixed`` must bind the seeded elements this program was compiled
        for; extra keys outside the source domain are carried through into
        every yielded assignment.
        """
        assignment: Assignment = dict(fixed) if fixed else {}
        if not self.seeded <= set(assignment):
            raise DatabaseError(
                "homomorphism program compiled for seeded elements "
                f"{sorted(map(repr, self.seeded))}, but the assignment "
                f"binds {sorted(map(repr, assignment))}"
            )
        if counters is not None:
            counters.hom_checks += 1

        index = target.index
        positions = index.positions
        candidates: Dict[Element, Set[Element]] = {}
        for element, signature in self._signatures:
            allowed: Optional[Set[Element]] = None
            for key in signature:
                occupied = positions.get(key)
                if occupied is None:
                    return
                allowed = (
                    set(occupied) if allowed is None else allowed & occupied
                )
                if not allowed:
                    return
            assert allowed is not None
            candidates[element] = allowed
        for element, image in assignment.items():
            allowed = candidates.get(element)
            if allowed is not None and image not in allowed:
                return

        n_facts = len(self._slots)
        if n_facts == 0:
            yield dict(assignment)
            return
        # Iterative depth-first search (an explicit stack: recursion depth
        # would equal the fact count, which product databases can push past
        # Python's recursion limit).  A frame is [options at this level
        # (possibly index-pruned), next option index, elements bound here].
        stack: List[List[Any]] = [
            [self._options(0, assignment, index), 0, []]
        ]
        while stack:
            frame = stack[-1]
            options, option_index, bound_here = frame
            for element in bound_here:
                del assignment[element]
            del bound_here[:]
            level = len(stack) - 1
            slot = self._slots[level]
            advanced = False
            while option_index < len(options):
                target_fact = options[option_index]
                option_index += 1
                if counters is not None:
                    counters.backtrack_nodes += 1
                newly_bound: List[Element] = []
                consistent = True
                for (element, bound_before), image in zip(
                    slot, target_fact.arguments
                ):
                    if bound_before:
                        if assignment[element] != image:
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
                        for element in newly_bound:
                            del assignment[element]
                        continue  # leaf: try the next option directly
                    frame[1] = option_index
                    frame[2] = newly_bound
                    stack.append(
                        [self._options(level + 1, assignment, index), 0, []]
                    )
                    advanced = True
                    break
                for element in newly_bound:
                    del assignment[element]
            if not advanced:
                stack.pop()

    def run(
        self,
        target: Database,
        fixed: Optional[Mapping[Element, Element]] = None,
        counters: Optional[SearchCounters] = None,
    ) -> bool:
        """Whether a homomorphism into ``target`` extending ``fixed`` exists."""
        for _ in self.solutions(target, fixed, counters):
            return True
        return False

    def __repr__(self) -> str:
        return (
            f"HomomorphismProgram(facts={len(self._slots)}, "
            f"seeded={sorted(map(repr, self.seeded))})"
        )


def all_homomorphisms(
    source: Database,
    target: Database,
    fixed: Optional[Mapping[Element, Element]] = None,
    counters: Optional[SearchCounters] = None,
) -> Iterator[Assignment]:
    """Yield every homomorphism from ``source`` to ``target`` extending ``fixed``.

    Compiles a :class:`HomomorphismProgram` for ``source`` seeded with the
    keys of ``fixed`` and runs it once.  The yielded dictionaries are fresh
    copies covering all of ``dom(source)`` plus any extra keys provided in
    ``fixed``.
    """
    program = HomomorphismProgram.compile(source, tuple(fixed or ()))
    return program.solutions(target, fixed, counters)


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
