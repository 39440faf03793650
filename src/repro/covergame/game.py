"""The existential k-cover game of Chen & Dalmau (paper, Section 5).

``(D, ā) →_k (D', b̄)`` holds iff Duplicator has a winning strategy in the
existential k-cover game.  This module decides the relation in polynomial
time for fixed k (Prop 5.1) via a greatest-fixpoint computation over *cover
positions*.

A position is a pair ``(U, h)`` where ``U`` is a maximal cover (the element
set of a union of ≤ k facts of D) and ``h : U → dom(D')`` is consistent with
``ā ↦ b̄`` and preserves every fact inside ``U ∪ ā``.  Single-pebble moves
are equivalent to jumps between cover positions, because every legal pebble
configuration is a subset of a cover and subsets of covers are legal; so
Duplicator wins iff there is a nonempty position set closed under the
transition property: for every position ``(U, h)`` and every cover ``V``
there is a surviving ``(V, g)`` with ``g`` agreeing with ``h`` on ``U ∩ V``.

The fixpoint deletes violating positions with a worklist.  Two global
shortcuts apply: if any cover admits no homomorphism at all, Spoiler wins by
pebbling that cover; and transitions to covers disjoint from ``U`` only
require the cover to retain some surviving position, tracked by a counter.
"""

from __future__ import annotations

from typing import (
    Any,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.covergame.covers import cover_facts, enumerate_covers
from repro.cq.homomorphism import all_homomorphisms
from repro.data.database import Database, Fact
from repro.exceptions import DatabaseError

__all__ = ["cover_game_holds", "CoverGameSolver"]

Element = Any
_Key = FrozenSet[Tuple[Element, Element]]


def _anchor_map(
    source_tuple: Sequence[Element], target_tuple: Sequence[Element]
) -> Optional[Dict[Element, Element]]:
    """The map ā ↦ b̄, or ``None`` when it is not a function."""
    if len(source_tuple) != len(target_tuple):
        raise DatabaseError("cover game requires equal-length tuples")
    anchor: Dict[Element, Element] = {}
    for element, image in zip(source_tuple, target_tuple):
        if anchor.setdefault(element, image) != image:
            return None
    return anchor


class CoverGameSolver:
    """Decides ``(D, ā) →_k (D', b̄)`` and reports convergence metadata.

    Instances are single-use; :func:`cover_game_holds` is the convenience
    entry point.  ``rounds`` after :meth:`solve` is the number of worklist
    deletions performed — an upper bound on the number of game rounds
    Spoiler needs to win, used to pick unraveling depths (Section 5.2).
    """

    def __init__(
        self,
        source: Database,
        source_tuple: Sequence[Element],
        target: Database,
        target_tuple: Sequence[Element],
        k: int,
    ) -> None:
        if k < 1:
            raise DatabaseError("cover game requires k >= 1")
        self._source = source
        self._target = target
        self._source_tuple = tuple(source_tuple)
        self._target_tuple = tuple(target_tuple)
        self._k = k
        self.rounds = 0
        #: When :meth:`solve` returns False, one of Spoiler's winning
        #: openings: a cover whose Duplicator answers all died (``None``
        #: when the failure is the anchor itself violating a fact).
        self.failing_cover: Optional[FrozenSet[Element]] = None

    def solve(self) -> bool:
        anchor = _anchor_map(self._source_tuple, self._target_tuple)
        if anchor is None:
            return False
        anchor_elements = frozenset(anchor)

        # Facts entirely inside ā are constrained at every position; check
        # them once (they are re-included in every cover problem, but the
        # no-facts database needs this explicit check).
        for fact in self._source.facts:
            if all(element in anchor_elements for element in fact.arguments):
                image = Fact(
                    fact.relation,
                    tuple(anchor[element] for element in fact.arguments),
                )
                if image not in self._target:
                    return False

        covers = enumerate_covers(self._source, self._k)
        if not covers:
            return True

        homs: List[List[Dict[Element, Element]]] = []
        for cover in covers:
            facts = cover_facts(self._source, cover, anchor_elements)
            problem = Database(facts, schema=self._source.schema)
            assignments = []
            for assignment in all_homomorphisms(problem, self._target, anchor):
                assignments.append(
                    {element: assignment[element] for element in cover}
                )
            if not assignments:
                self.failing_cover = cover
                return False
            # Deduplicate: unconstrained elements cannot occur (every cover
            # element lies in a covering fact), but distinct source facts can
            # induce the same restriction.
            unique = {
                frozenset(a.items()): a for a in assignments
            }
            homs.append(list(unique.values()))

        n = len(covers)
        neighbors: List[List[int]] = [[] for _ in range(n)]
        intersections: Dict[Tuple[int, int], FrozenSet[Element]] = {}
        for i in range(n):
            for j in range(n):
                if i != j:
                    shared = covers[i] & covers[j]
                    if shared:
                        neighbors[i].append(j)
                        intersections[(i, j)] = frozenset(shared)

        def restriction_key(
            assignment: Dict[Element, Element], shared: FrozenSet[Element]
        ) -> _Key:
            return frozenset(
                (element, assignment[element]) for element in shared
            )

        # proj[j][I] maps a restriction key over I to the number of surviving
        # homs on cover j with that restriction.
        proj: List[Dict[FrozenSet[Element], Dict[_Key, int]]] = [
            {} for _ in range(n)
        ]
        needed_intersections: List[Set[FrozenSet[Element]]] = [
            set() for _ in range(n)
        ]
        for (i, j), shared in intersections.items():
            needed_intersections[j].add(shared)
        for j in range(n):
            for shared in needed_intersections[j]:
                table: Dict[_Key, int] = {}
                for assignment in homs[j]:
                    key = restriction_key(assignment, shared)
                    table[key] = table.get(key, 0) + 1
                proj[j][shared] = table

        alive: List[List[bool]] = [
            [True] * len(homs[i]) for i in range(n)
        ]
        alive_count = [len(homs[i]) for i in range(n)]

        def position_ok(i: int, index: int) -> bool:
            assignment = homs[i][index]
            for j in neighbors[i]:
                shared = intersections[(i, j)]
                key = restriction_key(assignment, shared)
                if proj[j][shared].get(key, 0) == 0:
                    return False
            return True

        # Worklist of covers whose positions need (re-)checking.
        pending: Set[int] = set(range(n))
        while pending:
            i = pending.pop()
            for index in range(len(homs[i])):
                if not alive[i][index]:
                    continue
                if position_ok(i, index):
                    continue
                alive[i][index] = False
                alive_count[i] -= 1
                self.rounds += 1
                if alive_count[i] == 0:
                    self.failing_cover = covers[i]
                    return False
                assignment = homs[i][index]
                for shared in needed_intersections[i]:
                    key = restriction_key(assignment, shared)
                    proj[i][shared][key] -= 1
                pending.update(neighbors[i])
                pending.add(i)
        return True


def cover_game_holds(
    source: Database,
    source_tuple: Sequence[Element],
    target: Database,
    target_tuple: Sequence[Element],
    k: int,
) -> bool:
    """Whether ``(D, ā) →_k (D', b̄)`` (Duplicator wins the k-cover game)."""
    return CoverGameSolver(
        source, source_tuple, target, target_tuple, k
    ).solve()
