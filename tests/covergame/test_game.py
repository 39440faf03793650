"""Tests for the optimized k-cover game solver.

Includes a differential test against the literal-definition reference
implementation (:func:`repro.core.brute.cover_game_holds_reference`) and
checks of the theoretical sandwich ``→ ⊆ →_{k+1} ⊆ →_k``.
"""

from __future__ import annotations

from itertools import product as iter_product

import pytest

from repro.covergame.game import CoverGameSolver, cover_game_holds
from repro.cq.homomorphism import pointed_has_homomorphism
from repro.data import Database
from repro.exceptions import DatabaseError
from repro.core.brute import cover_game_holds_reference


def _edges(pairs, extra=None):
    tables = {"E": pairs}
    if extra:
        tables.update(extra)
    return Database.from_tuples(tables)


class TestBasicGames:
    def test_two_path_distinguishes(self, path_database):
        # a has an outgoing 2-path, b does not: a GHW(1) query separates.
        assert not cover_game_holds(
            path_database, ("a",), path_database, ("b",), 1
        )

    def test_isolated_entity_below_everything(self, path_database):
        assert cover_game_holds(
            path_database, ("d",), path_database, ("a",), 1
        )
        assert not cover_game_holds(
            path_database, ("a",), path_database, ("d",), 1
        )

    def test_reflexive(self, path_database):
        for entity in path_database.entities():
            assert cover_game_holds(
                path_database, (entity,), path_database, (entity,), 1
            )

    def test_empty_tuples(self):
        # With no distinguished elements, the game only compares structure.
        path = _edges([(1, 2)])
        longer = _edges([("a", "b"), ("b", "c")])
        assert cover_game_holds(path, (), longer, (), 1)

    def test_inconsistent_anchor(self):
        db = _edges([(1, 2)])
        assert not cover_game_holds(db, (1, 1), db, (1, 2), 1)

    def test_inconsistent_anchor_through_none(self):
        # (1, 1) -> (image, "a") is not a function, None or not.
        source = _edges([(1, 2)])
        target = _edges([("a", "b")])
        for image in (None, "b"):
            assert not cover_game_holds(
                source, (1, 1), target, (image, "a"), 1
            )

    def test_anchor_fact_violation(self):
        db = _edges([(1, 2)])
        # Map the edge endpoints backwards: the fact E(1,2) breaks.
        assert not cover_game_holds(db, (1, 2), db, (2, 1), 1)

    def test_length_mismatch(self):
        db = _edges([(1, 2)])
        with pytest.raises(DatabaseError):
            cover_game_holds(db, (1,), db, (), 1)

    def test_k_zero_rejected(self):
        db = _edges([(1, 2)])
        with pytest.raises(DatabaseError):
            cover_game_holds(db, (1,), db, (1,), 0)

    def test_no_facts_trivially_wins(self):
        empty = Database([])
        assert cover_game_holds(empty, (), empty, (), 1)


class TestApproximationSandwich:
    """``→ ⊆ ... ⊆ →_{k+1} ⊆ →_k ⊆ ... ⊆ →_1`` (Section 5)."""

    def _all_pairs(self, db):
        elements = sorted(db.domain, key=repr)
        return list(iter_product(elements, elements))

    def test_hom_implies_game(self, triangle_database):
        for left, right in self._all_pairs(triangle_database):
            if pointed_has_homomorphism(
                triangle_database, (left,), triangle_database, (right,)
            ):
                for k in (1, 2):
                    assert cover_game_holds(
                        triangle_database,
                        (left,),
                        triangle_database,
                        (right,),
                        k,
                    )

    def test_k2_implies_k1(self, triangle_database):
        for left, right in self._all_pairs(triangle_database):
            if cover_game_holds(
                triangle_database, (left,), triangle_database, (right,), 2
            ):
                assert cover_game_holds(
                    triangle_database,
                    (left,),
                    triangle_database,
                    (right,),
                    1,
                )

    def test_k1_strictly_weaker_than_hom(self):
        # Unanchored: the triangle does not map homomorphically into the
        # 6-cycle, but Boolean tree queries cannot tell them apart (every
        # tree maps into any directed cycle), so ->_1 holds.
        triangle = _edges([(0, 1), (1, 2), (2, 0)])
        hexagon = _edges([(i, (i + 1) % 6) for i in range(6)])
        assert not pointed_has_homomorphism(triangle, (), hexagon, ())
        assert cover_game_holds(triangle, (), hexagon, (), 1)

    def test_anchored_free_variable_closes_cycles(self):
        # With the free variable anchored, GHW(1) queries can express
        # closed walks through x (e.g. E(x,y1), E(y1,y2), E(y2,x) has
        # ghw 1), so C3 and C6 entities ARE ->_1-distinguishable.
        triangle = _edges([(0, 1), (1, 2), (2, 0)])
        hexagon = _edges([(i, (i + 1) % 6) for i in range(6)])
        assert not cover_game_holds(triangle, (0,), hexagon, (0,), 1)
        # The 6-cycle's entity maps into the triangle, so the converse
        # direction does hold.
        assert cover_game_holds(hexagon, (0,), triangle, (0,), 1)


class TestDifferentialAgainstReference:
    def test_small_databases_pointed(self, path_database):
        elements = sorted(path_database.domain)
        for left in elements:
            for right in elements:
                fast = cover_game_holds(
                    path_database, (left,), path_database, (right,), 1
                )
                slow = cover_game_holds_reference(
                    path_database, (left,), path_database, (right,), 1
                )
                assert fast == slow, (left, right)

    def test_cross_database(self):
        loop = _edges([(0, 0)])
        cycle = _edges([(0, 1), (1, 0)])
        for k in (1, 2):
            for source, target in (
                (loop, cycle),
                (cycle, loop),
            ):
                for left in source.domain:
                    for right in target.domain:
                        fast = cover_game_holds(
                            source, (left,), target, (right,), k
                        )
                        slow = cover_game_holds_reference(
                            source, (left,), target, (right,), k
                        )
                        assert fast == slow, (left, right, k)

    def test_with_unary_markers(self):
        db = Database.from_tuples(
            {
                "E": [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)],
                "G": [(0,), (4,)],
            }
        )
        for left in (0, 3):
            for right in (0, 3):
                fast = cover_game_holds(db, (left,), db, (right,), 1)
                slow = cover_game_holds_reference(
                    db, (left,), db, (right,), 1
                )
                assert fast == slow, (left, right)


class TestSolverMetadata:
    def test_rounds_counted(self, path_database):
        solver = CoverGameSolver(
            path_database, ("a",), path_database, ("b",), 1
        )
        solver.solve()
        assert solver.rounds >= 0
