"""Tests for the homomorphism engine."""

from __future__ import annotations

import pytest

from repro.cq.engine import EvaluationEngine
from repro.cq.homomorphism import (
    all_homomorphisms,
    find_homomorphism,
    has_homomorphism,
    homomorphic_image,
    is_homomorphism,
    pointed_has_homomorphism,
)
from repro.cq.naive import naive_has_homomorphism, naive_selects
from repro.cq.parser import parse_cq
from repro.cq.plan import HomomorphismProgram
from repro.data import Database
from repro.exceptions import DatabaseError


def _edges(pairs):
    return Database.from_tuples({"E": pairs})


class TestHasHomomorphism:
    def test_path_into_cycle(self):
        path = _edges([(1, 2), (2, 3)])
        cycle = _edges([("a", "b"), ("b", "a")])
        assert has_homomorphism(path, cycle)

    def test_odd_cycle_into_even_cycle_fails(self):
        triangle = _edges([(1, 2), (2, 3), (3, 1)])
        square = _edges(
            [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]
        )
        assert not has_homomorphism(triangle, square)
        assert has_homomorphism(square, square)

    def test_even_cycle_into_odd_cycle(self):
        # C4 -> C3? C4 maps into anything with a closed walk of length 4;
        # the directed triangle has closed walks of length 3, 6, ... only.
        square = _edges([(1, 2), (2, 3), (3, 4), (4, 1)])
        triangle = _edges([("a", "b"), ("b", "c"), ("c", "a")])
        assert not has_homomorphism(square, triangle)

    def test_missing_relation_in_target(self):
        source = Database.from_tuples({"R": [("a",)]})
        target = Database.from_tuples({"S": [("a",)]})
        assert not has_homomorphism(source, target)

    def test_empty_source(self):
        assert has_homomorphism(Database([]), _edges([(1, 2)]))

    def test_loop_required(self):
        loop = _edges([(1, 1)])
        no_loop = _edges([(1, 2)])
        assert not has_homomorphism(loop, no_loop)
        assert has_homomorphism(no_loop, loop)


class TestFixedAssignments:
    def test_fixed_consistent(self):
        path = _edges([(1, 2)])
        target = _edges([("a", "b"), ("b", "c")])
        assert has_homomorphism(path, target, {1: "a"})
        assert has_homomorphism(path, target, {1: "b"})
        assert not has_homomorphism(path, target, {1: "c"})

    def test_pointed(self):
        path = _edges([(1, 2), (2, 3)])
        target = _edges([("a", "b"), ("b", "c")])
        assert pointed_has_homomorphism(path, (1,), target, ("a",))
        assert not pointed_has_homomorphism(path, (1,), target, ("b",))

    def test_pointed_inconsistent_tuple(self):
        db = _edges([(1, 2)])
        assert not pointed_has_homomorphism(
            db, (1, 1), db, (1, 2)
        )

    def test_pointed_length_mismatch(self):
        db = _edges([(1, 2)])
        with pytest.raises(DatabaseError):
            pointed_has_homomorphism(db, (1,), db, (1, 2))


class TestNoneIsAnElement:
    """``None`` is a legal element: a binding to it is still a binding."""

    def test_search_keeps_a_none_binding(self):
        path = _edges([(1, 2), (2, 3)])
        target = _edges([(None, "a"), ("b", "c"), ("c", "d")])
        assert not HomomorphismProgram.compile(path, (1,)).run(
            target, {1: None}
        )
        assert not has_homomorphism(path, target, {1: None})
        assert not naive_has_homomorphism(path, target, {1: None})
        query = parse_cq("q(x) :- E(x, y), E(y, z)")
        assert not EvaluationEngine().selects(query, target, None)
        assert not naive_selects(query, target, None)

    def test_pointed_tuple_must_be_a_function(self):
        source = _edges([(1, 2)])
        target = _edges([("a", "b")])
        # (1, 1) -> (image, "a") maps 1 to two elements, None or not.
        for image in (None, "b"):
            assert not pointed_has_homomorphism(
                source, (1, 1), target, (image, "a")
            )
            assert not EvaluationEngine().pointed_has_homomorphism(
                source, (1, 1), target, (image, "a")
            )


class TestAllHomomorphisms:
    def test_count_path_into_path(self):
        source = _edges([(1, 2)])
        target = _edges([("a", "b"), ("b", "c")])
        homs = list(all_homomorphisms(source, target))
        assert len(homs) == 2
        images = {(h[1], h[2]) for h in homs}
        assert images == {("a", "b"), ("b", "c")}

    def test_yields_valid_homs(self):
        source = _edges([(1, 2), (2, 3)])
        target = _edges([("a", "b"), ("b", "c"), ("c", "a")])
        for h in all_homomorphisms(source, target):
            assert is_homomorphism(h, source, target)

    def test_no_duplicates(self):
        source = _edges([(1, 2), (1, 3)])
        target = _edges([("a", "a")])
        homs = [
            tuple(sorted(h.items()))
            for h in all_homomorphisms(source, target)
        ]
        assert len(homs) == len(set(homs))


class TestIsHomomorphism:
    def test_valid(self):
        source = _edges([(1, 2)])
        target = _edges([("a", "b")])
        assert is_homomorphism({1: "a", 2: "b"}, source, target)

    def test_invalid_mapping(self):
        source = _edges([(1, 2)])
        target = _edges([("a", "b")])
        assert not is_homomorphism({1: "b", 2: "a"}, source, target)

    def test_partial_mapping_rejected(self):
        source = _edges([(1, 2)])
        target = _edges([("a", "b")])
        assert not is_homomorphism({1: "a"}, source, target)


class TestHomomorphicImage:
    def test_image(self):
        source = _edges([(1, 2), (2, 3)])
        image = homomorphic_image({1: "a", 2: "a", 3: "a"}, source)
        assert len(image) == 1
        assert image.domain == {"a"}

    def test_image_composition(self):
        source = _edges([(1, 2), (2, 1)])
        target = _edges([("a", "b"), ("b", "a")])
        h = find_homomorphism(source, target)
        assert h is not None
        image = homomorphic_image(h, source)
        assert has_homomorphism(image, target)
