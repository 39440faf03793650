"""Tests for the decomposition-guided (Yannakakis) evaluator."""

from __future__ import annotations

import pytest

from repro.cq.evaluation import evaluate_ghw, evaluate_unary
from repro.cq.parser import parse_cq
from repro.cq.structured_evaluation import evaluate_with_decomposition
from repro.data import Database
from repro.exceptions import DecompositionError, QueryError
from repro.hypergraph.ghw import decompose


def reference_ghw(query, database, k):
    """The per-candidate reference over a width-``k`` decomposition."""
    return evaluate_with_decomposition(query, decompose(query, k), database)


@pytest.fixture
def graph_database():
    return Database.from_tuples(
        {
            "E": [
                (1, 2),
                (2, 3),
                (3, 1),
                (3, 4),
                (4, 5),
                (6, 7),
            ],
            "eta": [(1,), (3,), (4,), (6,)],
        }
    )


QUERIES = [
    "q(x) :- eta(x), E(x, y)",
    "q(x) :- eta(x), E(x, y), E(y, z)",
    "q(x) :- eta(x), E(y, x)",
    "q(x) :- eta(x), E(x, y), E(y, z), E(z, w)",
    "q(x) :- eta(x), E(x, y), E(z, y)",
    "q(x) :- eta(x), E(u, v), E(v, w)",
    "q(x) :- eta(x), E(x, y), E(y, x)",
]


class TestAgainstBacktracking:
    @pytest.mark.parametrize("rule", QUERIES)
    def test_ghw1_matches(self, rule, graph_database):
        query = parse_cq(rule)
        structured = reference_ghw(query, graph_database, 2)
        backtracking = evaluate_unary(query, graph_database)
        assert structured == backtracking

    def test_cyclic_query_with_k2(self, graph_database):
        query = parse_cq(
            "q(x) :- eta(x), E(a, b), E(b, c), E(c, a)"
        )
        structured = reference_ghw(query, graph_database, 2)
        assert structured == evaluate_unary(query, graph_database)

    def test_empty_answer(self, graph_database):
        query = parse_cq("q(x) :- eta(x), F(x, x)")
        # F does not exist: ghw evaluation must agree (empty).
        assert reference_ghw(query, graph_database, 1) == frozenset()

    def test_none_element_binds_a_variable(self):
        # F(x, x) needs equal arguments; F(None, "a") has none.
        query = parse_cq("q(x) :- F(x, x)")
        database = Database.from_tuples({"F": [(None, "a")]})
        assert reference_ghw(query, database, 1) == frozenset()
        assert evaluate_unary(query, database) == frozenset()


class TestValidation:
    def test_non_unary_rejected(self, graph_database):
        query = parse_cq("q(x, y) :- E(x, y)")
        decomposition = decompose(query, 1)
        with pytest.raises(QueryError):
            evaluate_with_decomposition(
                query, decomposition, graph_database
            )

    def test_foreign_decomposition_rejected(self, graph_database):
        query = parse_cq("q(x) :- eta(x), E(x, y)")
        other = parse_cq("q(x) :- eta(x), E(y, x)")
        decomposition = decompose(other, 1)
        with pytest.raises(DecompositionError):
            evaluate_with_decomposition(
                query, decomposition, graph_database
            )

    def test_width_guard(self, graph_database):
        query = parse_cq("q(x) :- eta(x), E(a, b), E(b, c), E(c, a)")
        assert decompose(query, 1) is None
        with pytest.raises(DecompositionError):
            evaluate_ghw(query, graph_database, 1)


class TestRandomizedDifferential:
    def test_random_tree_queries(self):
        import random

        from repro.cq.query import CQ
        from repro.cq.terms import Atom, Variable

        rng = random.Random(17)
        database = Database.from_tuples(
            {
                "E": [
                    (rng.randrange(6), rng.randrange(6))
                    for _ in range(10)
                ],
                "eta": [(i,) for i in range(4)],
            }
        )
        x = Variable("x")
        for trial in range(15):
            variables = [x] + [Variable(f"y{i}") for i in range(3)]
            atoms = [Atom("eta", (x,))]
            # Tree-shaped: each new variable hangs off an earlier one.
            for i, fresh in enumerate(variables[1:], start=1):
                anchor = rng.choice(variables[:i])
                pair = (
                    (anchor, fresh)
                    if rng.random() < 0.5
                    else (fresh, anchor)
                )
                atoms.append(Atom("E", pair))
            query = CQ(atoms, (x,))
            structured = reference_ghw(query, database, 1)
            assert structured == evaluate_unary(query, database), query
            assert evaluate_ghw(query, database, 1) == structured, query
