"""Tests for decomposition-guided evaluation through its public entry points.

``EvaluationEngine.evaluate_ghw`` and ``repro.cq.evaluate_ghw`` run a
query's single-pass plan; the plan itself is tested in
``tests/cq/test_plan.py``.  Answers are checked against backtracking and
the frozen naive oracle.
"""

from __future__ import annotations

import pytest

from repro.cq.engine import EvaluationEngine
from repro.cq.evaluation import evaluate_ghw
from repro.cq.naive import naive_evaluate_unary
from repro.cq.parser import parse_cq
from repro.cq.plan import YannakakisPlan
from repro.data import Database
from repro.exceptions import DecompositionError, QueryError
from repro.hypergraph.ghw import decompose


@pytest.fixture
def graph_database():
    return Database.from_tuples(
        {
            "E": [(1, 2), (2, 3), (3, 1), (3, 4), (4, 5), (6, 7)],
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
        # Separate engines, so neither answer is read from the other's memo.
        query = parse_cq(rule)
        structured = EvaluationEngine().evaluate_ghw(query, graph_database, 2)
        backtracking = EvaluationEngine().evaluate_unary(query, graph_database)
        assert structured == backtracking
        assert structured == naive_evaluate_unary(query, graph_database)


class TestValidation:
    def test_non_unary_rejected(self, graph_database):
        query = parse_cq("q(x, y) :- E(x, y)")
        with pytest.raises(QueryError):
            evaluate_ghw(query, graph_database, 1, engine=EvaluationEngine())

    def test_foreign_decomposition_rejected(self, graph_database):
        # A decomposition of the query minus one atom covers too little.
        query = parse_cq("q(x) :- eta(x), E(x, y), E(y, z)")
        part = parse_cq("q(x) :- eta(x), E(x, y)")
        with pytest.raises(DecompositionError):
            YannakakisPlan(query, decompose(part, 1))

    def test_width_guard(self, graph_database):
        query = parse_cq("q(x) :- eta(x), E(a, b), E(b, c), E(c, a)")
        assert decompose(query, 1) is None
        with pytest.raises(DecompositionError):
            evaluate_ghw(query, graph_database, 1)
