"""The CQ[m] fill bounded by each query's parent in the pool.

:mod:`repro.cq.enumeration` records, per query, the pool entry it grew
from, whose answers contain its own; the engine's batch path then searches
each query only on its parent's answers.  The bound must be exact (the
answers equal the frozen naive oracle and the unbounded fill), must save
work, must read a parent answered earlier in the same resolve however it
was answered, and must stay with the fill: the statistic and the artifact
carry no parents.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.separability import cqm_separability, feature_pool
from repro.cq import parse_cq
from repro.cq.engine import EvaluationEngine
from repro.cq.naive import naive_evaluate_unary
from repro.data import Database
from repro.exceptions import QueryError
from repro.workloads.molecules import molecule_database

from tests.property.strategies import training_databases


@pytest.fixture(scope="module")
def molecules():
    training = molecule_database(n_molecules=16, seed=0)
    pool = feature_pool(training, 2)
    entities = sorted(training.entities, key=repr)
    return training.database, pool, entities


class TestBoundedFill:
    def test_fewer_nodes_and_checks_for_the_same_matrix(self, molecules):
        database, pool, entities = molecules
        plain = EvaluationEngine()
        bounded = EvaluationEngine()
        matrix = plain.indicator_matrix(pool, database, entities)
        assert bounded.indicator_matrix(
            pool, database, entities, parents=pool.parents
        ) == matrix
        assert bounded.counters.backtrack_nodes < (
            plain.counters.backtrack_nodes
        )
        assert bounded.counters.hom_checks < plain.counters.hom_checks

    def test_no_parents_runs_unbounded(self, molecules):
        database, pool, _ = molecules
        plain = EvaluationEngine()
        plain.evaluate_unary_batch(pool, database)
        unbounded = EvaluationEngine()
        unbounded.evaluate_unary_batch(
            pool, database, parents=[None] * len(pool)
        )
        assert unbounded.work_snapshot() == plain.work_snapshot()

    def test_parent_answered_by_the_memo(self, molecules):
        database, pool, _ = molecules
        # The root and its children: every other query's parent is here.
        top = [
            query
            for query, parent in zip(pool, pool.parents)
            if parent in (None, 0)
        ]
        assert len(top) < len(pool)

        def bounded_checks(queries, parents):
            engine = EvaluationEngine()
            engine.evaluate_unary_batch(queries, database, parents=parents)
            return engine.counters.hom_checks

        engine = EvaluationEngine()
        engine.evaluate_unary_batch(top, database)
        before = engine.counters.hom_checks
        assert engine.evaluate_unary_batch(
            pool, database, parents=pool.parents
        ) == [naive_evaluate_unary(query, database) for query in pool]
        # The rest read their memoized parents' answers: exactly the checks
        # a cold bounded fill spends outside ``top``.
        assert engine.counters.hom_checks - before == (
            bounded_checks(pool, pool.parents)
            - bounded_checks(top, [None] + [0] * (len(top) - 1))
        )

    def test_swept_parent_bounds_a_fallback_child(self, monkeypatch):
        database = Database.from_tuples(
            {
                "E": [("a", "b"), ("b", "c"), ("d", "e"), ("f", "f")],
                "eta": [("a",), ("b",), ("c",), ("d",), ("f",)],
            }
        )
        parent = parse_cq("q(x) :- eta(x), E(x, y), E(y, z)")
        child = parse_cq("q(x) :- eta(x), E(x, y), E(y, z), E(z, w)")
        engine = EvaluationEngine(backend="numpy")
        sweep = engine._vectorized_answer
        # The child falls back to backtracking; its parent is swept in the
        # same resolve and memoized only when the resolve returns.
        monkeypatch.setattr(
            engine,
            "_vectorized_answer",
            lambda query, db: None if query == child else sweep(query, db),
        )
        answers = engine.evaluate_unary_batch(
            [parent, child], database, parents=[None, 0]
        )
        assert answers == [
            naive_evaluate_unary(parent, database),
            naive_evaluate_unary(child, database),
        ]
        # One check per entity the parent selects (a and f), not per entity.
        assert answers[0] == frozenset({"a", "f"})
        assert engine.counters.hom_checks == 2

    def test_bad_parents_are_rejected(self, molecules):
        database, pool, _ = molecules
        engine = EvaluationEngine()
        with pytest.raises(QueryError, match="one entry per query"):
            engine.evaluate_unary_batch(pool, database, parents=[None])
        with pytest.raises(QueryError, match="earlier query"):
            engine.evaluate_unary_batch(
                pool[:2], database, parents=[1, None]
            )
        with pytest.raises(QueryError, match="earlier query"):
            engine.evaluate_unary_batch(pool[:1], database, parents=[0])


class TestParentsStayWithTheFill:
    def test_cqm_separability_passes_the_pool_parents(
        self, path_training, monkeypatch
    ):
        seen = []
        batch = EvaluationEngine.evaluate_unary_batch

        def spy(self, queries, database, parents=None):
            seen.append((list(queries), parents))
            return batch(self, queries, database, parents)

        monkeypatch.setattr(EvaluationEngine, "evaluate_unary_batch", spy)
        result = cqm_separability(path_training, 2, engine=EvaluationEngine())
        pool = feature_pool(path_training, 2)
        assert seen == [(list(pool), pool.parents)]
        assert result.statistic.queries == tuple(pool)
        assert not hasattr(result.statistic, "parents")


_BACKENDS = [("python", None), ("numpy", None), ("numpy", 16)]


class TestBoundedFillMatchesNaive:
    @pytest.mark.parametrize(
        "backend, cells", _BACKENDS, ids=["python", "numpy", "numpy-cap16"]
    )
    @settings(max_examples=30, deadline=None)
    @given(training_databases(), st.integers(min_value=1, max_value=2))
    def test_bounded_fill_equals_naive(self, backend, cells, training, m):
        # A 16-cell cap makes the numpy backend fall back on the larger
        # joins, so swept parents bound backtracked children.
        database = training.database
        pool = feature_pool(training, m)
        engine = EvaluationEngine(backend=backend, max_vector_cells=cells)
        assert engine.evaluate_unary_batch(
            pool, database, parents=pool.parents
        ) == [naive_evaluate_unary(query, database) for query in pool]
