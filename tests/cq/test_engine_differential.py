"""Differential tests: EvaluationEngine vs the frozen naive path.

For randomized (query, database) workloads the indexed + memoized engine
must agree byte-for-byte with :mod:`repro.cq.naive`, including replays that
are served from the cache.  Every property runs once per evaluation
backend (``python`` and ``numpy``).  Together these tests run well over
400 random cases per CI invocation (5 properties x 2 backends x 50
examples).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.cq.engine import BACKENDS, EvaluationEngine, default_engine
from repro.cq.evaluation import (
    evaluate,
    evaluate_unary,
    indicator_vector,
    selects,
)
from repro.cq.naive import (
    naive_evaluate,
    naive_evaluate_unary,
    naive_has_homomorphism,
    naive_selects,
)

from tests.property.strategies import (
    entity_databases,
    general_queries,
    hom_check_instances,
    mixed_databases,
    unary_feature_queries,
)

_SETTINGS = settings(max_examples=50, deadline=None)

_BACKENDS = pytest.mark.parametrize("backend", BACKENDS)


class TestEvaluateDifferential:
    @_BACKENDS
    @_SETTINGS
    @given(general_queries(), mixed_databases())
    def test_evaluate_matches_naive_including_replay(
        self, backend, query, database
    ):
        engine = EvaluationEngine(backend=backend)
        expected = naive_evaluate(query, database)
        assert engine.evaluate(query, database) == expected
        # Second evaluation is served from the answer cache.
        before = engine.cache_info().hits
        assert engine.evaluate(query, database) == expected
        assert engine.cache_info().hits > before

    @_BACKENDS
    @_SETTINGS
    @given(unary_feature_queries(), entity_databases())
    def test_evaluate_unary_matches_naive(self, backend, query, database):
        engine = EvaluationEngine(backend=backend)
        expected = naive_evaluate_unary(query, database)
        assert engine.evaluate_unary(query, database) == expected
        assert engine.evaluate_unary(query, database) == expected
        # The module-level wrapper (default engine) agrees too.
        assert evaluate_unary(query, database) == expected
        assert evaluate(query, database) == frozenset(
            (element,) for element in expected
        )


class TestHomomorphismDifferential:
    @_BACKENDS
    @_SETTINGS
    @given(hom_check_instances())
    def test_has_homomorphism_matches_naive(self, backend, instance):
        source, target, fixed = instance
        engine = EvaluationEngine(backend=backend)
        expected = naive_has_homomorphism(source, target, fixed)
        assert engine.has_homomorphism(source, target, fixed) == expected
        # Cache replay returns the identical decision.
        assert engine.has_homomorphism(source, target, fixed) == expected


class TestPointedDifferential:
    @_BACKENDS
    @_SETTINGS
    @given(unary_feature_queries(), entity_databases())
    def test_selects_matches_naive_on_every_element(
        self, backend, query, database
    ):
        engine = EvaluationEngine(backend=backend)
        answers = engine.evaluate_unary(query, database)
        for element in sorted(database.domain, key=repr):
            expected = naive_selects(query, database, element)
            assert engine.selects(query, database, element) == expected
            assert selects(query, database, element) == expected
            # Pointed checks and whole-query answers are consistent.
            assert (element in answers) == expected


class TestBatchDifferential:
    @_BACKENDS
    @_SETTINGS
    @given(
        unary_feature_queries(),
        unary_feature_queries(),
        entity_databases(),
    )
    def test_indicator_matrix_matches_naive(self, backend, q1, q2, database):
        engine = EvaluationEngine(backend=backend)
        queries = [q1, q2]
        entities = sorted(database.entities(), key=repr)
        rows = engine.indicator_matrix(queries, database, entities)
        vectors = engine.evaluate_statistic(queries, database, entities)
        for entity, row in zip(entities, rows):
            expected = tuple(
                1 if naive_selects(query, database, entity) else -1
                for query in queries
            )
            assert row == expected
            assert vectors[entity] == expected
            assert indicator_vector(queries, database, entity) == expected


def test_default_engine_is_shared():
    assert default_engine() is default_engine()
