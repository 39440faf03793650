"""Property tests for homomorphism programs compiled as parts.

A :class:`~repro.cq.homomorphism.HomomorphismProgram` decides the
connected components of its source (once the seeded elements are removed)
one after another, and the engine decides a query's ground parts once per
database.  Both are checked against the frozen :mod:`repro.cq.naive`
oracle on inputs built to have parts: feature queries with branches that
meet only at x and ground parts that a drawn database may fail, and
hom-check sources made of several components.

Each row runs on the python backend, on numpy, and on numpy with a
4-cell cap, under which many sweeps fall back to the backtracking path.  A
feature query is evaluated on several databases with one engine, so a
ground verdict carried from one database to the next shows.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cq.engine import EvaluationEngine
from repro.cq.homomorphism import HomomorphismProgram
from repro.cq.naive import (
    naive_all_homomorphisms,
    naive_evaluate_unary,
    naive_has_homomorphism,
)

from tests.property.strategies import (
    entity_databases,
    parted_feature_queries,
    parted_hom_check_instances,
)

_SETTINGS = settings(max_examples=60, deadline=None)

_ENGINES = [("python", None), ("numpy", None), ("numpy", 4)]
_IDS = ["python", "numpy", "numpy-cap4"]


def _engine(backend, cells):
    return EvaluationEngine(backend=backend, max_vector_cells=cells)


def _assignments(solutions):
    return {frozenset(solution.items()) for solution in solutions}


@pytest.mark.parametrize("backend, cells", _ENGINES, ids=_IDS)
class TestParts:
    @_SETTINGS
    @given(
        st.lists(parted_feature_queries(), min_size=1, max_size=3),
        st.lists(entity_databases(), min_size=2, max_size=3),
    )
    def test_engine_answers_equal_naive(
        self, backend, cells, queries, databases
    ):
        engine = _engine(backend, cells)
        for database in databases:
            answers = engine.evaluate_unary_batch(queries, database)
            assert answers == [
                naive_evaluate_unary(query, database) for query in queries
            ]

    @_SETTINGS
    @given(parted_hom_check_instances())
    def test_program_equals_naive(self, backend, cells, instance):
        source, target, fixed = instance
        program = HomomorphismProgram.compile(source, tuple(fixed))
        assert len(program.parts) >= 2
        expected = naive_has_homomorphism(source, target, fixed)
        assert program.run(target, fixed) == expected
        assert _assignments(program.solutions(target, fixed)) == (
            _assignments(naive_all_homomorphisms(source, target, fixed))
        )
        engine = _engine(backend, cells)
        assert engine.has_homomorphism(source, target, fixed) == expected
