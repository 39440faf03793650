"""Differential oracle harness: numpy backend vs the pure-Python engine.

The pure-Python :class:`EvaluationEngine` is itself differentially locked
to :mod:`repro.cq.naive`, so it serves as the machine-checked oracle for
the vectorized backend: on every paper workload (retail, molecules,
bibliography, random) the two backends must produce **bit-identical**
``indicator_matrix`` / ``evaluate_statistic`` / ``evaluate_ghw`` results,
serially and through a 2-worker process pool.
"""

from __future__ import annotations

import pytest

from repro.cq.engine import EvaluationEngine
from repro.cq.parser import parse_cq
from repro.core.separability import feature_pool
from repro.data.schema import EntitySchema, RelationSymbol
from repro.exceptions import DecompositionError
from repro.runtime import make_executor
from repro.workloads.bibliography import (
    bibliography_database,
    bibliography_schema_concept,
)
from repro.workloads.molecules import carbonyl_concept, molecule_database
from repro.workloads.random_db import random_training_database
from repro.workloads.retail import premium_buyer_concept, retail_database

#: Feature queries per workload: enough to exercise joins, unary atoms,
#: and repeated relations without making the python oracle the long pole.
POOL_LIMIT = 24


def _random_workload():
    schema = EntitySchema([RelationSymbol("E", 2), RelationSymbol("R", 1)])
    concept = parse_cq("q(x) :- eta(x), E(x, y), R(y)")
    training = random_training_database(schema, concept, 12, 20, seed=3)
    return training, concept


WORKLOADS = {
    "retail": lambda: (retail_database(), premium_buyer_concept()),
    "molecules": lambda: (molecule_database(), carbonyl_concept()),
    "bibliography": lambda: (
        bibliography_database(),
        bibliography_schema_concept(),
    ),
    "random_db": _random_workload,
}


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def workload(request):
    training, concept = WORKLOADS[request.param]()
    queries = [concept] + feature_pool(training, 2)[:POOL_LIMIT]
    entities = sorted(training.database.entities(), key=repr)
    return training.database, queries, entities, concept


@pytest.fixture(scope="module", params=[1, 2], ids=["workers1", "workers2"])
def executors(request):
    """One executor per backend (workers share an engine backend)."""
    workers = request.param
    python_pool = make_executor(workers, backend="python")
    numpy_pool = make_executor(workers, backend="numpy")
    yield python_pool, numpy_pool
    python_pool.close()
    numpy_pool.close()


class TestBackendDifferential:
    def test_indicator_matrix_bit_identical(self, workload, executors):
        database, queries, entities, _ = workload
        python_pool, numpy_pool = executors
        python_engine = EvaluationEngine(backend="python")
        numpy_engine = EvaluationEngine(backend="numpy")
        expected = python_engine.indicator_matrix(
            queries, database, entities, executor=python_pool
        )
        actual = numpy_engine.indicator_matrix(
            queries, database, entities, executor=numpy_pool
        )
        assert actual == expected
        # Replay from warm caches stays identical.
        assert (
            numpy_engine.indicator_matrix(queries, database, entities)
            == expected
        )

    def test_evaluate_statistic_bit_identical(self, workload, executors):
        database, queries, entities, _ = workload
        python_pool, numpy_pool = executors
        python_engine = EvaluationEngine(backend="python")
        numpy_engine = EvaluationEngine(backend="numpy")
        expected = python_engine.evaluate_statistic(
            queries, database, entities, executor=python_pool
        )
        actual = numpy_engine.evaluate_statistic(
            queries, database, entities, executor=numpy_pool
        )
        assert actual == expected

    def test_evaluate_ghw_bit_identical(self, workload):
        database, _, _, concept = workload
        python_engine = EvaluationEngine(backend="python")
        numpy_engine = EvaluationEngine(backend="numpy")
        # Every planted concept is acyclic (a chain/star), so ghw <= 1.
        expected = python_engine.evaluate_ghw(concept, database, 1)
        assert numpy_engine.evaluate_ghw(concept, database, 1) == expected

    def test_evaluate_ghw_width_gate_agrees(self, workload):
        """ghw > k raises DecompositionError on *both* backends."""
        database, _, _, _ = workload
        # A bound-variable triangle: pinning x does not break the cycle,
        # so ghw = 2 and the k = 1 gate must fire before any evaluation.
        cyclic = parse_cq(
            "q(x) :- eta(x), E(a, b), E(b, c), E(c, a)"
        )
        for backend in ("python", "numpy"):
            engine = EvaluationEngine(backend=backend)
            with pytest.raises(DecompositionError):
                engine.evaluate_ghw(cyclic, database, 1)

    def test_selects_and_unary_agree_per_element(self, workload):
        database, queries, entities, _ = workload
        python_engine = EvaluationEngine(backend="python")
        numpy_engine = EvaluationEngine(backend="numpy")
        for query in queries[:8]:
            expected = python_engine.evaluate_unary(query, database)
            assert numpy_engine.evaluate_unary(query, database) == expected
            for element in entities:
                assert numpy_engine.selects(query, database, element) == (
                    element in expected
                )


def test_numpy_backend_actually_vectorizes(workload):
    """The harness is not vacuous: sweeps really ran on the numpy engine."""
    database, queries, entities, _ = workload
    engine = EvaluationEngine(backend="numpy")
    engine.indicator_matrix(queries, database, entities)
    assert engine.counters.vectorized_sweeps > 0
    assert engine.counters.backtrack_nodes == 0
