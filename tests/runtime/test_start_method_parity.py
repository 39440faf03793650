"""Start-method parity: fork, spawn, and serial agree bit-for-bit.

The zero-copy runtime changes *where* state lives (inherited copy-on-write
under fork, shared-memory fetches under spawn, plain objects serially) but
must never change a single bit of output.  This suite pins that across the
retail and molecules workloads, both evaluation backends, and worker
counts 1/2/4 — and checks the broadcast counters prove the zero-copy
path actually ran (repeat dispatches are pure hits).

The runtime's own rule picks the start method: spawn rows hold a live
idle thread, and fork rows skip when the process already has threads.
"""

from __future__ import annotations

import multiprocessing
import threading

import pytest

from repro.core.languages import BoundedAtomsCQ, GhwClass
from repro.core.pipeline import FeatureEngineeringSession
from repro.core.separability import feature_pool
from repro.cq.engine import EvaluationEngine
from repro.runtime import make_executor
from repro.serve import InferenceService
from repro.workloads.molecules import molecule_database
from repro.workloads.retail import retail_database

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()

START_METHODS = [
    pytest.param(
        "fork",
        marks=pytest.mark.skipif(
            not HAVE_FORK, reason="fork unavailable on this platform"
        ),
    ),
    "spawn",
]

BACKENDS = ["python", "numpy"]


def _select(method, request):
    """Arrange for the runtime's start-method rule to pick ``method``."""
    if method == "spawn":
        request.getfixturevalue("live_thread")
    elif threading.active_count() > 1:
        pytest.skip("the process has threads, so the runtime never forks")


@pytest.fixture(scope="module", params=["retail", "molecules"])
def workload(request):
    if request.param == "retail":
        training = retail_database(n_customers=6, seed=3)
    else:
        training = molecule_database(n_molecules=4, seed=7)
    queries = feature_pool(training, 2)
    database = training.database
    entities = sorted(database.entities(), key=repr)
    return request.param, database, queries, entities


class TestIndicatorMatrixParity:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("method", START_METHODS)
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_bit_identical_to_serial(
        self, workload, backend, method, workers, request
    ):
        _, database, queries, entities = workload
        serial = EvaluationEngine(backend=backend).indicator_matrix(
            queries, database, entities
        )
        _select(method, request)
        with make_executor(workers, backend=backend) as executor:
            # Fresh engines per call: a warm parent cache would satisfy
            # every query locally and skip dispatch entirely.
            first = EvaluationEngine(backend=backend).indicator_matrix(
                queries, database, entities, executor=executor
            )
            assert first == serial
            if workers <= 1:
                return
            assert executor.fallback_reason is None
            assert executor.effective_start_method == method
            work = executor.work_done()
            # One fetch per worker per object at most — never per shard.
            assert work["broadcast_misses"] <= workers
            assert work["broadcast_hits"] + work["broadcast_misses"] > 0
            # The repeat dispatch resolves entirely from resident caches.
            assert EvaluationEngine(backend=backend).indicator_matrix(
                queries, database, entities, executor=executor
            ) == serial
            again = executor.work_done()
            assert again["broadcast_hits"] > work["broadcast_hits"]
            assert again["broadcast_misses"] == work["broadcast_misses"]


@pytest.fixture(scope="module", params=["retail", "molecules"])
def served(request):
    if request.param == "retail":
        training = retail_database(n_customers=6, seed=3)
        language = BoundedAtomsCQ(3)
        evaluations = [
            retail_database(n_customers=4, seed=seed).database
            for seed in (11, 12)
        ]
    else:
        training = molecule_database(n_molecules=4, seed=7)
        language = GhwClass(1)
        evaluations = [
            molecule_database(n_molecules=3, seed=seed).database
            for seed in (21, 22)
        ]
    evaluations.append(training.database)
    with FeatureEngineeringSession(training, language) as session:
        assert session.separable
        artifact = session.export_artifact()
        expected = [session.classify(db) for db in evaluations]
    return artifact, evaluations, expected


class TestPredictBatchParity:
    @pytest.mark.parametrize("method", START_METHODS)
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_bit_identical_to_session(self, served, method, workers, request):
        artifact, evaluations, expected = served
        _select(method, request)
        with InferenceService(artifact, workers=workers) as service:
            assert service.predict_batch(evaluations) == expected
            if workers <= 1:
                return
            executor = service.executor
            assert executor.fallback_reason is None
            assert executor.effective_start_method == method
            work = executor.work_done()
            assert work["broadcast_misses"] <= workers * 2  # db + model
            assert service.predict_batch(evaluations) == expected
            again = executor.work_done()
            assert again["broadcast_hits"] > work["broadcast_hits"]
