"""Executor contract tests: ordering, fallback, and work aggregation.

CI runs this module with real multiprocessing (``REPRO_TEST_WORKERS=2`` is
the default worker count here), so the process-pool path is exercised and
not just the serial fallback.
"""

from __future__ import annotations

import os

import pytest

from repro.cq.engine import EvaluationEngine, set_default_engine
from repro.exceptions import ReproError
from repro.runtime import (
    ParallelExecutor,
    SerialExecutor,
    ShardPlan,
    make_executor,
)
from repro.runtime.tasks import pointed_hom_checks
from repro.workloads.molecules import molecule_database

WORKERS = max(2, int(os.environ.get("REPRO_TEST_WORKERS", "2")))


@pytest.fixture(scope="module")
def workload():
    """A database and every ordered pair of its entities (16 checks)."""
    database = molecule_database(n_molecules=4, seed=7).database
    entities = sorted(database.entities(), key=repr)
    pairs = [(left, right) for left in entities for right in entities]
    return database, pairs


def _payload_for(database):
    return lambda chunk: _checks(chunk, database)


def _checks(chunk, database):
    """A ``pointed_hom_checks`` payload: ``database`` into itself."""
    return (database, database, tuple(chunk))


class TestSerialExecutor:
    def test_map_shards_order(self, workload):
        database, pairs = workload
        executor = SerialExecutor()
        plan = ShardPlan.balanced(len(pairs), 5)
        payloads = [
            _checks(chunk, database) for chunk in plan.chunk(pairs)
        ]
        results = executor.map_shards(pointed_hom_checks, payloads)
        merged = ShardPlan.merge(results)
        expected = ShardPlan.merge(
            [pointed_hom_checks(payload) for payload in payloads]
        )
        assert merged == expected

    def test_records_work(self, workload):
        database, pairs = workload
        set_default_engine(EvaluationEngine())  # cold cache → real work
        executor = SerialExecutor()
        executor.run(
            pointed_hom_checks, pairs, _payload_for(database)
        )
        work = executor.work_done()
        assert work["hom_checks"] > 0

    def test_context_manager(self):
        with SerialExecutor() as executor:
            assert executor.workers == 1


class TestParallelExecutor:
    def test_requires_two_workers(self):
        with pytest.raises(ReproError):
            ParallelExecutor(1)

    def test_matches_serial(self, workload):
        database, pairs = workload
        serial = SerialExecutor().run(
            pointed_hom_checks, pairs, _payload_for(database)
        )
        with ParallelExecutor(WORKERS) as executor:
            parallel = executor.run(
                pointed_hom_checks, pairs, _payload_for(database)
            )
            assert executor.fallback_reason is None
        assert parallel == serial

    def test_aggregates_worker_accounting(self, workload):
        database, pairs = workload
        with ParallelExecutor(WORKERS) as executor:
            executor.run(
                pointed_hom_checks, pairs, _payload_for(database)
            )
            work = executor.work_done()
            info = executor.cache_info()
        assert work["hom_checks"] > 0
        assert info.misses > 0
        assert info.currsize > 0

    def test_pool_reused_across_calls(self, workload):
        database, pairs = workload
        with ParallelExecutor(WORKERS) as executor:
            first = executor.run(
                pointed_hom_checks, pairs, _payload_for(database)
            )
            # Worker caches persist between dispatches, so the second call
            # must register cache hits somewhere in the pool.
            executor.run(
                pointed_hom_checks, pairs, _payload_for(database)
            )
            assert executor.run(
                pointed_hom_checks, pairs, _payload_for(database)
            ) == first
            assert executor.work_done()["cache_hits"] > 0

    def test_unpicklable_payload_falls_back_to_serial(self, workload):
        database, pairs = workload
        expected = SerialExecutor().run(
            pointed_hom_checks, pairs, _payload_for(database)
        )
        with ParallelExecutor(WORKERS) as executor:
            results = executor.run(
                _strip_marker_task,
                pairs,
                lambda chunk: (tuple(chunk), database, lambda: None),
            )
            assert executor.fallback_reason is not None
            assert "pickl" in executor.fallback_reason
        assert results == expected

    def test_empty_dispatch(self):
        with ParallelExecutor(WORKERS) as executor:
            assert executor.map_shards(pointed_hom_checks, []) == []


def _strip_marker_task(payload):
    """A picklable task whose payload carries an unpicklable marker."""
    pairs, database, _marker = payload
    return pointed_hom_checks(_checks(pairs, database))


class TestMakeExecutor:
    def test_serial_for_small_worker_counts(self):
        assert isinstance(make_executor(None), SerialExecutor)
        assert isinstance(make_executor(0), SerialExecutor)
        assert isinstance(make_executor(1), SerialExecutor)

    def test_parallel_above_one(self):
        executor = make_executor(2)
        try:
            assert isinstance(executor, ParallelExecutor)
            assert executor.workers == 2
        finally:
            executor.close()
