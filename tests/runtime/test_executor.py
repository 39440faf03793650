"""Executor contract tests: ordering, fallback, and work aggregation.

CI runs this module with real multiprocessing (``REPRO_TEST_WORKERS=2`` is
the default worker count here), so the process-pool path is exercised and
not just the serial fallback.
"""

from __future__ import annotations

import os

import pytest

from repro.core.separability import feature_pool
from repro.cq.engine import EvaluationEngine, set_default_engine
from repro.exceptions import ReproError
from repro.runtime import (
    ParallelExecutor,
    SerialExecutor,
    ShardPlan,
    make_executor,
)
from repro.runtime.tasks import evaluate_unary_queries
from repro.workloads.retail import retail_database

WORKERS = max(2, int(os.environ.get("REPRO_TEST_WORKERS", "2")))


@pytest.fixture(scope="module")
def workload():
    training = retail_database(n_customers=6, seed=3)
    queries = feature_pool(training, 2)
    return training.database, queries


def _payload_for(database):
    return lambda chunk: (tuple(chunk), database)


class TestSerialExecutor:
    def test_map_shards_order(self, workload):
        database, queries = workload
        executor = SerialExecutor()
        plan = ShardPlan.balanced(len(queries), 5)
        payloads = [
            (tuple(chunk), database) for chunk in plan.chunk(queries)
        ]
        results = executor.map_shards(evaluate_unary_queries, payloads)
        merged = ShardPlan.merge(results)
        expected = ShardPlan.merge(
            [evaluate_unary_queries(payload) for payload in payloads]
        )
        assert merged == expected

    def test_records_work(self, workload):
        database, queries = workload
        set_default_engine(EvaluationEngine())  # cold cache → real work
        executor = SerialExecutor()
        executor.run(
            evaluate_unary_queries, queries, _payload_for(database)
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
        database, queries = workload
        serial = SerialExecutor().run(
            evaluate_unary_queries, queries, _payload_for(database)
        )
        with ParallelExecutor(WORKERS) as executor:
            parallel = executor.run(
                evaluate_unary_queries, queries, _payload_for(database)
            )
            assert executor.fallback_reason is None
        assert parallel == serial

    def test_aggregates_worker_accounting(self, workload):
        database, queries = workload
        with ParallelExecutor(WORKERS) as executor:
            executor.run(
                evaluate_unary_queries, queries, _payload_for(database)
            )
            work = executor.work_done()
            info = executor.cache_info()
        assert work["hom_checks"] > 0
        assert info.misses > 0
        assert info.currsize > 0

    def test_pool_reused_across_calls(self, workload):
        database, queries = workload
        with ParallelExecutor(WORKERS) as executor:
            first = executor.run(
                evaluate_unary_queries, queries, _payload_for(database)
            )
            # Worker caches persist between dispatches, so the second call
            # must register cache hits somewhere in the pool.
            executor.run(
                evaluate_unary_queries, queries, _payload_for(database)
            )
            assert executor.run(
                evaluate_unary_queries, queries, _payload_for(database)
            ) == first
            assert executor.work_done()["cache_hits"] > 0

    def test_unpicklable_payload_falls_back_to_serial(self, workload):
        database, queries = workload
        expected = SerialExecutor().run(
            evaluate_unary_queries, queries, _payload_for(database)
        )
        with ParallelExecutor(WORKERS) as executor:
            results = executor.run(
                _strip_marker_task,
                queries,
                lambda chunk: (tuple(chunk), database, lambda: None),
            )
            assert executor.fallback_reason is not None
            assert "pickl" in executor.fallback_reason
        assert results == expected

    def test_empty_dispatch(self):
        with ParallelExecutor(WORKERS) as executor:
            assert executor.map_shards(evaluate_unary_queries, []) == []


class TestPlanPrecompilation:
    def test_initialize_worker_compiles_plan_queries(self, workload):
        _, queries = workload
        from repro.cq.engine import default_engine
        from repro.runtime.tasks import initialize_worker

        previous = set_default_engine(EvaluationEngine())
        try:
            initialize_worker(tuple(queries))
            plans = default_engine().cache_details()["plans"]
            assert plans.currsize == len(set(queries))
        finally:
            set_default_engine(previous)

    def test_parallel_results_identical_with_precompiled_plans(
        self, workload
    ):
        database, queries = workload
        serial = SerialExecutor().run(
            evaluate_unary_queries, queries, _payload_for(database)
        )
        with make_executor(WORKERS, plan_queries=tuple(queries)) as executor:
            parallel = executor.run(
                evaluate_unary_queries, queries, _payload_for(database)
            )
            assert executor.fallback_reason is None
            # Worker engines report the precompiled plans in their caches.
            assert executor.cache_info().currsize >= len(set(queries))
        assert parallel == serial


def _strip_marker_task(payload):
    """A picklable task whose payload carries an unpicklable marker."""
    queries, database, _marker = payload
    return evaluate_unary_queries((queries, database))


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
