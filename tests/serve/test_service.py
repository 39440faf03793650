"""Differential and lifecycle tests for :class:`repro.serve.InferenceService`.

The acceptance criterion of the serving subsystem is bit-identity: a
prediction served from an exported artifact must equal
``FeatureEngineeringSession.classify`` on the same input, serially and
under micro-batched multi-worker execution alike.
"""

from __future__ import annotations

import pytest

from repro.core.languages import BoundedAtomsCQ, GhwClass
from repro.core.pipeline import FeatureEngineeringSession
from repro.cq.engine import EvaluationEngine
from repro.exceptions import ReproError, ServeError
from repro.runtime import SerialExecutor
from repro.runtime.tasks import classify_databases, initialize_worker
from repro.serve import InferenceService
from repro.workloads.molecules import molecule_database
from repro.workloads.retail import retail_database


@pytest.fixture(scope="module")
def retail_session():
    training = retail_database(n_customers=6, seed=3)
    with FeatureEngineeringSession(training, BoundedAtomsCQ(3)) as session:
        assert session.separable
        yield session


@pytest.fixture(scope="module")
def molecules_session():
    training = molecule_database(n_molecules=6, seed=7)
    with FeatureEngineeringSession(training, GhwClass(1)) as session:
        assert session.separable
        yield session


@pytest.fixture(scope="module")
def retail_evals(retail_session):
    evals = [
        retail_database(n_customers=4, seed=seed).database
        for seed in (11, 12, 13)
    ]
    evals.append(retail_session.training.database)
    return evals


@pytest.fixture(scope="module")
def molecules_evals(molecules_session):
    evals = [
        molecule_database(n_molecules=4, seed=seed).database
        for seed in (21, 22)
    ]
    evals.append(molecules_session.training.database)
    return evals


class _ExplodingEngine(EvaluationEngine):
    """An engine whose batch entry point always fails."""

    def evaluate_statistic(self, *args, **kwargs):
        raise ReproError("boom")


class TestDifferential:
    """Served predictions are bit-identical to session classification."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_retail_predict_batch(self, retail_session, retail_evals, workers):
        expected = [retail_session.classify(db) for db in retail_evals]
        artifact = retail_session.export_artifact()
        with InferenceService(artifact, workers=workers) as service:
            got = service.predict_batch(retail_evals)
        assert got == expected

    @pytest.mark.parametrize("workers", [1, 2])
    def test_molecules_predict_batch(
        self, molecules_session, molecules_evals, workers
    ):
        expected = [molecules_session.classify(db) for db in molecules_evals]
        artifact = molecules_session.export_artifact()
        with InferenceService(artifact, workers=workers) as service:
            got = service.predict_batch(molecules_evals)
        assert got == expected

    def test_single_predict_matches_classify(
        self, retail_session, retail_evals
    ):
        artifact = retail_session.export_artifact()
        with InferenceService(artifact) as service:
            for database in retail_evals:
                assert service.predict(database) == retail_session.classify(
                    database
                )

    def test_batch_preserves_input_order(self, retail_session, retail_evals):
        artifact = retail_session.export_artifact()
        reversed_evals = list(reversed(retail_evals))
        with InferenceService(artifact) as service:
            forward = service.predict_batch(retail_evals)
            backward = service.predict_batch(reversed_evals)
        assert backward == list(reversed(forward))

    def test_round_tripped_artifact_serves_identically(
        self, molecules_session, molecules_evals
    ):
        from repro.serve import ModelArtifact

        artifact = molecules_session.export_artifact()
        reloaded = ModelArtifact.from_json(artifact.to_json())
        with InferenceService(reloaded) as service:
            for database in molecules_evals:
                assert service.predict(
                    database
                ) == molecules_session.classify(database)


class TestDegradation:
    def test_fail_mode_raises_serve_error(self, retail_session, retail_evals):
        artifact = retail_session.export_artifact()
        service = InferenceService(artifact, engine=_ExplodingEngine())
        with pytest.raises(ServeError, match="prediction failed"):
            service.predict(retail_evals[0])
        assert service.metrics.errors == 1

    def test_abstain_mode_returns_none(self, retail_session, retail_evals):
        artifact = retail_session.export_artifact()
        service = InferenceService(
            artifact, engine=_ExplodingEngine(), on_error="abstain"
        )
        assert service.predict(retail_evals[0]) is None
        assert service.metrics.errors == 1
        assert service.metrics.requests == 1

    def test_abstain_batch_is_all_none(self, retail_session, retail_evals):
        artifact = retail_session.export_artifact()
        service = InferenceService(
            artifact, engine=_ExplodingEngine(), on_error="abstain"
        )
        results = service.predict_batch(retail_evals[:2])
        assert results == [None, None]
        assert service.metrics.errors == 2

    def test_fail_batch_raises_and_counts(self, retail_session, retail_evals):
        artifact = retail_session.export_artifact()
        service = InferenceService(artifact, engine=_ExplodingEngine())
        with pytest.raises(ServeError):
            service.predict_batch(retail_evals[:2])
        assert service.metrics.errors >= 1

    def test_invalid_mode_is_rejected(self, retail_session):
        artifact = retail_session.export_artifact()
        with pytest.raises(ServeError, match="on_error"):
            InferenceService(artifact, on_error="explode")

    def test_worker_task_captures_per_database_errors(
        self, retail_session, retail_evals
    ):
        """The shard task reports errors as data, never raises."""
        initialize_worker()
        pair = retail_session.materialize()
        bad_weights = pair.classifier.weights + (1.0,)
        model = (
            pair.statistic.queries,
            bad_weights,
            pair.classifier.threshold,
        )
        outcomes = classify_databases((model, (retail_evals[0],)))
        assert len(outcomes) == 1
        status, message = outcomes[0]
        assert status == "error"
        assert message


class TestLifecycle:
    def test_empty_batch(self, retail_session):
        artifact = retail_session.export_artifact()
        with InferenceService(artifact) as service:
            assert service.predict_batch([]) == []

    def test_empty_batch_neither_warms_nor_records(self, retail_session):
        # The gateway's batch path may legitimately hand over nothing
        # (e.g. a drained queue): that is a result, not a request, so it
        # must not compile the model or show up in any metric.
        artifact = retail_session.export_artifact()
        with InferenceService(artifact) as service:
            assert service.predict_batch([]) == []
            assert service.metrics.warmups == 0
            assert service.metrics.batches == 0
            assert service.metrics.requests == 0
            assert service.metrics.busy_seconds == 0.0
            assert not service._warmed

    def test_warm_up_is_idempotent(self, retail_session, retail_evals):
        artifact = retail_session.export_artifact()
        with InferenceService(artifact) as service:
            service.warm_up()
            service.warm_up()
            assert service.metrics.warmups == 1
            service.predict(retail_evals[0])
            assert service.metrics.warmups == 1

    def test_warm_up_compiles_all_statistic_plans(self, retail_session):
        artifact = retail_session.export_artifact()
        engine = EvaluationEngine()
        with InferenceService(artifact, engine=engine) as service:
            service.warm_up()
            plans = engine.cache_details()["plans"]
            assert plans.currsize == artifact.dimension
            # The first prediction hits every compiled plan instead of
            # compiling on the request clock.
            service.predict(retail_session.training.database)
            after = engine.cache_details()["plans"]
            assert after.misses == plans.misses
            assert after.hits > 0
            snapshot = service.metrics_snapshot()
            assert snapshot["engine"]["compiled_plans"] == artifact.dimension
            assert snapshot["engine"]["plan_cache_hits"] > 0

    def test_close_is_idempotent(self, retail_session):
        artifact = retail_session.export_artifact()
        service = InferenceService(artifact, workers=2)
        assert service.workers == 2
        service.close()
        service.close()
        assert service.executor is None

    def test_serves_serially_after_close(self, retail_session, retail_evals):
        artifact = retail_session.export_artifact()
        service = InferenceService(artifact, workers=2)
        service.close()
        expected = retail_session.classify(retail_evals[0])
        assert service.predict_batch([retail_evals[0]]) == [expected]

    def test_external_executor_is_not_closed(self, retail_session):
        artifact = retail_session.export_artifact()
        with SerialExecutor() as external:
            service = InferenceService(artifact, executor=external)
            service.close()
            assert service.executor is external

    def test_context_manager_closes_pool(self, retail_session):
        with InferenceService(
            retail_session.export_artifact(), workers=2
        ) as service:
            assert service.executor is not None
        assert service.executor is None


class TestMetricsSnapshot:
    def test_snapshot_after_serial_batch(self, retail_session, retail_evals):
        artifact = retail_session.export_artifact()
        with InferenceService(artifact) as service:
            service.predict_batch(retail_evals[:2])
            snapshot = service.metrics_snapshot()
        assert snapshot["requests"] == 2
        assert snapshot["batches"] == 1
        assert snapshot["entities"] > 0
        assert snapshot["model"]["dimension"] == artifact.dimension
        assert snapshot["model"]["checksum"] == artifact.checksum()
        assert snapshot["engine"]["cache_hit_rate"] >= 0.0
        assert "pool" not in snapshot
        assert snapshot["latency_ms"]["p95"] >= snapshot["latency_ms"]["p50"]
        assert snapshot["throughput"]["requests_per_s"] > 0

    def test_snapshot_reports_pool_figures(
        self, retail_session, retail_evals
    ):
        artifact = retail_session.export_artifact()
        with InferenceService(artifact, workers=2) as service:
            service.predict_batch(retail_evals[:2])
            snapshot = service.metrics_snapshot()
        assert snapshot["pool"]["workers"] == 2
        assert 0.0 <= snapshot["pool"]["cache_hit_rate"] <= 1.0
