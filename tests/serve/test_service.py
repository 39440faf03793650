"""Differential and lifecycle tests for :class:`repro.serve.InferenceService`.

The acceptance criterion of the serving subsystem is bit-identity: a
prediction served from an exported artifact must equal
``FeatureEngineeringSession.classify`` on the same input, whether the
memo answers it or the engine evaluates it.
"""

from __future__ import annotations

import pytest

from repro.core.languages import BoundedAtomsCQ, GhwClass
from repro.core.pipeline import FeatureEngineeringSession
from repro.cq.engine import DEFAULT_CACHE_SIZE, EvaluationEngine
from repro.exceptions import ReproError, ServeError
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

    # ``repeats`` copies of the batch in one call: from the second copy on,
    # every answer comes from the memo.
    @pytest.mark.parametrize("repeats", [1, 2])
    def test_retail_predict_batch(self, retail_session, retail_evals, repeats):
        expected = [retail_session.classify(db) for db in retail_evals]
        artifact = retail_session.export_artifact()
        with InferenceService(artifact) as service:
            got = service.predict_batch(retail_evals * repeats)
        assert got == expected * repeats

    @pytest.mark.parametrize("repeats", [1, 2])
    def test_molecules_predict_batch(
        self, molecules_session, molecules_evals, repeats
    ):
        expected = [molecules_session.classify(db) for db in molecules_evals]
        artifact = molecules_session.export_artifact()
        with InferenceService(artifact) as service:
            got = service.predict_batch(molecules_evals * repeats)
        assert got == expected * repeats

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
        # The service evaluates the support, so warm-up compiles exactly
        # the plans of the features with a nonzero weight.
        artifact = retail_session.export_artifact()
        support = [
            query
            for query, weight in zip(
                artifact.statistic, artifact.classifier.weights
            )
            if weight != 0
        ]
        assert 0 < len(support) < artifact.dimension
        engine = EvaluationEngine()
        with InferenceService(artifact, engine=engine) as service:
            service.warm_up()
            plans = engine.cache_details()["plans"]
            assert plans.currsize == len(support)
            assert all(query in engine._plan_cache._data for query in support)
            # The first prediction hits every compiled plan instead of
            # compiling on the request clock.
            service.predict(retail_session.training.database)
            after = engine.cache_details()["plans"]
            assert after.misses == plans.misses
            assert after.hits > 0
            snapshot = service.metrics_snapshot()
            assert snapshot["engine"]["compiled_plans"] == len(support)
            assert snapshot["engine"]["plan_cache_hits"] > 0

    def test_close_is_idempotent(self, retail_session):
        artifact = retail_session.export_artifact()
        service = InferenceService(artifact)
        service.close()
        service.close()

    def test_serves_serially_after_close(self, retail_session, retail_evals):
        artifact = retail_session.export_artifact()
        service = InferenceService(artifact)
        service.close()
        expected = retail_session.classify(retail_evals[0])
        assert service.predict_batch([retail_evals[0]]) == [expected]


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


class TestSupportMemo:
    """The memo keeps as many request databases as whole-pair serving did.

    Each request brings ``support`` answers, so the service-built engine
    holds ``support × ⌊DEFAULT_CACHE_SIZE / dimension⌋`` of them.
    """

    @staticmethod
    def _resident(engine):
        return {database for _, database in engine._answer_cache._data}

    def test_memo_holds_the_whole_pair_database_count(self, retail_session):
        artifact = retail_session.export_artifact()
        support = sum(
            1 for weight in artifact.classifier.weights if weight != 0
        )
        assert support > 0
        databases = DEFAULT_CACHE_SIZE // artifact.dimension
        requests = [
            retail_database(n_customers=3, seed=seed).database
            for seed in range(40, 40 + databases + 3)
        ]
        with InferenceService(artifact) as service:
            engine = service._engine
            assert engine.cache_details()["answers"].maxsize == (
                support * databases
            )
            for database in requests:
                service.predict(database)
            resident = self._resident(engine)
            assert len(resident) <= databases
            assert requests[-1] in resident
            # A re-sent resident database (new but equal) is answered by
            # the memo: one hit per support feature and no evaluation.
            before = engine.work_snapshot()
            again = service.predict(
                retail_database(n_customers=3, seed=40 + databases + 2)
                .database
            )
            after = engine.work_snapshot()
        assert again == retail_session.classify(requests[-1])
        assert after["cache_hits"] - before["cache_hits"] == support
        assert after["hom_checks"] == before["hom_checks"]
        assert after["backtrack_nodes"] == before["backtrack_nodes"]

    def test_a_given_engine_is_used_as_given(self, retail_session):
        engine = EvaluationEngine(cache_size=7)
        with InferenceService(
            retail_session.export_artifact(), engine=engine
        ) as service:
            assert service._engine is engine
            assert engine.cache_details()["answers"].maxsize == 7
