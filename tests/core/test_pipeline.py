"""Tests for the high-level FeatureEngineeringSession facade."""

from __future__ import annotations

import pytest

from repro.cq.engine import EvaluationEngine, set_default_engine
from repro.data import Database, TrainingDatabase
from repro.exceptions import NotSeparableError, SeparabilityError
from repro.core.languages import CQ_ALL, BoundedAtomsCQ, GhwClass
from repro.core.pipeline import FeatureEngineeringSession
from repro.workloads.molecules import molecule_database
from repro.workloads.retail import retail_database


@pytest.fixture
def evaluation():
    return Database.from_tuples(
        {
            "E": [("f", "g"), ("g", "h"), ("i", "j")],
            "eta": [("f",), ("g",), ("i",)],
        }
    )


class TestCqmSessions:
    def test_exact_separable(self, path_training, evaluation):
        session = FeatureEngineeringSession(
            path_training, BoundedAtomsCQ(2)
        )
        assert session.separable
        labeling = session.classify(evaluation)
        assert labeling["f"] == 1
        assert labeling["g"] == -1

    def test_exact_inseparable(self, path_training):
        session = FeatureEngineeringSession(
            path_training, BoundedAtomsCQ(1)
        )
        assert not session.separable
        with pytest.raises(NotSeparableError):
            session.classify(path_training.database)

    def test_approximate(self):
        db = Database.from_tuples(
            {
                "R": [("a",), ("b",), ("c",), ("d",)],
                "eta": [("a",), ("b",), ("c",), ("d",)],
            }
        )
        training = TrainingDatabase.from_examples(
            db, ["a", "b", "c"], ["d"]
        )
        session = FeatureEngineeringSession(
            training, BoundedAtomsCQ(1), epsilon=0.25
        )
        assert session.separable
        assert session.report().training_errors == 1

    def test_materialize(self, path_training):
        session = FeatureEngineeringSession(
            path_training, BoundedAtomsCQ(2)
        )
        pair = session.materialize()
        assert pair.separates(path_training)


class TestGhwSessions:
    def test_classifies_without_features(self, path_training, evaluation):
        session = FeatureEngineeringSession(path_training, GhwClass(1))
        assert session.separable
        labeling = session.classify(evaluation)
        assert labeling["f"] == 1

    def test_approximate_repair(self):
        db = Database.from_tuples(
            {
                "R": [("a",), ("b",), ("c",), ("d",)],
                "eta": [("a",), ("b",), ("c",), ("d",)],
            }
        )
        training = TrainingDatabase.from_examples(
            db, ["a", "b", "c"], ["d"]
        )
        exact = FeatureEngineeringSession(training, GhwClass(1))
        assert not exact.separable
        approx = FeatureEngineeringSession(
            training, GhwClass(1), epsilon=0.25
        )
        assert approx.separable
        labeling = approx.classify(db)
        assert all(labeling[e] == 1 for e in db.entities())

    def test_materialize_generates_statistic(self, path_training):
        session = FeatureEngineeringSession(path_training, GhwClass(1))
        pair = session.materialize()
        assert pair.separates(path_training)

    def test_report(self, path_training):
        session = FeatureEngineeringSession(path_training, GhwClass(1))
        report = session.report()
        assert report.separable
        assert report.dimension == 3
        assert "GHW(1)" in str(report)


class TestCqSessions:
    def test_classifies_via_canonical_features(self, path_training):
        session = FeatureEngineeringSession(path_training, CQ_ALL)
        assert session.separable
        labeling = session.classify(path_training.database)
        for entity in path_training.entities:
            assert labeling[entity] == path_training.label(entity)

    def test_materializes_canonical_statistic(self, path_training):
        session = FeatureEngineeringSession(path_training, CQ_ALL)
        pair = session.materialize()
        assert pair.separates(path_training)

    def test_no_approximate_cq(self, path_training):
        with pytest.raises(SeparabilityError):
            FeatureEngineeringSession(path_training, CQ_ALL, epsilon=0.1)


class TestFoSessions:
    def test_classifies_by_isomorphism_type(self, path_training, evaluation):
        from repro.fo.fragments import FO

        session = FeatureEngineeringSession(path_training, FO)
        assert session.separable
        labeling = session.classify(evaluation)
        assert labeling["f"] == 1  # isomorphic to the positive type
        assert labeling["g"] == -1

    def test_report_dimension_one(self, path_training):
        from repro.fo.fragments import FO

        session = FeatureEngineeringSession(path_training, FO)
        report = session.report()
        assert report.separable
        assert "FO" in str(report)

    def test_no_approximate_fo(self, path_training):
        from repro.fo.fragments import FO

        with pytest.raises(SeparabilityError):
            FeatureEngineeringSession(path_training, FO, epsilon=0.1)


class TestValidation:
    def test_bad_epsilon(self, path_training):
        with pytest.raises(SeparabilityError):
            FeatureEngineeringSession(
                path_training, GhwClass(1), epsilon=1.0
            )


def _fo():
    from repro.fo.fragments import FO

    return FO


class TestEndToEndMatrix:
    """One full train → report → classify run per query-class row.

    Covers every language of the paper's Table 1 (CQ[m], GHW(k), CQ, FO)
    end to end on a held-out evaluation database, plus the ``epsilon > 0``
    branch for the classes that support approximate separability.
    """

    @pytest.mark.parametrize(
        "make_language, epsilon",
        [
            (lambda: BoundedAtomsCQ(2), 0.0),
            (lambda: GhwClass(1), 0.0),
            (lambda: CQ_ALL, 0.0),
            (_fo, 0.0),
        ],
        ids=["CQ[2]", "GHW(1)", "CQ", "FO"],
    )
    def test_exact_rows(
        self, path_training, evaluation, make_language, epsilon
    ):
        with FeatureEngineeringSession(
            path_training, make_language(), epsilon=epsilon
        ) as session:
            assert session.separable
            report = session.report()
            assert report.training_errors == 0

            # Training data must be reproduced exactly at epsilon = 0.
            training_labels = session.classify(path_training.database)
            for entity in path_training.entities:
                assert training_labels[entity] == path_training.label(
                    entity
                )

            # The held-out database gets a total ±1 labeling.
            evaluation_labels = session.classify(evaluation)
            assert set(evaluation_labels) == evaluation.entities()
            assert all(
                evaluation_labels[e] in (1, -1)
                for e in evaluation.entities()
            )

    @pytest.mark.parametrize(
        "make_language",
        [lambda: BoundedAtomsCQ(1), lambda: GhwClass(1)],
        ids=["CQ[1]", "GHW(1)"],
    )
    def test_epsilon_rows(self, make_language):
        """epsilon > 0 rescues instances the exact branch rejects."""
        db = Database.from_tuples(
            {
                "R": [("a",), ("b",), ("c",), ("d",)],
                "eta": [("a",), ("b",), ("c",), ("d",)],
            }
        )
        training = TrainingDatabase.from_examples(
            db, ["a", "b", "c"], ["d"]
        )
        exact = FeatureEngineeringSession(training, make_language())
        assert not exact.separable

        with FeatureEngineeringSession(
            training, make_language(), epsilon=0.25
        ) as approx:
            assert approx.separable
            report = approx.report()
            assert 0 < report.training_errors <= 0.25 * len(
                training.entities
            )
            labels = approx.classify(db)
            assert set(labels) == db.entities()

    def test_workers_matrix_row(self, path_training, evaluation):
        """A workers=2 session runs the same e2e path as serial."""
        with FeatureEngineeringSession(
            path_training, BoundedAtomsCQ(2), workers=2
        ) as session:
            assert session.separable
            labels = session.classify(evaluation)
        serial = FeatureEngineeringSession(
            path_training, BoundedAtomsCQ(2)
        ).classify(evaluation)
        assert labels == serial


class TestArtifactChecksumPins:
    """Three CQ[m] fits whose artifacts must not change with the fill.

    The fill runs on the process-default engine, so a numpy row installs a
    numpy default engine for the fit; a 2-worker row also fills through a
    session-owned pool of that backend.  Every row must export the same
    artifact, byte for byte.
    """

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("backend", ["python", "numpy"])
    @pytest.mark.parametrize(
        "make_training, atoms, checksum",
        [
            pytest.param(
                lambda: retail_database(n_customers=40, seed=0), 3,
                "sha256:071a5809e81582ac8282ed0dd5bddfb6"
                "9ed9cf8df5cf7c3bf0d7f2cd3d0c68b3",
                id="retail-40-CQ3",
            ),
            pytest.param(
                lambda: retail_database(n_customers=8, seed=3), 3,
                "sha256:2f876562f16251867a7a6a167d74c42a"
                "b28a3231e4df7998c40e9f19f56198b7",
                id="retail-8-CQ3",
            ),
            pytest.param(
                lambda: molecule_database(n_molecules=128, seed=1), 2,
                "sha256:488f7fbbf1f7f38d931ee2ba7ffaf189"
                "de7c51a08681e378308ac574a590fe5f",
                id="molecules-128-CQ2",
            ),
        ],
    )
    def test_checksum(self, make_training, atoms, checksum, backend, workers):
        previous = set_default_engine(EvaluationEngine(backend=backend))
        try:
            with FeatureEngineeringSession(
                make_training(), BoundedAtomsCQ(atoms),
                workers=workers, backend=backend,
            ) as session:
                assert session.export_artifact().checksum() == checksum
        finally:
            set_default_engine(previous)


class _SpyExecutor:
    """A SerialExecutor that counts close() calls (for leak regression)."""

    def __init__(self):
        from repro.runtime import SerialExecutor

        self._inner = SerialExecutor()
        self.close_calls = 0

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def close(self):
        self.close_calls += 1
        self._inner.close()


@pytest.fixture
def spy_executor(monkeypatch):
    """Make workers>1 sessions own a close-counting serial executor."""
    import repro.runtime

    spy = _SpyExecutor()
    monkeypatch.setattr(repro.runtime, "make_executor", lambda *a, **k: spy)
    return spy


class TestLifecycle:
    """close()/__exit__ must release the owned pool exactly once."""

    def test_fit_failure_closes_owned_executor(
        self, path_training, spy_executor
    ):
        # AllCQ + epsilon raises inside _fit, *after* the session created
        # its own executor — the regression this guards is that pool
        # leaking with no handle for the caller to close it on.
        with pytest.raises(SeparabilityError):
            FeatureEngineeringSession(
                path_training, CQ_ALL, epsilon=0.1, workers=2
            )
        assert spy_executor.close_calls == 1

    def test_close_is_idempotent(self, path_training, spy_executor):
        session = FeatureEngineeringSession(
            path_training, BoundedAtomsCQ(2), workers=2
        )
        session.close()
        session.close()
        assert spy_executor.close_calls == 1

    def test_exit_after_explicit_close_is_single_shutdown(
        self, path_training, spy_executor
    ):
        with FeatureEngineeringSession(
            path_training, BoundedAtomsCQ(2), workers=2
        ) as session:
            session.close()
        assert spy_executor.close_calls == 1

    def test_exit_closes_pool_when_classify_raises(self, spy_executor):
        # E(a,b), E(b,a) makes a and b hom-equivalent points with opposite
        # labels: the session constructs fine but classify raises — the
        # pool must still be released on context-manager exit.
        training = _not_separable_training()
        with pytest.raises(NotSeparableError):
            with FeatureEngineeringSession(
                training, BoundedAtomsCQ(2), workers=2
            ) as session:
                session.classify(training.database)
        assert spy_executor.close_calls == 1

    def test_exit_closes_pool_when_caller_raises(
        self, path_training, spy_executor
    ):
        class _Boom(Exception):
            pass

        with pytest.raises(_Boom):
            with FeatureEngineeringSession(
                path_training, BoundedAtomsCQ(2), workers=2
            ):
                raise _Boom()
        assert spy_executor.close_calls == 1

    def test_session_stays_usable_after_close(
        self, path_training, evaluation
    ):
        session = FeatureEngineeringSession(
            path_training, BoundedAtomsCQ(2), workers=2
        )
        before = session.classify(evaluation)
        session.close()
        assert session.executor is None
        assert session.classify(evaluation) == before  # serial fallback

    def test_serial_session_close_is_a_no_op(self, path_training):
        session = FeatureEngineeringSession(path_training, BoundedAtomsCQ(2))
        session.close()
        session.close()
        assert session.executor is None


def _not_separable_training():
    db = Database.from_tuples(
        {"E": [("a", "b"), ("b", "a")], "eta": [("a",), ("b",)]}
    )
    return TrainingDatabase.from_examples(db, ["a"], ["b"])
