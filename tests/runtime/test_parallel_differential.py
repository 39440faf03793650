"""Differential suite: parallel execution must be bit-identical to serial.

Every sharded entry point (the CQ-CLS hom-preorder and the CQ and GHW(k)
statistic generators) is run twice — once fully in-process and once
through a :class:`~repro.runtime.ParallelExecutor` — and the results are
compared for exact equality (not approximate agreement).  Sessions are
compared the same way at ``workers=2``; a CQ[m] session fills its
indicator matrix in-process at any worker count.
"""

from __future__ import annotations

import pytest

from repro.core.cq_generate import CqClassifier, generate_cq_statistic
from repro.core.ghw_generate import generate_ghw_statistic
from repro.core.languages import AllCQ, BoundedAtomsCQ, GhwClass
from repro.core.pipeline import FeatureEngineeringSession
from repro.cq.engine import (
    EvaluationEngine,
    default_engine,
    set_default_engine,
)
from repro.runtime import ParallelExecutor, SerialExecutor
from repro.workloads.molecules import molecule_database
from repro.workloads.retail import retail_database


@pytest.fixture(scope="module")
def retail():
    # n_customers=4 keeps the AllCQ hom-preorder tractable: its pointed
    # hom checks are against the canonical CQ of the *whole* database,
    # which grows sharply with instance size.
    return retail_database(n_customers=4, seed=7)


@pytest.fixture(scope="module")
def molecules():
    return molecule_database(n_molecules=8, seed=7)


class TestGeneratorParity:
    def test_cq_classifier_preorder(self, retail):
        serial = CqClassifier(retail)
        with ParallelExecutor(2) as executor:
            parallel = CqClassifier(retail, executor=executor)
        assert parallel.representatives == serial.representatives
        assert parallel.classify(retail.database) == serial.classify(
            retail.database
        )

    def test_generate_cq_statistic(self, retail):
        serial = generate_cq_statistic(retail)
        with ParallelExecutor(2) as executor:
            parallel = generate_cq_statistic(retail, executor=executor)
        assert parallel.statistic.queries == serial.statistic.queries

    def test_generate_ghw_statistic(self, molecules):
        serial = generate_ghw_statistic(molecules, 1)
        with ParallelExecutor(2) as executor:
            parallel = generate_ghw_statistic(
                molecules, 1, executor=executor
            )
        assert parallel.statistic.queries == serial.statistic.queries
        assert parallel.classify(molecules.database) == serial.classify(
            molecules.database
        )


@pytest.mark.parametrize(
    "language",
    [BoundedAtomsCQ(2), GhwClass(1), AllCQ()],
    ids=repr,
)
class TestSessionParity:
    def test_parallel_session_matches_serial(self, retail, language):
        with FeatureEngineeringSession(retail, language) as serial:
            serial_report = serial.report()
            serial_labels = (
                serial.classify(retail.database)
                if serial.separable
                else None
            )
        with FeatureEngineeringSession(
            retail, language, workers=2
        ) as parallel:
            parallel_report = parallel.report()
            parallel_labels = (
                parallel.classify(retail.database)
                if parallel.separable
                else None
            )
        assert parallel_report == serial_report
        assert parallel_labels == serial_labels

    def test_external_executor_stays_open(self, retail, language):
        with SerialExecutor() as external:
            session = FeatureEngineeringSession(
                retail, language, executor=external
            )
            session.close()  # must not close the caller's executor
            assert session.executor is external


def test_approx_session_parity(retail):
    """The epsilon > 0 (approximate separability) path shards identically."""
    language = BoundedAtomsCQ(2)
    with FeatureEngineeringSession(retail, language, epsilon=0.5) as serial:
        serial_report = serial.report()
        serial_labels = (
            serial.classify(retail.database) if serial.separable else None
        )
    with FeatureEngineeringSession(
        retail, language, epsilon=0.5, workers=2
    ) as parallel:
        parallel_report = parallel.report()
        parallel_labels = (
            parallel.classify(retail.database)
            if parallel.separable
            else None
        )
    assert parallel_report == serial_report
    assert parallel_labels == serial_labels


def test_cqm_session_fills_without_starting_the_pool(retail):
    """A CQ[m] fit at 2 workers fills in-process: the pool never starts."""
    with FeatureEngineeringSession(retail, BoundedAtomsCQ(2)) as serial:
        expected = serial.report()
    # A cold default engine: a memo warmed by the serial fit would answer
    # every query before any fill step ran.
    previous = set_default_engine(EvaluationEngine())
    try:
        with FeatureEngineeringSession(
            retail, BoundedAtomsCQ(2), workers=2
        ) as parallel:
            assert parallel.report() == expected
            assert default_engine().counters.hom_checks > 0
            assert isinstance(parallel.executor, ParallelExecutor)
            assert parallel.executor.effective_start_method is None
    finally:
        set_default_engine(previous)
