"""A high-level facade over the paper's algorithms.

:class:`FeatureEngineeringSession` bundles the common workflow — pick a
regularized feature class, check separability (exactly or with an error
budget), optionally materialize a statistic, classify evaluation databases —
behind one object, dispatching to the right algorithm per class:

====================  =======================  ===========================
class                 separability             classification
====================  =======================  ===========================
``BoundedAtomsCQ``    Prop 4.1 / 4.3 (LP)      materialized pair
``GhwClass``          Theorem 5.3 (game)       Algorithm 1 (no features!)
``AllCQ``             Kimelfeld–Ré pair test   canonical-feature staircase
``FirstOrder``        isomorphism classes      positive-type disjunction
====================  =======================  ===========================

Approximate variants (``epsilon > 0``) use Section 7's algorithms where they
exist (Algorithm 2 for GHW(k), branch-and-bound for CQ[m]).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

from repro.data.database import Database

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.runtime.executor import Executor
from repro.data.labeling import Labeling, TrainingDatabase
from repro.exceptions import NotSeparableError, SeparabilityError
from repro.core.approx import cqm_approx_separability
from repro.core.ghw_approx import ghw_best_relabeling
from repro.core.ghw_classify import GhwClassifier
from repro.core.ghw_generate import generate_ghw_statistic
from repro.core.languages import AllCQ, BoundedAtomsCQ, GhwClass, QueryClass
from repro.core.separability import cqm_separability
from repro.core.statistic import SeparatingPair

__all__ = ["SessionReport", "FeatureEngineeringSession"]


def _is_first_order(language) -> bool:
    from repro.fo.fragments import FirstOrder

    return isinstance(language, FirstOrder)

Element = Any


@dataclass(frozen=True)
class SessionReport:
    """Summary of a training run: decisions and error accounting."""

    language: str
    separable: bool
    epsilon: float
    training_errors: int
    dimension: Optional[int]

    def __str__(self) -> str:
        outcome = "separable" if self.separable else "NOT separable"
        budget = f" (eps={self.epsilon})" if self.epsilon else ""
        dimension = (
            f", dimension {self.dimension}"
            if self.dimension is not None
            else ""
        )
        return (
            f"{self.language}: {outcome}{budget}, "
            f"{self.training_errors} training errors{dimension}"
        )


class FeatureEngineeringSession:
    """Train once, classify many times, under one regularized query class.

    Parameters
    ----------
    training:
        The labeled training database.
    language:
        A :class:`~repro.core.languages.QueryClass` — the regularization.
    epsilon:
        Error budget in [0, 1); 0 demands perfect separation.
    workers:
        Degree of parallelism for the sharded stages (the CQ-CLS
        hom-preorder and GHW(k) feature generation); 1 (the default)
        stays fully in-process.  The pool starts on first use, so a
        CQ[m] fit, whose indicator fill runs in-process, never starts
        it.  Ignored when ``executor`` is given.
    executor:
        An explicit :class:`~repro.runtime.Executor` to use instead of one
        owned by the session.  The caller keeps ownership (the session
        never closes it).
    backend:
        Evaluation backend for classification and for session-owned
        worker pools: ``"python"`` (default) or ``"numpy"`` (vectorized
        indicator fills, falling back per instance; results are
        bit-identical).  Fitting itself stays on the process-default
        engine, the CQ[m] indicator fill included.
    store:
        Optional warm-state store (path string or an open store object)
        for the session's classification engine and any session-owned
        worker pool: memoized answers persist across process restarts.  Giving a store forces a session-private engine
        even on the default backend (the process-default engine stays
        store-less).
    """

    def __init__(
        self,
        training: TrainingDatabase,
        language: QueryClass,
        epsilon: float = 0.0,
        workers: int = 1,
        executor: Optional["Executor"] = None,
        backend: str = "python",
        store: Optional[Any] = None,
    ) -> None:
        if not 0 <= epsilon < 1:
            raise SeparabilityError("epsilon must lie in [0, 1)")
        self._training = training
        self._language = language
        self._epsilon = epsilon
        if backend == "python" and store is None:
            self._engine = None
        else:
            # Validates the backend name, too (unknown names raise).
            from repro.cq.engine import EvaluationEngine

            self._engine = EvaluationEngine(backend=backend, store=store)
        if executor is not None:
            self._executor: Optional["Executor"] = executor
            self._owns_executor = False
        elif workers > 1:
            from repro.runtime import make_executor

            store_path = (
                self._engine.store.path
                if self._engine is not None and self._engine.store is not None
                else None
            )
            self._executor = make_executor(
                workers, backend=backend, store_path=store_path
            )
            self._owns_executor = True
        else:
            self._executor = None
            self._owns_executor = False
        self._pair: Optional[SeparatingPair] = None
        self._ghw_device: Optional[GhwClassifier] = None
        self._cq_device = None
        self._fo_training = None
        self._separable = False
        self._training_errors = 0
        try:
            self._fit()
        except BaseException:
            # Fitting raised before the caller ever saw the session: a
            # session-owned worker pool would leak (no handle to close it
            # on), so release it here and re-raise.
            self.close()
            raise

    # ------------------------------------------------------------------

    def _fit(self) -> None:
        language = self._language
        training = self._training
        budget = int(self._epsilon * len(training.entities))
        if isinstance(language, BoundedAtomsCQ):
            if self._epsilon == 0:
                result = cqm_separability(
                    training,
                    language.max_atoms,
                    language.max_occurrences,
                )
                self._separable = result.separable
                self._pair = result.separating_pair
                self._training_errors = 0 if result.separable else -1
            else:
                result = cqm_approx_separability(
                    training,
                    language.max_atoms,
                    self._epsilon,
                    language.max_occurrences,
                )
                self._separable = result.separable
                self._pair = result.pair if result.separable else None
                self._training_errors = result.min_errors
        elif isinstance(language, GhwClass):
            approximation = ghw_best_relabeling(training, language.k)
            self._training_errors = approximation.disagreement
            self._separable = approximation.disagreement <= budget
            if self._separable:
                repaired = training.relabel(approximation.relabeled)
                self._ghw_device = GhwClassifier(repaired, language.k)
        elif isinstance(language, AllCQ):
            from repro.core.brute import cq_separable

            if self._epsilon != 0:
                raise SeparabilityError(
                    "approximate CQ-separability has no tractable algorithm "
                    "in the paper; use GHW(k) or CQ[m]"
                )
            self._separable = cq_separable(training)
            self._training_errors = 0 if self._separable else -1
            if self._separable:
                from repro.core.cq_generate import CqClassifier

                self._cq_device = CqClassifier(
                    training, executor=self._executor
                )
        elif _is_first_order(language):
            from repro.fo.separability import fo_separability

            if self._epsilon != 0:
                raise SeparabilityError(
                    "approximate FO-separability is outside the paper's "
                    "scope; use GHW(k) or CQ[m]"
                )
            result = fo_separability(training)
            self._separable = result.separable
            self._training_errors = 0 if result.separable else -1
            self._fo_training = training if result.separable else None
        else:
            raise SeparabilityError(
                f"unsupported language {language!r} for sessions"
            )

    # ------------------------------------------------------------------

    @property
    def separable(self) -> bool:
        return self._separable

    @property
    def language(self) -> QueryClass:
        return self._language

    @property
    def training(self) -> TrainingDatabase:
        return self._training

    @property
    def executor(self) -> Optional["Executor"]:
        """The executor sharded stages run on (None when fully serial)."""
        return self._executor

    def close(self) -> None:
        """Shut down the session-owned worker pool, if any.

        A no-op for serial sessions and for sessions handed an external
        executor, and idempotent: repeated calls (or a context-manager
        exit after an explicit ``close()``) never double-shutdown the
        pool.  After closing, the session stays usable — sharded stages
        simply fall back to the serial path.  Sessions also work as
        context managers.
        """
        if self._owns_executor and self._executor is not None:
            executor, self._executor = self._executor, None
            executor.close()

    def __enter__(self) -> "FeatureEngineeringSession":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()

    def report(self) -> SessionReport:
        dimension: Optional[int] = None
        if self._pair is not None:
            dimension = self._pair.statistic.dimension
        elif self._ghw_device is not None:
            dimension = self._ghw_device.dimension
        elif self._cq_device is not None:
            dimension = self._cq_device.dimension
        return SessionReport(
            repr(self._language),
            self._separable,
            self._epsilon,
            max(self._training_errors, 0),
            dimension,
        )

    def classify(self, evaluation: Database) -> Labeling:
        """Label the entities of an evaluation database.

        For GHW(k) this runs Algorithm 1 — no statistic is materialized.
        """
        if not self._separable:
            raise NotSeparableError(
                "training database was not separable under this session's "
                "language and error budget"
            )
        if self._ghw_device is not None:
            return self._ghw_device.classify(evaluation)
        if self._cq_device is not None:
            return self._cq_device.classify(evaluation)
        if self._fo_training is not None:
            from repro.fo.separability import fo_classify

            return fo_classify(self._fo_training, evaluation)
        if self._pair is not None:
            return self._pair.classify(evaluation, engine=self._engine)
        raise SeparabilityError(  # pragma: no cover - all languages covered
            f"{self._language!r} has no classification routine"
        )

    def materialize(self) -> SeparatingPair:
        """An explicit (statistic, classifier) pair.

        For GHW(k) this invokes the exponential Prop 5.6 generation — it can
        be large or fail on its size guards; Algorithm 1 classification via
        :meth:`classify` never needs it.
        """
        if not self._separable:
            raise NotSeparableError("nothing to materialize")
        if self._pair is not None:
            return self._pair
        if self._ghw_device is not None:
            assert isinstance(self._language, GhwClass)
            return generate_ghw_statistic(
                self._ghw_device.training,
                self._language.k,
                executor=self._executor,
            )
        if self._cq_device is not None:
            from repro.core.cq_generate import generate_cq_statistic

            return generate_cq_statistic(
                self._training, executor=self._executor
            )
        raise SeparabilityError(  # pragma: no cover - all languages covered
            f"{self._language!r} has no materialization routine"
        )

    def export_artifact(self, metadata: Optional[dict] = None):
        """Export the fitted model as a :class:`~repro.serve.ModelArtifact`.

        The artifact captures this session's *exact* separating pair —
        statistic queries, separator weights and threshold — plus schema,
        query class, and training metadata, so held-out evaluation and
        serving run against the trained hypothesis rather than a refit.
        For GHW(k) this materializes via Prop 5.6 (see
        :meth:`materialize`); FO sessions have no finite statistic and
        raise.  ``metadata`` entries are merged over the defaults and
        become part of the checksummed payload.
        """
        from repro.serve.artifact import ModelArtifact

        return ModelArtifact.from_session(self, metadata=metadata)
