"""The inference service: load an artifact once, serve predictions many times.

:class:`InferenceService` is the serving half of the train-once /
serve-many split.  It loads a :class:`~repro.serve.artifact.ModelArtifact`,
restricts its separating pair to the support — the features with a
nonzero weight, which label every database exactly as the whole pair
does — compiles those feature queries once (canonical databases and their
indexes are built at warm-up, not on the first request), and then labels
pointed databases in this process, on one warm
:class:`~repro.cq.engine.EvaluationEngine`, through the same batch entry
points training used — so a served prediction is bit-identical to
``FeatureEngineeringSession.classify`` on the same input.

Degradation is configurable per service: ``on_error="fail"`` raises a
:class:`~repro.exceptions.ServeError` on the first request whose feature
evaluation fails (malformed input databases), ``on_error="abstain"``
converts the failure into a ``None`` result for that request and counts it
in the metrics — a production service keeps serving the healthy requests.

Stateful serving over an *evolving* request database goes through
:meth:`InferenceService.open_stream`: a :class:`ServiceStream` holds a
:class:`~repro.stream.classifier.StreamingClassifier` whose engine caches
are migrated — not rebuilt — across deltas, so a prediction after a small
delta re-evaluates only the features that could have changed.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence

from repro.cq.engine import DEFAULT_CACHE_SIZE, EvaluationEngine
from repro.data.database import Database
from repro.data.labeling import Labeling
from repro.data.schema import EntitySchema, Schema
from repro.exceptions import ReproError, ServeError
from repro.serve.artifact import ModelArtifact
from repro.serve.metrics import ServiceMetrics

__all__ = ["InferenceService", "ServiceStream", "ON_ERROR_MODES"]

#: Valid degradation modes for feature-evaluation failures.
ON_ERROR_MODES = ("fail", "abstain")


class InferenceService:
    """Serve ``predict`` / ``predict_batch`` for one loaded model.

    Parameters
    ----------
    artifact:
        The trained model to serve.
    on_error:
        ``"fail"`` raises :class:`ServeError` on a request whose feature
        evaluation fails; ``"abstain"`` returns ``None`` for that request
        and keeps serving.
    engine:
        An explicit evaluation engine, used as given (defaults to a fresh
        private one, so the service's cache statistics are attributable
        to serving).  When given, it wins over ``backend``.
    backend:
        Evaluation backend for the service-owned engine: ``"python"``
        (default) or ``"numpy"`` (vectorized indicator fills with
        graceful per-instance fallback; see
        :meth:`~repro.cq.engine.EvaluationEngine.backend_info`, which
        :meth:`metrics_snapshot` re-exports under ``engine.backend``).
    store:
        Optional warm-state store (path string,
        :class:`~repro.store.ContentStore`, or
        :class:`~repro.store.WarmStore`) attached to the service-owned
        engine.  A restarted service against the same store loads each
        request's memoized answers from disk on first use instead of
        recomputing them; :meth:`warm_up` still compiles the plans in
        memory.  Ignored when an explicit ``engine`` is given (attach the
        store to that engine instead).

    The service-owned engine's memo holds as many request databases as
    an engine with the default cache size holds when it evaluates every
    feature: each request brings ``support`` answers, so the cache size
    is ``support × (DEFAULT_CACHE_SIZE // dimension)``.  The memo's
    memory is the request databases its keys keep alive, so this keeps
    the same number of them resident whatever the support.
    """

    def __init__(
        self,
        artifact: ModelArtifact,
        on_error: str = "fail",
        engine: Optional[EvaluationEngine] = None,
        backend: str = "python",
        store: Optional[Any] = None,
    ) -> None:
        if on_error not in ON_ERROR_MODES:
            raise ServeError(
                f"on_error must be one of {ON_ERROR_MODES}, got {on_error!r}"
            )
        self._artifact = artifact
        self._pair = artifact.pair().support()
        # Computed once: a checksum walks every rule string, too slow to
        # recompute on every metrics snapshot.
        self._checksum = artifact.checksum()
        self._on_error = on_error
        if engine is None:
            databases = DEFAULT_CACHE_SIZE // max(1, artifact.dimension)
            engine = EvaluationEngine(
                cache_size=max(1, self._pair.statistic.dimension)
                * max(1, databases),
                backend=backend,
                store=store,
            )
        self._engine = engine
        self.metrics = ServiceMetrics()
        self._warmed = False

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def artifact(self) -> ModelArtifact:
        return self._artifact

    @property
    def checksum(self) -> str:
        """The artifact's checksum, computed once in the constructor."""
        return self._checksum

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def warm_up(self) -> None:
        """Compile the model ahead of the first request.

        Compiles the :class:`~repro.cq.plan.QueryPlan` of every feature
        query in the support into the serving engine's plan cache (which
        also builds the canonical databases and their indexes).
        Idempotent; :meth:`predict` and :meth:`predict_batch` call it
        lazily on first use.
        """
        if self._warmed:
            return
        vectorize = self._engine.backend == "numpy"
        for query in self._pair.statistic:
            plan = self._engine.plan_for(query)
            if vectorize:
                plan.vectorized()
        self._warmed = True
        self.metrics.observe_warmup()

    def close(self) -> None:
        """Nothing to release: the service serves in this process.

        Kept so callers can manage a service like any other resource (the
        registry closes the services it evicts).  Idempotent; the service
        keeps serving after it.
        """

    def __enter__(self) -> "InferenceService":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------

    def predict(self, database: Database) -> Optional[Labeling]:
        """Label the entities of one pointed database.

        Returns the labeling, or ``None`` when the request degraded under
        ``on_error="abstain"``.  Bit-identical to
        ``FeatureEngineeringSession.classify`` for the session the model
        was exported from.
        """
        if not self._warmed:
            self.warm_up()
        start = time.perf_counter()
        try:
            labeling = self._pair.classify(database, engine=self._engine)
        except ReproError as error:
            self.metrics.observe_request(
                time.perf_counter() - start, 0, error=True
            )
            if self._on_error == "fail":
                raise ServeError(f"prediction failed: {error}") from error
            return None
        self.metrics.observe_request(
            time.perf_counter() - start, len(labeling)
        )
        return labeling

    def predict_batch(
        self, databases: Sequence[Database]
    ) -> List[Optional[Labeling]]:
        """Label a micro-batch of pointed databases, one result per input.

        Results arrive in input order.  Entries are ``None`` exactly for
        requests that degraded under ``on_error="abstain"``; under
        ``"fail"`` the first failing request raises.
        """
        databases = list(databases)
        if not databases:
            # An empty micro-batch is a result, not a request: the gateway's
            # batch path (and any caller draining a queue) may legitimately
            # hand over nothing, and must get [] back without warming the
            # model or touching the metrics.
            return []
        if not self._warmed:
            self.warm_up()
        start = time.perf_counter()
        results: List[Optional[Labeling]] = []
        errors = 0
        entities = 0
        for database in databases:
            try:
                labeling = self._pair.classify(database, engine=self._engine)
            except ReproError as error:
                errors += 1
                if self._on_error == "fail":
                    self.metrics.observe_batch(
                        time.perf_counter() - start,
                        len(databases),
                        entities,
                        errors,
                    )
                    raise ServeError(f"prediction failed: {error}") from error
                results.append(None)
                continue
            entities += len(labeling)
            results.append(labeling)
        self.metrics.observe_batch(
            time.perf_counter() - start, len(databases), entities, errors
        )
        return results

    # ------------------------------------------------------------------
    # Stateful streaming
    # ------------------------------------------------------------------

    def open_stream(self, base: Database) -> "ServiceStream":
        """Open a stateful stream over an evolving copy of ``base``.

        The stream owns a private engine (the service's batch engine stays
        warm and unscathed) and records its predictions and deltas into
        this service's metrics.  Its schema is the artifact schema merged
        with the base's, so deltas may mention any relation the model
        knows about even when the base has no facts over it yet.
        """
        if not self._warmed:
            self.warm_up()
        artifact_schema = self._artifact.schema
        merged = EntitySchema(
            artifact_schema.union(base.schema),
            entity_symbol=artifact_schema.entity_symbol,
        )
        self.metrics.observe_stream_open()
        return ServiceStream(self, base, merged)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def metrics_snapshot(self) -> dict:
        """Request metrics plus engine work counters and cache hit rates."""
        snapshot = self.metrics.snapshot()
        snapshot["model"] = {
            "dimension": self._artifact.dimension,
            "language": repr(self._artifact.language),
            "checksum": self._checksum,
        }
        work = self._engine.work_snapshot()
        info = self._engine.cache_info()
        attempts = info.hits + info.misses
        snapshot["engine"] = dict(work)
        snapshot["engine"]["cache_hit_rate"] = (
            info.hits / attempts if attempts else 0.0
        )
        plans = self._engine.cache_details()["plans"]
        snapshot["engine"]["compiled_plans"] = plans.currsize
        snapshot["engine"]["plan_cache_hits"] = plans.hits
        snapshot["engine"]["backend"] = self._engine.backend_info()
        if self._engine.store is not None:
            snapshot["engine"]["store"] = self._engine.store.stats()
        return snapshot

    def __repr__(self) -> str:
        return (
            f"InferenceService(model={self._artifact!r}, "
            f"on_error={self._on_error!r})"
        )


class ServiceStream:
    """One stateful streaming session against an :class:`InferenceService`.

    Obtained via :meth:`InferenceService.open_stream`.  The stream holds
    the evolving request database; :meth:`apply` advances it by a
    :class:`~repro.stream.delta.Delta` (migrating the stream engine's
    caches relation-scoped), and :meth:`predict` labels the *current*
    version — re-evaluating only feature queries whose relations a delta
    touched since the last prediction, yet bit-identical to a stateless
    ``predict`` on the materialized database.

    Degradation follows the owning service's ``on_error`` mode; metrics
    (requests, deltas, latencies) are recorded into the owning service's
    :class:`~repro.serve.metrics.ServiceMetrics`.
    """

    def __init__(
        self,
        service: InferenceService,
        base: Database,
        schema: Optional[Schema] = None,
    ) -> None:
        # Local import: repro.stream imports repro.core at load time, which
        # would cycle with this module's import from repro.serve.artifact.
        from repro.stream.classifier import StreamingClassifier

        self._service = service
        self._classifier = StreamingClassifier(
            service.artifact.pair(), base, schema=schema
        )

    # ------------------------------------------------------------------

    @property
    def database(self) -> Database:
        """The materialized current version of the evolving database."""
        return self._classifier.database

    @property
    def version(self) -> int:
        return self._classifier.evolving.version

    # ------------------------------------------------------------------

    def apply(self, delta: Any) -> Any:
        """Apply a delta to the stream state; returns the effective delta."""
        start = time.perf_counter()
        effective = self._classifier.apply(delta)
        self._service.metrics.observe_delta(time.perf_counter() - start)
        return effective

    def predict(self) -> Optional[Labeling]:
        """Label the entities of the current version.

        Returns ``None`` when the evaluation failed and the owning service
        degrades with ``on_error="abstain"``.
        """
        start = time.perf_counter()
        try:
            labeling = self._classifier.classify()
        except ReproError as error:
            self._service.metrics.observe_request(
                time.perf_counter() - start, 0, error=True
            )
            if self._service._on_error == "fail":
                raise ServeError(f"prediction failed: {error}") from error
            return None
        self._service.metrics.observe_request(
            time.perf_counter() - start, len(labeling)
        )
        return labeling

    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """The underlying streaming classifier's accounting."""
        return self._classifier.stats()

    def __repr__(self) -> str:
        return (
            f"ServiceStream(version={self.version}, "
            f"facts={len(self._classifier.evolving)})"
        )
