"""repro.serve: model artifacts and batched inference serving.

The train-once / serve-many split of the production story (ROADMAP):

- :mod:`repro.serve.artifact` — a versioned, deterministic, pickle-free
  JSON format for trained models (schema, query class, statistic,
  separator, metadata) with strict validation, a content checksum, and
  bit-identical round-trips;
- :mod:`repro.serve.service` — :class:`InferenceService`: load an
  artifact, restrict it to the separator's support (the features with a
  nonzero weight), compile those queries once, and serve ``predict`` /
  ``predict_batch`` over pointed databases in one process, with
  configurable fail/abstain degradation;
- :mod:`repro.serve.metrics` — per-request counters and latency /
  throughput snapshots (p50/p95, engine work, cache hit rates).

Stateful serving over evolving request databases goes through
:meth:`InferenceService.open_stream` / :class:`ServiceStream`
(:mod:`repro.stream` underneath): deltas migrate engine caches instead of
cold-starting them, and predictions stay bit-identical to stateless ones.

Entry points: ``FeatureEngineeringSession.export_artifact()``, the CLI's
``repro train --out model.json`` / ``repro predict --model model.json``
(``--stream`` for interleaved delta/predict op streams), and ``repro
classify --model`` for refit-free classification.
"""

from repro.serve.artifact import (
    ARTIFACT_FORMAT,
    ARTIFACT_VERSION,
    ModelArtifact,
    language_from_spec,
    language_to_spec,
)
from repro.serve.metrics import ServiceMetrics
from repro.serve.service import InferenceService, ServiceStream

__all__ = [
    "ARTIFACT_FORMAT",
    "ARTIFACT_VERSION",
    "ModelArtifact",
    "ServiceMetrics",
    "InferenceService",
    "ServiceStream",
    "language_from_spec",
    "language_to_spec",
]
