"""repro.stream: incremental maintenance for evolving background databases.

The paper fixes the background database once (§2); production traffic does
not.  This subsystem makes the stack delta-aware end to end:

- :mod:`repro.stream.delta` — :class:`Delta`: an immutable, composable
  fact-level change set with ``touched_relations`` and a JSONL codec
  shared with :mod:`repro.data.io`;
- :mod:`repro.stream.evolving` — :class:`EvolvingDatabase`: an immutable
  snapshot plus a replayable delta log, O(|delta|) application with
  structural sharing of untouched relations, an effective delta per
  application, and a per-version ``materialize()`` provably equal to a
  from-scratch rebuild;
- :mod:`repro.stream.classifier` — :class:`StreamingClassifier`: after a
  delta, only feature queries mentioning a touched relation are
  re-evaluated; everything else is read back from the engine caches that
  :meth:`EvaluationEngine.apply_delta
  <repro.cq.engine.EvaluationEngine.apply_delta>` migrated across the
  delta.  Results are bit-identical to full recomputation by construction.

Entry points: ``InferenceService.open_stream()`` for stateful serving and
the CLI's ``repro predict --stream`` for interleaved delta/predict JSONL
op streams.
"""

from repro.stream.classifier import StreamingClassifier
from repro.stream.delta import (
    Delta,
    delta_from_json,
    delta_to_json,
    deltas_from_jsonl,
    deltas_to_jsonl,
)
from repro.stream.evolving import EvolvingDatabase

__all__ = [
    "Delta",
    "EvolvingDatabase",
    "StreamingClassifier",
    "delta_from_json",
    "delta_to_json",
    "deltas_from_jsonl",
    "deltas_to_jsonl",
]
