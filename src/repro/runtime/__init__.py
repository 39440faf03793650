"""repro.runtime: sharded parallel execution of hom-preorder and feature work.

The paper's tractability results bottom out in embarrassingly-parallel
bags of independent checks — one hom check per entity pair behind CQ-CLS,
one unraveling per ``→_k`` class behind Prop 5.6 generation.  This
package executes those bags across worker processes (indicator fills run
in-process: deciding each feature's ground part once per database made a
serial fill cheaper than a dispatch at the benchmarked sizes, DESIGN.md
§3.8):

- :class:`~repro.runtime.shard.ShardPlan` — deterministic chunking with an
  order-preserving merge (parallel results are bit-identical to serial);
- :class:`~repro.runtime.executor.SerialExecutor` /
  :class:`~repro.runtime.executor.ParallelExecutor` — the executor
  contract, with one :class:`~repro.cq.engine.EvaluationEngine` per worker
  process and aggregated work/cache accounting;
- :mod:`~repro.runtime.tasks` — the picklable shard tasks;
- :mod:`~repro.runtime.broadcast` — the digest-keyed zero-copy protocol:
  shared objects ship to each worker once through a shared-memory
  segment (or never, under ``fork``), and payloads carry
  :class:`~repro.runtime.broadcast.BroadcastRef` handles.

Entry points (the CQ-CLS preorder, the generators,
``FeatureEngineeringSession``, the CLI's ``--workers``) accept an executor
and skip dispatch entirely when ``workers <= 1``.
"""

from repro.runtime.broadcast import BroadcastRef
from repro.runtime.executor import (
    Executor,
    ParallelExecutor,
    SerialExecutor,
    make_executor,
    preferred_start_method,
)
from repro.runtime.shard import ShardPlan

__all__ = [
    "BroadcastRef",
    "Executor",
    "ParallelExecutor",
    "SerialExecutor",
    "ShardPlan",
    "make_executor",
    "preferred_start_method",
]
