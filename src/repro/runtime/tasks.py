"""Picklable shard tasks executed inside worker processes.

Every function here takes one picklable *payload* tuple and returns a
picklable result, so it can be shipped to a ``ProcessPoolExecutor`` worker
by reference (module-level functions pickle by qualified name).  Tasks run
against the worker process's own :class:`~repro.cq.engine.EvaluationEngine`
— created once per worker by :func:`initialize_worker` and reused across
all shards that worker processes — so caches are worker-local and warm up
over a worker's lifetime without any cross-process synchronization.

Each task is a pure function of its payload: given the same shard it
returns the same result regardless of which process runs it, or of the
state of any cache.  That purity is the whole determinism argument of the
runtime subsystem (DESIGN.md §3.8); new tasks must preserve it.

:func:`instrumented` wraps a task so the executor can aggregate the engine
work (hom checks, backtrack nodes, cache hits/misses) each shard caused in
its worker — the per-worker analogue of the parent engine's counters.
"""

from __future__ import annotations

import os
from typing import (
    Any,
    Callable,
    Dict,
    NamedTuple,
    Optional,
    Tuple,
)

from repro.cq.engine import (
    CacheInfo,
    EvaluationEngine,
    default_engine,
    set_default_engine,
)
from repro.cq.query import CQ
from repro.runtime.broadcast import resolve
from repro.runtime.broadcast import snapshot as broadcast_snapshot

__all__ = [
    "ShardOutcome",
    "initialize_worker",
    "instrumented",
    "run_instrumented",
    "pointed_hom_checks",
    "unravel_features",
]

Element = Any
Payload = Tuple[Any, ...]
Task = Callable[[Payload], Any]


class ShardOutcome(NamedTuple):
    """One shard's result plus the worker-side accounting for it."""

    result: Any
    #: Delta of the worker engine's ``work_snapshot()`` across the shard.
    work: Dict[str, int]
    #: The worker process id — lets the parent keep per-worker cache stats.
    worker_pid: int
    #: The worker engine's cache statistics *after* the shard.
    cache_info: CacheInfo


def initialize_worker(
    backend: Optional[str] = None,
    store_path: Optional[str] = None,
) -> None:
    """Install a fresh engine as the worker process's default engine.

    Runs once per worker (``ProcessPoolExecutor(initializer=...)``).  A
    fresh engine rather than a fork-inherited copy keeps worker counters
    attributable: everything they report happened in this worker.

    ``backend`` selects the worker engine's evaluation backend
    (``"python"``/``"numpy"``; ``None`` keeps the engine default), so a
    parallel fill runs the same backend in every worker as the parent
    engine would serially.  ``store_path`` attaches the warm-state store
    at that root to the worker engine — workers then load persisted
    answers instead of evaluating, and contribute their computed answers
    back.
    """
    kwargs: Dict[str, Any] = {}
    if backend is not None:
        kwargs["backend"] = backend
    if store_path is not None:
        kwargs["store"] = store_path
    set_default_engine(EvaluationEngine(**kwargs))


def instrumented(task: Task, payload: Payload) -> ShardOutcome:
    """Run ``task(payload)`` on this process's engine, with accounting.

    Besides the engine's work delta, the shard's broadcast-cache resolve
    counters (:func:`repro.runtime.broadcast.snapshot`) are folded in as
    ``broadcast_hits``/``broadcast_misses`` — executors aggregate them
    pool-wide, which is how "zero per-shard database pickles after the
    first broadcast" becomes an assertable number.
    """
    engine = default_engine()
    resolves_before = broadcast_snapshot()
    before = engine.work_snapshot()
    result = task(payload)
    after = engine.work_snapshot()
    resolves_after = broadcast_snapshot()
    work = {key: after[key] - before[key] for key in after}
    for key in resolves_after:
        work[key] = resolves_after[key] - resolves_before[key]
    return ShardOutcome(result, work, os.getpid(), engine.cache_info())


def run_instrumented(task_and_payload: Tuple[Task, Payload]) -> ShardOutcome:
    """Entry point submitted to the pool: unpack and run one shard."""
    task, payload = task_and_payload
    return instrumented(task, payload)


# ----------------------------------------------------------------------
# Shard tasks
# ----------------------------------------------------------------------


def pointed_hom_checks(payload: Payload) -> Tuple[bool, ...]:
    """Decide a shard of pointed homomorphism checks.

    Payload: ``(source, target, pairs)`` with ``pairs`` a sequence of
    ``(source_element, target_element)``; the database slots may be
    broadcast refs.  Returns one bool per pair.  The unit of work behind
    the CQ-CLS hom-preorder (quadratic in entities).
    """
    source, target, pairs = payload
    source = resolve(source)
    target = resolve(target)
    engine = default_engine()
    return tuple(
        engine.pointed_has_homomorphism(source, (left,), target, (right,))
        for left, right in pairs
    )


def unravel_features(payload: Payload) -> Tuple[Tuple[CQ, int], ...]:
    """Generate GHW(k) unraveling features for a shard of representatives.

    Payload: ``(database, representatives, k, evaluation_databases,
    max_depth, max_nodes)`` — the database slots may be broadcast refs.
    Returns ``(feature, depth)`` per representative — the per-class work
    of Prop 5.6 generation.
    """
    database, representatives, k, evaluation_databases, max_depth, max_nodes = (
        payload
    )
    database = resolve(database)
    evaluation_databases = tuple(
        resolve(evaluation) for evaluation in evaluation_databases
    )
    from repro.covergame.unravel import generate_equivalent_feature

    return tuple(
        generate_equivalent_feature(
            database,
            representative,
            k,
            evaluation_databases=evaluation_databases,
            max_depth=max_depth,
            max_nodes=max_nodes,
        )
        for representative in representatives
    )
