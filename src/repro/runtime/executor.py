"""Executors: serial and process-pool execution of shard tasks.

The :class:`Executor` contract is deliberately narrow (DESIGN.md §3.8):

- :meth:`~Executor.map_shards` runs one picklable task over a list of
  picklable payloads and returns the results **in payload order** — never
  in completion order — so callers can merge with
  :meth:`~repro.runtime.shard.ShardPlan.merge` and get results
  bit-identical to a serial loop.
- :meth:`~Executor.run` is the convenience composition: plan shards over an
  item sequence, build per-shard payloads, dispatch, merge.
- Executors aggregate the engine work and cache statistics their shards
  caused (:meth:`~Executor.work_done`, :meth:`~Executor.cache_info`), the
  multi-process analogue of one engine's counters.

:class:`SerialExecutor` is the zero-dependency fallback: it runs every
shard in the calling process on the process-default engine.
:class:`ParallelExecutor` dispatches to a ``ProcessPoolExecutor`` whose
workers each hold one :class:`~repro.cq.engine.EvaluationEngine`
(initialized once per worker); if a task or payload fails to pickle — or
the pool breaks — it falls back to the serial path and remembers the
failure, so callers never see a pickling error from a computation that a
plain loop could finish.
"""

from __future__ import annotations

import pickle
import threading
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.cq.engine import CacheInfo
from repro.data.database import Database
from repro.exceptions import ReproError
from repro.runtime import broadcast as _broadcast
from repro.runtime.shard import ShardPlan
from repro.runtime.tasks import (
    Payload,
    ShardOutcome,
    Task,
    initialize_worker,
    instrumented,
    run_instrumented,
)

__all__ = [
    "Executor",
    "SerialExecutor",
    "ParallelExecutor",
    "make_executor",
    "preferred_start_method",
]

#: Exceptions that mean "this work cannot ship to a worker process", as
#: opposed to the task itself failing.  ``TypeError``/``AttributeError``
#: appear here only via the up-front pickle probe, never from task bodies.
_PICKLE_ERRORS = (pickle.PicklingError, TypeError, AttributeError)

_EMPTY_WORK = ("hom_checks", "backtrack_nodes", "cover_games",
               "vectorized_sweeps", "plan_compilations",
               "backend_fallbacks", "cache_hits", "cache_misses",
               "broadcast_hits", "broadcast_misses")

def preferred_start_method() -> str:
    """The start method a pool created now uses on this platform.

    ``fork`` wherever the platform offers it *and* the calling process is
    still single-threaded — forked workers then inherit the parent's
    broadcast-seeded databases, built indexes, and compiled plan tables
    copy-on-write, the cheapest possible worker start.  Forking a
    multi-threaded parent can deadlock the children (another thread may
    hold a lock at fork time), so once threads exist — the gateway's
    dispatch lanes, notably — pools use the portable
    ``spawn``+initializer path.
    """
    import multiprocessing

    if (
        "fork" in multiprocessing.get_all_start_methods()
        and threading.active_count() == 1
    ):
        return "fork"
    return "spawn"


class Executor:
    """Order-preserving shard execution with work aggregation."""

    #: Degree of parallelism; callers skip dispatch entirely when <= 1.
    workers: int = 1

    def __init__(self) -> None:
        self._work: Dict[str, int] = {key: 0 for key in _EMPTY_WORK}
        self._worker_caches: Dict[int, CacheInfo] = {}
        # Callers may share one executor across threads, so the
        # accounting — and lazy pool creation — must be safe under
        # concurrent map_shards calls from different threads.
        self._accounting_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Contract
    # ------------------------------------------------------------------

    def map_shards(self, task: Task, payloads: Sequence[Payload]) -> List[Any]:
        """Run ``task`` over each payload; results in payload order."""
        raise NotImplementedError

    def run(
        self,
        task: Task,
        items: Sequence[Any],
        payload: Callable[[Sequence[Any]], Payload],
    ) -> List[Any]:
        """Shard ``items``, run ``task`` per shard, merge in item order.

        ``payload`` maps each item chunk to the task's payload tuple (e.g.
        attaching the shared database).  Each shard result must be a
        sequence with one entry per item of its chunk.
        """
        plan = ShardPlan.for_workers(len(items), self.workers)
        payloads = [payload(chunk) for chunk in plan.chunk(items)]
        shard_results = self.map_shards(task, payloads)
        return ShardPlan.merge(shard_results)

    def close(self) -> None:
        """Release any worker processes; the executor stays usable serially."""

    def broadcast(self, database: Database) -> Any:
        """Register a shard-shared database; returns what payloads carry.

        The serial executor runs shards in the calling process, where the
        database is already resident — payloads carry it directly and
        :func:`~repro.runtime.broadcast.resolve` passes it through.
        :class:`ParallelExecutor` overrides this with the digest-keyed
        zero-copy protocol and returns a
        :class:`~repro.runtime.broadcast.BroadcastRef` (or the database
        itself when no shared-memory segment can be created).
        """
        return database

    # ------------------------------------------------------------------
    # Aggregated accounting
    # ------------------------------------------------------------------

    def _absorb(self, outcome: ShardOutcome) -> None:
        with self._accounting_lock:
            for key, value in outcome.work.items():
                self._work[key] = self._work.get(key, 0) + value
            self._worker_caches[outcome.worker_pid] = outcome.cache_info

    def work_done(self) -> Dict[str, int]:
        """Summed engine work across all shards this executor ran."""
        with self._accounting_lock:
            return dict(self._work)

    def cache_info(self) -> CacheInfo:
        """Aggregated cache statistics over the per-worker engines.

        Sums the most recent :class:`CacheInfo` observed from each worker
        process (workers never share cache entries, so the sum is exact).
        """
        with self._accounting_lock:
            return CacheInfo.total(self._worker_caches.values())

    # ------------------------------------------------------------------

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()


class SerialExecutor(Executor):
    """Run every shard in the calling process, on its default engine.

    The zero-dependency fallback of the runtime subsystem: no processes,
    no pickling, identical results — engine entry points skip dispatch for
    ``workers <= 1``, so wiring a :class:`SerialExecutor` through an
    algorithm exercises exactly the plain serial code path while still
    recording per-shard work via :meth:`work_done`.
    """

    workers = 1

    def map_shards(self, task: Task, payloads: Sequence[Payload]) -> List[Any]:
        results: List[Any] = []
        for payload in payloads:
            outcome = instrumented(task, payload)
            self._absorb(outcome)
            results.append(outcome.result)
        return results


class ParallelExecutor(Executor):
    """Process-pool execution with one evaluation engine per worker.

    Parameters
    ----------
    workers:
        Worker process count (must be >= 2; use :func:`make_executor` to
        pick serial vs parallel from a ``workers=`` knob).
    backend:
        Evaluation backend for every worker engine (``"python"`` /
        ``"numpy"``); ``None`` keeps the engine default.  Results are
        backend-independent, so mixing parent and worker backends is
        safe — this knob only decides where the workers spend their time.
    store_path:
        Warm-state store root for every worker engine (``None`` for no
        store).  Paths rather than store objects cross the process
        boundary; each worker opens its own handle.  The content store's
        atomic same-content writes make concurrent workers safe.

    The pool's start method is :func:`preferred_start_method`, decided
    when the pool is created.  Under ``fork``, objects broadcast before
    the pool starts are inherited copy-on-write — indexes and compiled
    plans included — so workers start fully warm; ``spawn`` workers build
    state through the initializer and the shared-memory fetch path
    instead.

    Workers are started lazily on first dispatch and reused across calls,
    so per-worker caches stay warm over a whole session.  Dispatch falls
    back to in-process serial execution when the task graph cannot be
    pickled or the pool dies — per shard, reusing every outcome that
    already completed; :attr:`fallback_reason` records the latest cause
    and :attr:`fallbacks` counts them.
    """

    def __init__(
        self,
        workers: int,
        backend: Optional[str] = None,
        store_path: Optional[str] = None,
    ) -> None:
        super().__init__()
        if workers < 2:
            raise ReproError(
                "ParallelExecutor needs >= 2 workers; "
                "use SerialExecutor (or make_executor) for workers <= 1"
            )
        self.workers = workers
        self._backend = backend
        self._store_path = store_path
        self._pool: Optional[Any] = None
        #: What payloads carry for each database broadcast through this
        #: executor, by digest: a :class:`~repro.runtime.broadcast.
        #: BroadcastRef`, or the database itself when no segment could be
        #: created.  Never evicted before :meth:`close` — an in-flight
        #: shard may carry any ref ever issued.
        self._broadcasts: Dict[str, Any] = {}
        #: The shared-memory segments behind the refs; this executor owns
        #: them (created in :meth:`broadcast`, unlinked in :meth:`close`).
        self._segments: List[Any] = []
        #: The start method the live pool was actually created with.
        self.effective_start_method: Optional[str] = None
        #: Last reason parallel dispatch fell back to serial, or None.
        self.fallback_reason: Optional[str] = None
        #: Number of dispatches that needed any serial fallback, plus
        #: broadcasts that had to carry the object itself.
        self.fallbacks: int = 0

    # ------------------------------------------------------------------

    def _ensure_pool(self) -> Any:
        with self._accounting_lock:
            if self._pool is None:
                import multiprocessing
                from concurrent.futures import ProcessPoolExecutor

                method = preferred_start_method()
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers,
                    mp_context=multiprocessing.get_context(method),
                    initializer=initialize_worker,
                    initargs=(self._backend, self._store_path),
                )
                self.effective_start_method = method
            return self._pool

    # ------------------------------------------------------------------
    # Broadcast (the zero-copy protocol's parent side)
    # ------------------------------------------------------------------

    def broadcast(self, database: Database) -> Any:
        """Register ``database`` once; returns what payloads should carry.

        Keyed by :meth:`~repro.data.database.Database.digest`.  The first
        call seeds the parent's resident cache (so a pool forked after
        this point inherits the database, and serial fallbacks resolve
        locally), builds its index before any fork, and pickles it once
        into a shared-memory segment for workers that miss; every later
        call returns the cached ref without touching the database at all.

        When no segment can be created — no ``multiprocessing.
        shared_memory`` on this platform, or a full ``/dev/shm`` — the
        payloads carry the database itself, exactly as under
        :class:`SerialExecutor`; :attr:`fallbacks` counts the event and
        :attr:`fallback_reason` records why.
        """
        digest = database.digest()
        with self._accounting_lock:
            if digest in self._broadcasts:
                return self._broadcasts[digest]
            data = pickle.dumps(database, protocol=pickle.HIGHEST_PROTOCOL)
            _broadcast.seed(digest, database)
            database.index  # built pre-fork: children inherit it warm
            try:
                segment = _broadcast.create_segment(len(data))
            except (ImportError, OSError) as error:
                carried = database
                self.fallbacks += 1
                self.fallback_reason = (
                    f"no shared-memory segment for broadcast {digest}: "
                    f"{error}"
                )
            else:
                segment.buf[: len(data)] = data
                self._segments.append(segment)
                carried = _broadcast.BroadcastRef(
                    digest, segment.name, len(data)
                )
            self._broadcasts[digest] = carried
            return carried

    def broadcast_info(self) -> Dict[str, Any]:
        """Parent-side broadcast table: digests and segment bytes held."""
        with self._accounting_lock:
            return {
                "objects": len(self._broadcasts),
                "segment_bytes": sum(
                    segment.size for segment in self._segments
                ),
                "digests": sorted(self._broadcasts),
            }

    def _release_broadcasts(self) -> None:
        """Unlink owned segments and unpin what :meth:`broadcast` seeded.

        Workers that already pinned an object are unaffected; the
        executor is closed, so no later shard can carry one of its refs.
        """
        with self._accounting_lock:
            digests = list(self._broadcasts)
            segments = self._segments
            self._broadcasts = {}
            self._segments = []
        for digest in digests:
            _broadcast.unpin(digest)
        for segment in segments:
            try:
                segment.close()
                segment.unlink()
            except OSError:  # pragma: no cover - already unlinked
                pass

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def _note_fallback(self, reason: str) -> None:
        with self._accounting_lock:
            self.fallbacks += 1
            self.fallback_reason = reason

    def _run_serial(self, task: Task, payload: Payload) -> Any:
        outcome = instrumented(task, payload)
        self._absorb(outcome)
        return outcome.result

    def _serial_fallback(
        self, task: Task, payloads: Sequence[Payload], reason: str
    ) -> List[Any]:
        self._note_fallback(reason)
        return [self._run_serial(task, payload) for payload in payloads]

    def map_shards(self, task: Task, payloads: Sequence[Payload]) -> List[Any]:
        if not payloads:
            return []
        # Probe the first work item up front: a payload that cannot pickle
        # would otherwise surface as an opaque error from a future, and the
        # remaining shards would be wasted pool churn.
        try:
            pickle.dumps((task, payloads[0]))
        except _PICKLE_ERRORS as error:
            return self._serial_fallback(
                task, payloads, f"unpicklable task or payload: {error}"
            )

        from concurrent.futures.process import BrokenProcessPool

        futures: List[Any] = []
        reason: Optional[str] = None
        try:
            pool = self._ensure_pool()
            for payload in payloads:
                futures.append(pool.submit(run_instrumented, (task, payload)))
        except _PICKLE_ERRORS as error:
            reason = f"pickling failed during dispatch: {error}"
        except BrokenProcessPool as error:
            reason = f"worker pool broke: {error}"

        # Collect per-future: a mid-dispatch failure (one unpicklable
        # result, a dying pool) must not throw away shards that already
        # completed — those outcomes are reused and only the remainder
        # re-runs serially, so no shard ever executes twice.
        results: List[Any] = [None] * len(payloads)
        pending: List[int] = list(range(len(futures), len(payloads)))
        broken = False
        for index, future in enumerate(futures):
            try:
                outcome: ShardOutcome = future.result()
            except _PICKLE_ERRORS as error:
                reason = f"pickling failed during dispatch: {error}"
                pending.append(index)
                continue
            except BrokenProcessPool as error:
                reason = f"worker pool broke: {error}"
                broken = True
                pending.append(index)
                continue
            self._absorb(outcome)
            results[index] = outcome.result
        if broken:
            self._discard_pool()
        if pending:
            assert reason is not None
            self._note_fallback(reason)
            for index in sorted(pending):
                results[index] = self._run_serial(task, payloads[index])
        return results

    # ------------------------------------------------------------------

    def _discard_pool(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
            self.effective_start_method = None
        with self._accounting_lock:
            # The dead workers' engines are gone with their processes; a
            # restarted pool gets fresh pids, and summing stale entries
            # (or letting a reused pid silently shadow a live worker)
            # would misreport pool-wide cache statistics.
            self._worker_caches.clear()

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
            self.effective_start_method = None
        self._release_broadcasts()


def make_executor(
    workers: Optional[int],
    backend: Optional[str] = None,
    store_path: Optional[str] = None,
) -> Executor:
    """The executor for a ``workers=`` knob: serial iff ``workers <= 1``.

    ``backend`` selects the worker engines' evaluation backend; the
    serial executor ignores it (serial shards run on the calling
    process's engine, whose backend the caller already chose).
    """
    if workers is None or workers <= 1:
        return SerialExecutor()
    return ParallelExecutor(workers, backend=backend, store_path=store_path)
