"""Digest-keyed broadcast: ship shared databases to workers once, not per shard.

Before this module, every shard payload carried its own pickled copy of
the :class:`~repro.data.database.Database` all shards share — the
evaluated database behind an indicator matrix — and every worker rebuilt
indexes from cold.  A7 measured the result: "parallel" ran slower than
serial.

The broadcast protocol (DESIGN.md §3.15) splits identity from bytes:

- The **parent** (:meth:`~repro.runtime.executor.ParallelExecutor.
  broadcast`) registers a database once under its content digest
  (:meth:`Database.digest() <repro.data.database.Database.digest>`),
  pickles it once into a ``repro-shm-*`` shared-memory segment, and from
  then on puts only a tiny :class:`BroadcastRef` into shard payloads.
- A **worker** resolves a ref through its process-resident cache: a hit
  returns the pinned object (index already built); a miss copies the
  segment's bytes out once, unpickles once, builds the
  :class:`~repro.data.database.DatabaseIndex` eagerly, pins the result,
  and never fetches that digest again.
- Under the ``fork`` start method the parent *seeds* its own resident
  cache before the pool starts, so forked workers inherit the pinned
  objects — and their built indexes and compiled plans — copy-on-write:
  their first resolve is already a hit, with zero fetches.

Hits and misses are counted per process; :func:`snapshot` exposes them so
:func:`~repro.runtime.tasks.instrumented` can report per-shard deltas and
executors can aggregate pool-wide ``broadcast_hits``/``broadcast_misses``
in :meth:`~repro.runtime.executor.Executor.work_done`.  "Zero per-shard
database pickles" is then checkable: misses are bounded by
``workers × objects``, never by shard count.

Segment lifecycle (one owner, many borrowers): the creator — the parent's
executor — keeps each segment registered with the stdlib resource
tracker, so a crashed parent still gets its segments unlinked at tracker
exit, and unlinks them in ``close()``.  Workers attach untracked, copy
the bytes out and close their mapping at once; they never unlink.
"""

from __future__ import annotations

import pickle
import secrets
from collections import OrderedDict
from typing import Any, Dict, NamedTuple

from repro.exceptions import ReproError

__all__ = [
    "BroadcastRef",
    "RESIDENT_CAP",
    "SEGMENT_PREFIX",
    "create_segment",
    "attach_segment",
    "resolve",
    "seed",
    "unpin",
    "snapshot",
    "resident_digests",
    "clear_resident",
]

#: Resident objects pinned per worker process.  Bounds worker memory when
#: a long-lived pool sees many distinct broadcast objects.
RESIDENT_CAP = 8

#: Name prefix of every segment this library creates — the CI leak check
#: greps ``/dev/shm`` for it after executors close.
SEGMENT_PREFIX = "repro-shm-"

# Worker-resident state.  Under fork this dict is inherited from the
# parent (copy-on-write) — which is exactly the zero-copy seeding path —
# and the counters are only ever read as deltas, so inherited absolute
# values are harmless.
_RESIDENT: "OrderedDict[str, Any]" = OrderedDict()
_MISSING = object()
_hits = 0
_misses = 0


class BroadcastRef(NamedTuple):
    """A picklable pointer to a broadcast object — the payload-side handle.

    Names the shared-memory segment holding the object's pickled bytes;
    the content digest keys the worker's resident cache.
    """

    digest: str
    segment: str
    nbytes: int


def create_segment(nbytes: int) -> Any:
    """A fresh uniquely-named segment of at least ``nbytes`` bytes.

    Raises ``ImportError`` where the platform has no
    ``multiprocessing.shared_memory`` and ``OSError`` when the segment
    cannot be allocated (a full ``/dev/shm``).  The creating process keeps
    the segment registered with the resource tracker (crash insurance);
    the owner must ``close()`` and ``unlink()`` it when the broadcast is
    released.
    """
    from multiprocessing import shared_memory

    while True:
        name = SEGMENT_PREFIX + secrets.token_hex(6)
        try:
            return shared_memory.SharedMemory(
                name=name, create=True, size=max(1, nbytes)
            )
        except FileExistsError:  # pragma: no cover - 48-bit collision
            continue


def attach_segment(name: str) -> Any:
    """Attach to an existing segment as a non-owning borrower.

    The attachment is never recorded in the resource tracker: workers can
    share the parent's tracker process (spawn inherits the fd), so an
    attach-then-unregister would erase the *creator's* registration and the
    owner's later ``unlink()`` would KeyError inside the tracker.  On
    3.13+ ``track=False`` skips registration natively; earlier versions
    no-op ``resource_tracker.register`` for the duration of the attach.
    """
    from multiprocessing import shared_memory

    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track= parameter
        from multiprocessing import resource_tracker

        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


def snapshot() -> Dict[str, int]:
    """Cumulative resolve counters for this process (delta-read them)."""
    return {"broadcast_hits": _hits, "broadcast_misses": _misses}


def resident_digests() -> tuple:
    """Digests currently pinned in this process, LRU order (tests)."""
    return tuple(_RESIDENT)


def seed(digest: str, obj: Any) -> None:
    """Pin an already-materialized object without counting a resolve.

    The parent calls this at broadcast time, before the pool (possibly)
    forks: forked workers inherit the pinned object and resolve it as a
    hit, and the parent's own serial-fallback path resolves locally
    without touching any segment.
    """
    _pin(digest, obj)


def unpin(digest: str) -> None:
    """Drop ``digest`` from this process's resident cache, if pinned."""
    _RESIDENT.pop(digest, None)


def resolve(ref: Any) -> Any:
    """The worker-side fetch: refs resolve, everything else passes through.

    Tasks call this on every payload slot that may be broadcast, so one
    task body serves ref-carrying and plain payloads alike (the serial
    executor, and a parallel one that could not create a segment, ship
    plain objects).
    """
    global _hits, _misses
    if not isinstance(ref, BroadcastRef):
        return ref
    obj = _RESIDENT.get(ref.digest, _MISSING)
    if obj is not _MISSING:
        _RESIDENT.move_to_end(ref.digest)
        _hits += 1
        return obj
    _misses += 1
    database = pickle.loads(_fetch_bytes(ref))
    database.index  # a miss pays the build once; every later shard is warm
    _pin(ref.digest, database)
    return database


def _fetch_bytes(ref: BroadcastRef) -> bytes:
    try:
        segment = attach_segment(ref.segment)
    except FileNotFoundError:
        raise ReproError(
            f"broadcast segment {ref.segment!r} for {ref.digest} is gone "
            f"(owner closed or crashed)"
        ) from None
    try:
        return bytes(segment.buf[: ref.nbytes])
    finally:
        segment.close()


def _pin(digest: str, obj: Any) -> None:
    _RESIDENT[digest] = obj
    _RESIDENT.move_to_end(digest)
    while len(_RESIDENT) > RESIDENT_CAP:
        _RESIDENT.popitem(last=False)


def clear_resident() -> None:
    """Drop every pinned object (tests)."""
    _RESIDENT.clear()
