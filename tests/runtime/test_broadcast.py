"""Broadcast protocol tests: segments, refs, resident cache, and repairs.

The tentpole claim of the zero-copy runtime is "one fetch per worker per
object, zero per-shard database pickles".  These tests pin the pieces that
make it checkable: the shared-memory segment lifecycle, tiny refs,
digest-keyed idempotence, hit/miss counting, LRU residency, the
object-carrying path when no segment can be created, cleanup at
``close()``, and the two dispatch repairs that ride along — worker-cache
invalidation on pool discard and shard-exact serial fallback that never
re-executes a completed shard.
"""

from __future__ import annotations

import errno
import glob
import multiprocessing
import os
import pickle
import threading

import pytest

from repro.exceptions import ReproError
from repro.runtime import (
    BroadcastRef,
    ParallelExecutor,
    SerialExecutor,
    preferred_start_method,
)
from repro.runtime import broadcast
from repro.runtime.tasks import pointed_hom_checks
from repro.workloads.molecules import molecule_database

WORKERS = max(2, int(os.environ.get("REPRO_TEST_WORKERS", "2")))
HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()

try:
    from multiprocessing import shared_memory  # noqa: F401

    HAVE_SHARED_MEMORY = True
except ImportError:  # pragma: no cover - platforms without _posixshmem
    HAVE_SHARED_MEMORY = False

needs_shm = pytest.mark.skipif(
    not HAVE_SHARED_MEMORY, reason="multiprocessing.shared_memory unavailable"
)


@pytest.fixture(scope="module")
def workload():
    """A database and every ordered pair of its entities (16 checks)."""
    database = molecule_database(n_molecules=4, seed=7).database
    entities = sorted(database.entities(), key=repr)
    pairs = [(left, right) for left in entities for right in entities]
    return database, pairs


@pytest.fixture(autouse=True)
def _clean_resident():
    """Each test starts and ends with an empty parent resident cache."""
    broadcast.clear_resident()
    yield
    broadcast.clear_resident()


@needs_shm
class TestSegments:
    def test_create_attach_roundtrip(self):
        payload = b"broadcast bytes"
        segment = broadcast.create_segment(len(payload))
        try:
            segment.buf[: len(payload)] = payload
            attached = broadcast.attach_segment(segment.name)
            try:
                assert bytes(attached.buf[: len(payload)]) == payload
            finally:
                attached.close()
        finally:
            segment.close()
            segment.unlink()

    def test_names_carry_the_leak_check_prefix(self):
        segment = broadcast.create_segment(8)
        try:
            assert segment.name.startswith(broadcast.SEGMENT_PREFIX)
        finally:
            segment.close()
            segment.unlink()

    def test_attacher_close_leaves_segment_alive(self):
        segment = broadcast.create_segment(4)
        try:
            borrower = broadcast.attach_segment(segment.name)
            borrower.close()
            # The owner can still attach: the borrower did not unlink.
            again = broadcast.attach_segment(segment.name)
            again.close()
        finally:
            segment.close()
            segment.unlink()

    def test_unlink_removes_the_backing_file(self):
        segment = broadcast.create_segment(4)
        name = segment.name
        segment.close()
        segment.unlink()
        assert not glob.glob(f"/dev/shm/{name}")


class TestResolve:
    def test_non_refs_pass_through(self, workload):
        database, _ = workload
        assert broadcast.resolve(database) is database
        assert broadcast.resolve(None) is None
        assert broadcast.resolve(("plain", "tuple")) == ("plain", "tuple")

    def test_seed_then_resolve_is_a_hit(self, workload):
        database, _ = workload
        ref = BroadcastRef(database.digest(), "repro-shm-unused", 0)
        before = broadcast.snapshot()
        broadcast.seed(database.digest(), database)
        resolved = broadcast.resolve(ref)
        after = broadcast.snapshot()
        assert resolved is database
        assert after["broadcast_hits"] == before["broadcast_hits"] + 1
        assert after["broadcast_misses"] == before["broadcast_misses"]

    @needs_shm
    def test_miss_unpickles_segment_bytes_once(self, workload, monkeypatch):
        database, _ = workload
        data = pickle.dumps(database)
        unpickled = []
        loads = pickle.loads

        def counting_loads(blob):
            unpickled.append(bytes(blob))
            return loads(blob)

        monkeypatch.setattr(broadcast.pickle, "loads", counting_loads)
        segment = broadcast.create_segment(len(data))
        try:
            segment.buf[: len(data)] = data
            ref = BroadcastRef(database.digest(), segment.name, len(data))
            before = broadcast.snapshot()
            first = broadcast.resolve(ref)
            second = broadcast.resolve(ref)
            after = broadcast.snapshot()
        finally:
            segment.close()
            segment.unlink()
        assert unpickled == [data]
        assert first.digest() == database.digest()
        assert second is first  # pinned: the second resolve is a hit
        assert after["broadcast_misses"] == before["broadcast_misses"] + 1
        assert after["broadcast_hits"] == before["broadcast_hits"] + 1

    @needs_shm
    def test_missing_segment_is_an_error(self):
        ref = BroadcastRef("sha256:deadbeef", "repro-shm-000000000000", 8)
        with pytest.raises(ReproError):
            broadcast.resolve(ref)

    def test_resident_cache_is_lru_capped(self):
        for i in range(broadcast.RESIDENT_CAP + 1):
            broadcast.seed(f"digest-{i}", object())
        digests = broadcast.resident_digests()
        assert len(digests) == broadcast.RESIDENT_CAP
        assert "digest-0" not in digests  # oldest evicted
        assert digests[-1] == f"digest-{broadcast.RESIDENT_CAP}"


class TestExecutorBroadcast:
    def test_serial_executor_passes_objects_through(self, workload):
        database, _ = workload
        assert SerialExecutor().broadcast(database) is database

    @needs_shm
    def test_ref_is_tiny_and_digest_keyed(self, workload):
        database, _ = workload
        with ParallelExecutor(WORKERS) as executor:
            ref = executor.broadcast(database)
            assert isinstance(ref, BroadcastRef)
            assert ref.digest == database.digest()
            assert len(pickle.dumps(ref)) < len(pickle.dumps(database))
            # Re-broadcasting the same object is free and idempotent.
            assert executor.broadcast(database) == ref
            info = executor.broadcast_info()
            assert info["objects"] == 1
            assert info["digests"] == [database.digest()]

    @needs_shm
    def test_close_unlinks_segments(self, workload):
        database, _ = workload
        executor = ParallelExecutor(WORKERS)
        ref = executor.broadcast(database)
        attached = broadcast.attach_segment(ref.segment)
        attached.close()
        executor.close()
        with pytest.raises(FileNotFoundError):
            broadcast.attach_segment(ref.segment)

    def test_close_unpins_what_broadcast_seeded(self, workload):
        database, _ = workload
        executor = ParallelExecutor(WORKERS)
        executor.broadcast(database)
        assert database.digest() in broadcast.resident_digests()
        executor.close()
        assert database.digest() not in broadcast.resident_digests()

    @pytest.mark.parametrize(
        "failure",
        [
            OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)),
            ImportError("No module named '_posixshmem'"),
        ],
        ids=["dev-shm-full", "no-shared-memory"],
    )
    def test_no_segment_carries_the_object(
        self, workload, monkeypatch, failure
    ):
        database, pairs = workload

        def create_segment(nbytes):
            raise failure

        monkeypatch.setattr(broadcast, "create_segment", create_segment)
        serial = SerialExecutor().run(
            pointed_hom_checks, pairs,
            lambda chunk: _checks(chunk, database),
        )
        with ParallelExecutor(WORKERS) as executor:
            carried = executor.broadcast(database)
            assert carried is database
            assert executor.fallbacks == 1
            assert str(failure) in executor.fallback_reason
            assert executor.broadcast(database) is database
            assert executor.fallbacks == 1  # counted once per object
            assert executor.broadcast_info()["segment_bytes"] == 0
            assert executor.run(
                pointed_hom_checks, pairs,
                lambda chunk: _checks(chunk, carried),
            ) == serial
            assert executor.fallbacks == 1  # the dispatch itself ran pooled

    @needs_shm
    def test_dispatch_counts_hits_not_per_shard_misses(self, workload):
        database, pairs = workload
        serial = SerialExecutor().run(
            pointed_hom_checks, pairs,
            lambda chunk: _checks(chunk, database),
        )
        with ParallelExecutor(WORKERS) as executor:
            target = executor.broadcast(database)
            payload = lambda chunk: _checks(chunk, target)
            first = executor.run(pointed_hom_checks, pairs, payload)
            assert first == serial
            work = executor.work_done()
            shards = executor.workers * 2  # SHARDS_PER_WORKER
            # Zero per-shard pickles: misses are bounded by the worker
            # count (one fetch per worker), never by the shard count.
            assert work["broadcast_misses"] <= executor.workers
            assert (
                work["broadcast_hits"] + work["broadcast_misses"] >= shards
            )
            # A repeat dispatch adds only hits.
            assert executor.run(
                pointed_hom_checks, pairs, payload
            ) == serial
            again = executor.work_done()
            assert again["broadcast_misses"] == work["broadcast_misses"]
            assert again["broadcast_hits"] > work["broadcast_hits"]


class TestPoolRepairs:
    def test_discard_pool_clears_worker_caches(self, workload):
        database, pairs = workload
        with ParallelExecutor(WORKERS) as executor:
            executor.run(
                pointed_hom_checks, pairs,
                lambda chunk: _checks(chunk, database),
            )
            assert executor._worker_caches
            executor._discard_pool()
            assert executor._worker_caches == {}
            assert executor.effective_start_method is None

    def test_partial_fallback_reuses_completed_shards(self, workload):
        database, pairs = workload
        plan_payloads = [
            (tuple(pairs[:2]), database, None),
            (tuple(pairs[2:4]), database, lambda: None),  # unpicklable
            (tuple(pairs[4:]), database, None),
        ]
        expected = [
            pointed_hom_checks(_checks(chunk, database))
            for chunk, _db, _marker in plan_payloads
        ]
        with ParallelExecutor(WORKERS) as executor:
            results = executor.map_shards(_marker_task, plan_payloads)
            assert results == expected
            # Exactly one fallback event, scoped to the bad shard: the
            # completed futures' outcomes were absorbed from worker pids
            # and the repaired shard ran in the parent.
            assert executor.fallbacks == 1
            assert "pickl" in executor.fallback_reason
            pids = set(executor._worker_caches)
            assert os.getpid() in pids  # the serial repair
            assert pids - {os.getpid()}  # and at least one real worker

    def test_whole_batch_fallback_counts_once(self, workload):
        database, pairs = workload
        with ParallelExecutor(WORKERS) as executor:
            results = executor.map_shards(
                _marker_task,
                [(tuple(pairs), database, lambda: None)],
            )
            assert results == [
                pointed_hom_checks(_checks(pairs, database))
            ]
            assert executor.fallbacks == 1


def _checks(chunk, database):
    """A ``pointed_hom_checks`` payload: ``database`` into itself."""
    return (database, database, tuple(chunk))


def _marker_task(payload):
    """Picklable task whose payload may carry an unpicklable marker."""
    chunk, database, _marker = payload
    return pointed_hom_checks(_checks(chunk, database))


class TestStartMethodSelection:
    def test_preferred_is_fork_only_when_single_threaded(self):
        expected = "fork" if (
            HAVE_FORK and threading.active_count() == 1
        ) else "spawn"
        assert preferred_start_method() == expected

    def test_threads_force_spawn(self, live_thread):
        assert preferred_start_method() == "spawn"
