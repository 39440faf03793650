"""CI smoke: the broadcast runtime leaves no shared-memory segments behind.

Every segment the zero-copy runtime creates is named ``repro-shm-*``
(:data:`repro.runtime.broadcast.SEGMENT_PREFIX`), owned by the parent
executor, and unlinked in :meth:`~repro.runtime.executor.ParallelExecutor.
close`.  This script drives broadcast-heavy dispatch under every available
start method — pointed hom checks, the CQ-CLS preorder's shard task, on
both backends — and then asserts ``/dev/shm`` holds not one stray segment.  A leak
here means a worker unlinked a borrowed segment's tracker entry, or an
owner path skipped its release.

The runtime picks the start method itself (fork while the process is
single-threaded, spawn once it has threads), so the spawn legs run while
an idle thread is alive.
"""

from __future__ import annotations

import contextlib
import glob
import multiprocessing
import sys
import threading

sys.path.insert(0, "src")

from repro.runtime import ParallelExecutor, SerialExecutor
from repro.runtime.broadcast import SEGMENT_PREFIX
from repro.runtime.tasks import pointed_hom_checks
from repro.workloads.molecules import molecule_database

SHM_GLOB = f"/dev/shm/{SEGMENT_PREFIX}*"


def _segments() -> set:
    return set(glob.glob(SHM_GLOB))


@contextlib.contextmanager
def _start_method(method: str):
    """Run the block where the runtime's rule picks ``method``."""
    if method == "fork":
        assert threading.active_count() == 1, "fork legs need one thread"
        yield
        return
    release = threading.Event()
    thread = threading.Thread(target=release.wait, daemon=True)
    thread.start()
    try:
        yield
    finally:
        release.set()
        thread.join(timeout=10)


def _drive_executor(method: str, backend: str) -> None:
    database = molecule_database(n_molecules=4, seed=7).database
    entities = sorted(database.entities(), key=repr)
    pairs = [(left, right) for left in entities for right in entities]
    serial = SerialExecutor().run(
        pointed_hom_checks, pairs,
        lambda chunk: (database, database, tuple(chunk)),
    )
    with _start_method(method), ParallelExecutor(
        2, backend=backend
    ) as executor:
        target = executor.broadcast(database)
        parallel = executor.run(
            pointed_hom_checks, pairs,
            lambda chunk: (target, target, tuple(chunk)),
        )
        assert parallel == serial, (method, backend)
        assert executor.effective_start_method == method, (
            executor.effective_start_method, method
        )
        assert executor.fallback_reason is None, executor.fallback_reason
        # The segments must be live while the executor is: the leak
        # check below only means something if segments were created.
        assert executor.broadcast_info()["segment_bytes"] > 0
        assert _segments(), "expected live repro-shm segments"


def main() -> int:
    before = _segments()
    if before:
        print(f"pre-existing segments (ignored): {sorted(before)}")

    methods = [
        method
        for method in ("fork", "spawn")
        if method in multiprocessing.get_all_start_methods()
    ]
    backends = ("python", "numpy")
    for method in methods:
        for backend in backends:
            _drive_executor(method, backend)
            print(f"executor leg OK: method={method} backend={backend}")

    leaked = _segments() - before
    if leaked:
        print(f"LEAKED shared-memory segments: {sorted(leaked)}", file=sys.stderr)
        return 1
    print(f"shm leak check OK ({len(methods)} start methods, "
          f"{len(backends)} backends, 0 stray segments)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
