"""CI smoke: the broadcast runtime leaves no shared-memory segments behind.

Every segment the zero-copy runtime creates is named ``repro-shm-*``
(:data:`repro.runtime.broadcast.SEGMENT_PREFIX`), owned by the parent
executor, and unlinked in :meth:`~repro.runtime.executor.ParallelExecutor.
close`.  This script drives broadcast-heavy dispatch under every available
start method — indicator matrices on both backends plus the served-model
path — and then asserts ``/dev/shm`` holds not one stray segment.  A leak
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

from repro.core.languages import BoundedAtomsCQ
from repro.core.pipeline import FeatureEngineeringSession
from repro.core.separability import feature_pool
from repro.cq.engine import EvaluationEngine
from repro.runtime import ParallelExecutor
from repro.runtime.broadcast import SEGMENT_PREFIX
from repro.serve import InferenceService
from repro.workloads.retail import retail_database

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
    training = retail_database(n_customers=6, seed=3)
    queries = feature_pool(training, 2)
    database = training.database
    entities = sorted(database.entities(), key=repr)
    serial = EvaluationEngine(backend=backend).indicator_matrix(
        queries, database, entities
    )
    with _start_method(method), ParallelExecutor(
        2, backend=backend
    ) as executor:
        parallel = EvaluationEngine(backend=backend).indicator_matrix(
            queries, database, entities, executor=executor
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


def _drive_serving(method: str) -> None:
    training = retail_database(n_customers=6, seed=3)
    with FeatureEngineeringSession(training, BoundedAtomsCQ(3)) as session:
        assert session.separable
        artifact = session.export_artifact()
    requests = [
        retail_database(n_customers=4, seed=seed).database
        for seed in (11, 12)
    ]
    with InferenceService(artifact, workers=1) as reference:
        expected = reference.predict_batch(requests)
    with _start_method(method), InferenceService(
        artifact, workers=2
    ) as service:
        assert service.predict_batch(requests) == expected, method
        assert service.executor.effective_start_method == method, method


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
        _drive_serving(method)
        print(f"serving leg OK: method={method}")

    leaked = _segments() - before
    if leaked:
        print(f"LEAKED shared-memory segments: {sorted(leaked)}", file=sys.stderr)
        return 1
    print(f"shm leak check OK ({len(methods)} start methods, "
          f"{len(backends)} backends, 0 stray segments)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
