"""Ablation A14 — zero-copy broadcast runtime vs the per-shard-pickle path.

Re-runs the A7 shape (molecules-64 indicator matrix) on the digest-keyed
broadcast runtime: shard payloads carry a
:class:`~repro.runtime.broadcast.BroadcastRef` instead of a pickled
database, workers resolve through their process-resident cache, and —
under ``fork`` — inherit the parent's prebuilt indexes copy-on-write.

Three claims, checked here:

- **Bit-identity** (unconditional): broadcast-dispatched matrices equal
  the serial ones.
- **Zero per-shard database pickles** (unconditional): pool-wide
  ``broadcast_misses`` is bounded by ``workers × objects`` — one fetch
  per worker per object, independent of shard count — and a repeat
  dispatch adds only hits.
- **Speedup** (core-gated, as in A7): ≥ 1.1x at 2 workers and ≥ 1.5x at
  4 workers when the machine has that many cores; on starved machines
  the honest numbers are recorded and the floor is skipped.

Serving has no pool (it serves the separator's support in one process),
so the served-model shape this bench once re-ran is gone.
"""

from __future__ import annotations

import os

from repro.core.separability import feature_pool
from repro.cq.engine import EvaluationEngine
from repro.runtime import ParallelExecutor, preferred_start_method
from repro.workloads.molecules import molecule_database

from harness import report, timed

#: Worker counts to scale across (serial is the implicit baseline).
WORKER_COUNTS = (2, 4)

#: Speedup floors, asserted only when the machine has at least as many
#: cores as workers.
SPEEDUP_FLOORS = {2: 1.1, 4: 1.5}


def _assert_zero_copy(executor, objects):
    """Misses bounded by workers × objects — never by shard count."""
    work = executor.work_done()
    assert executor.fallback_reason is None
    assert work["broadcast_misses"] <= executor.workers * objects, work
    assert work["broadcast_hits"] + work["broadcast_misses"] > 0, work
    return work


def test_zero_copy_indicator_matrix(benchmark):
    cores = os.cpu_count() or 1
    method = preferred_start_method()

    training = molecule_database(n_molecules=64, seed=7)
    queries = feature_pool(training, 2)
    assert len(queries) >= 8
    database = training.database
    entities = sorted(database.entities(), key=repr)

    serial_seconds, serial_matrix = timed(
        lambda: EvaluationEngine().indicator_matrix(
            queries, database, entities
        )
    )
    rows = [
        ("molecules-64", "serial", f"{serial_seconds * 1e3:.0f} ms",
         "1.00x", "-", "-"),
    ]

    for workers in WORKER_COUNTS:
        with ParallelExecutor(workers) as executor:
            parallel_seconds, parallel_matrix = timed(
                lambda x=executor: EvaluationEngine().indicator_matrix(
                    queries, database, entities, executor=x
                )
            )
            assert parallel_matrix == serial_matrix
            work = _assert_zero_copy(executor, objects=1)

            # The repeat dispatch resolves entirely from resident caches:
            # hits grow, misses do not — zero pickles after the first
            # broadcast.
            repeat = EvaluationEngine().indicator_matrix(
                queries, database, entities, executor=executor
            )
            assert repeat == serial_matrix
            again = executor.work_done()
            assert again["broadcast_misses"] == work["broadcast_misses"]
            assert again["broadcast_hits"] > work["broadcast_hits"]

        speedup = serial_seconds / parallel_seconds
        rows.append(
            (
                "molecules-64",
                f"{workers} workers",
                f"{parallel_seconds * 1e3:.0f} ms",
                f"{speedup:.2f}x",
                again["broadcast_hits"],
                again["broadcast_misses"],
            )
        )
        if cores >= workers:
            assert speedup >= SPEEDUP_FLOORS[workers], (
                f"{workers} workers on {cores} cores: expected "
                f">= {SPEEDUP_FLOORS[workers]}x, got {speedup:.2f}x"
            )

    rows.append(("-", f"cores={cores}", f"method={method}", "-", "-", "-"))
    report(
        "A14_zero_copy",
        ("workload", "mode", "wall-clock", "speedup", "bcast-hits",
         "bcast-misses"),
        rows,
    )

    # Steady-state timing: a warm serial evaluation, the baseline the
    # broadcast path is measured against.
    small = molecule_database(n_molecules=8, seed=7)
    small_queries = feature_pool(small, 2)
    small_entities = sorted(small.database.entities(), key=repr)
    warm = EvaluationEngine()
    warm.indicator_matrix(small_queries, small.database, small_entities)
    benchmark(
        lambda: warm.indicator_matrix(
            small_queries, small.database, small_entities
        )
    )
