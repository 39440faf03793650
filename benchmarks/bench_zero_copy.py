"""Ablation A14 — zero-copy broadcast runtime vs the per-shard-pickle path.

Re-runs the A7 (molecules-64 indicator matrix) and A8 (retail serving)
shapes on the digest-keyed broadcast runtime: shard payloads carry a
:class:`~repro.runtime.broadcast.BroadcastRef` instead of a pickled
database, workers resolve through their process-resident cache, and —
under ``fork`` — inherit the parent's prebuilt indexes copy-on-write.

Three claims, checked here:

- **Bit-identity** (unconditional): broadcast-dispatched matrices and
  served labelings equal the serial ones.
- **Zero per-shard database pickles** (unconditional): pool-wide
  ``broadcast_misses`` is bounded by ``workers × objects`` — one fetch
  per worker per object, independent of shard count — and a repeat
  dispatch adds only hits.
- **Speedup** (core-gated, as in A7/A8): ≥ 1.5x at 4 workers on ≥ 4
  cores for both shapes; on starved machines the honest numbers are
  recorded and the floor is skipped.
"""

from __future__ import annotations

import os

from repro.core.languages import BoundedAtomsCQ
from repro.core.pipeline import FeatureEngineeringSession
from repro.core.separability import feature_pool
from repro.cq.engine import EvaluationEngine
from repro.runtime import ParallelExecutor, preferred_start_method
from repro.serve import InferenceService
from repro.workloads.molecules import molecule_database
from repro.workloads.retail import retail_database

from harness import report, timed

#: Worker counts to scale across (serial is the implicit baseline).
WORKER_COUNTS = (2, 4)

#: Speedup floors, asserted only when the machine has at least as many
#: cores as workers.  The 4-worker floor is the issue's acceptance
#: criterion for both the indicator-matrix and serving shapes.
SPEEDUP_FLOORS = {2: 1.1, 4: 1.5}

#: Micro-batch served in the A8 shape.
N_REQUESTS = 16


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


def test_zero_copy_serving(benchmark):
    cores = os.cpu_count() or 1
    method = preferred_start_method()

    training = retail_database(n_customers=8, seed=3)
    with FeatureEngineeringSession(training, BoundedAtomsCQ(3)) as session:
        assert session.separable
        artifact = session.export_artifact()
        requests = [
            retail_database(n_customers=30, seed=100 + i).database
            for i in range(N_REQUESTS)
        ]
        expected = [session.classify(database) for database in requests]

    rows = []
    serial_seconds = None
    for workers in (1,) + WORKER_COUNTS:
        with InferenceService(artifact, workers=workers) as service:
            service.warm_up()
            seconds, results = timed(
                lambda s=service: s.predict_batch(requests)
            )
            assert results == expected
            if workers == 1:
                serial_seconds = seconds
                speedup = 1.0
                hits = misses = "-"
            else:
                speedup = serial_seconds / seconds
                # One broadcast object (the model triple); request
                # databases ride the per-shard payloads.
                work = _assert_zero_copy(service.executor, objects=1)
                hits, misses = (
                    work["broadcast_hits"], work["broadcast_misses"]
                )
        rows.append(
            (
                "serve-retail",
                "serial" if workers == 1 else f"{workers} workers",
                f"{seconds * 1e3:.0f} ms",
                f"{speedup:.2f}x",
                hits,
                misses,
            )
        )
        if workers > 1 and cores >= workers:
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
        append=True,
    )

    warm = InferenceService(artifact)
    warm.warm_up()
    warm.predict(requests[0])
    benchmark(lambda: warm.predict(requests[0]))
