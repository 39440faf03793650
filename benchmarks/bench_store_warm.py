"""Ablation A13 — warm process starts from the content-addressed store.

A process restart normally rebuilds everything the last process already
computed: every feature query's plan is recompiled and every statistic
column refit from scratch.  With a ``repro.store`` root on disk, a fresh
engine starts *hot* — memoized answers load instead of re-deriving, so
the warm engine has no query left to compile a plan for.  This bench
simulates the restart (two engines over one store root, cold then warm)
on paper-scale retail and molecules workloads, on both backends,
asserting the indicator matrices are **bit-identical** before any timing
claim, that the warm start compiles at least 5x fewer plans and refits
zero statistics (zero hom checks, zero vectorized sweeps), and that the
warm wall-clock beats cold by the floor.  A second leg tampers with a
stored answer and proves the corrupt entry is quarantined and recomputed
— never served.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile

from repro.cq.engine import EvaluationEngine
from repro.core.separability import feature_pool
from repro.data.bitset import HAVE_NUMPY
from repro.workloads.molecules import carbonyl_concept, molecule_database
from repro.workloads.retail import premium_buyer_concept, retail_database

from harness import report, timed_with_counters

#: Feature queries per workload beyond the planted concept.
POOL_LIMIT = 16

#: Minimum cold/warm wall-clock advantage of a warm start.
SPEEDUP_FLOOR = 3.0

#: Warm starts must compile at least this factor fewer plans than cold.
PLAN_RATIO_FLOOR = 5

WORKLOADS = (
    (
        "retail",
        lambda: (
            retail_database(
                n_customers=200,
                n_products=30,
                n_premium=6,
                orders_per_customer=4,
                items_per_order=3,
                seed=7,
            ),
            premium_buyer_concept(),
        ),
    ),
    (
        "molecules",
        lambda: (
            molecule_database(
                n_molecules=200, atoms_per_molecule=8, seed=7
            ),
            carbonyl_concept(),
        ),
    ),
)

BACKENDS = ("python", "numpy") if HAVE_NUMPY else ("python",)


def _matrix(engine, queries, database, entities):
    return engine.indicator_matrix(queries, database, entities)


def test_warm_start_skips_recomputation(benchmark):
    rows = []
    with tempfile.TemporaryDirectory() as tmp_dir:
        for name, make in WORKLOADS:
            training, concept = make()
            database = training.database
            queries = [concept] + feature_pool(training, 2)[:POOL_LIMIT]
            entities = sorted(database.entities(), key=repr)

            for backend in BACKENDS:
                root = os.path.join(tmp_dir, f"{name}-{backend}")

                cold = EvaluationEngine(backend=backend, store=root)
                cold_seconds, expected, cold_work = timed_with_counters(
                    cold,
                    lambda e=cold: _matrix(e, queries, database, entities),
                )

                # The restart: a brand-new engine over the same store root.
                warm = EvaluationEngine(backend=backend, store=root)
                warm_seconds, actual, warm_work = timed_with_counters(
                    warm,
                    lambda e=warm: _matrix(e, queries, database, entities),
                )

                # Ground truth first: warm predictions are bit-identical.
                assert actual == expected

                # Zero statistic refits: no search, no sweeps, all answers
                # served from the persisted memo.
                assert warm_work["hom_checks"] == 0
                assert warm_work["backtrack_nodes"] == 0
                assert warm_work["vectorized_sweeps"] == 0
                assert warm.store.memo_hits == len(queries)

                # Plan compilation collapses by the required factor.
                assert (
                    warm_work["plan_compilations"] * PLAN_RATIO_FLOOR
                    <= cold_work["plan_compilations"]
                )
                if backend == "python":
                    assert cold_work["plan_compilations"] >= 1

                speedup = cold_seconds / max(warm_seconds, 1e-9)
                assert speedup >= SPEEDUP_FLOOR, (
                    f"{name}/{backend}: warm start speedup {speedup:.1f}x "
                    f"below {SPEEDUP_FLOOR}x floor"
                )

                rows.append(
                    (
                        name,
                        backend,
                        len(queries),
                        len(entities),
                        f"{cold_seconds * 1e3:.1f}",
                        f"{warm_seconds * 1e3:.1f}",
                        f"{speedup:.1f}x",
                        cold_work["plan_compilations"],
                        warm_work["plan_compilations"],
                        warm.store.memo_hits,
                    )
                )

    report(
        "A13_warm_store",
        (
            "workload",
            "backend",
            "queries",
            "entities",
            "cold_ms",
            "warm_ms",
            "speedup",
            "cold_plans",
            "warm_plans",
            "memo_hits",
        ),
        rows,
    )


def test_tampered_entries_are_quarantined_and_recomputed(benchmark):
    """A flipped bit in the store never reaches a prediction."""
    rows = []
    training, concept = WORKLOADS[0][1]()
    database = training.database
    queries = [concept] + feature_pool(training, 2)[:POOL_LIMIT]
    entities = sorted(database.entities(), key=repr)
    tmp_dir = tempfile.mkdtemp()
    root = os.path.join(tmp_dir, "tamper")

    cold = EvaluationEngine(backend="python", store=root)
    expected = _matrix(cold, queries, database, entities)

    # Corrupt every persisted answer in place (valid JSON, wrong rows).
    tampered = 0
    answers = os.path.join(root, "objects", "answer")
    for shard in os.listdir(answers):
        shard_dir = os.path.join(answers, shard)
        for entry in os.listdir(shard_dir):
            path = os.path.join(shard_dir, entry)
            envelope = json.load(open(path))
            envelope["payload"]["answer"]["rows"] = [[["s", "TAMPERED"]]]
            with open(path, "w") as handle:
                json.dump(envelope, handle)
            tampered += 1
    assert tampered == len(queries)

    recovery = EvaluationEngine(backend="python", store=root)
    actual = _matrix(recovery, queries, database, entities)
    assert actual == expected  # recomputed, never served the tampering
    assert recovery.store.memo_hits == 0
    assert recovery.store.store.quarantined == tampered
    assert len(os.listdir(os.path.join(root, "quarantine"))) == tampered

    # The recompute healed the store: a third engine is warm again.
    healed = EvaluationEngine(backend="python", store=root)
    assert _matrix(healed, queries, database, entities) == expected
    assert healed.store.memo_hits == len(queries)

    rows.append(
        (
            "retail",
            tampered,
            recovery.store.store.quarantined,
            healed.store.memo_hits,
            "yes",
        )
    )
    report(
        "A13_warm_store",
        ("workload", "tampered", "quarantined", "healed_hits", "identical"),
        rows,
        append=True,
    )
    shutil.rmtree(tmp_dir, ignore_errors=True)
