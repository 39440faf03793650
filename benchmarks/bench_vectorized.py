"""Ablation A11 — the vectorized numpy-bitset backend vs the python engine.

Indicator-matrix materialization is the library's hottest loop, and the
vectorized backend replaces its per-candidate homomorphism search with
packed-bitset sweeps and batched semijoins.  This bench fills the same
CQ[2] feature-pool matrix over paper-scale retail and molecules databases
(|dom| in the thousands, far past the 64-element word boundary) on both
backends, asserting the matrices are **bit-identical** before comparing
wall-clocks — the speedup claim is only meaningful on provably equal
outputs.  The vectorized backend must win by at least 3x on every
workload, with every query answered by a sweep (zero fallbacks).
"""

from __future__ import annotations

from repro.cq.engine import EvaluationEngine
from repro.core.separability import feature_pool
from repro.workloads.molecules import carbonyl_concept, molecule_database
from repro.workloads.retail import premium_buyer_concept, retail_database

from harness import report, timed, timed_with_counters

#: Feature queries per workload beyond the planted concept.
POOL_LIMIT = 24

#: Minimum wall-clock advantage the vectorized backend must demonstrate.
SPEEDUP_FLOOR = 3.0

WORKLOADS = (
    (
        "retail",
        lambda: (
            retail_database(
                n_customers=600,
                n_products=40,
                n_premium=8,
                orders_per_customer=4,
                items_per_order=4,
                seed=11,
            ),
            premium_buyer_concept(),
        ),
    ),
    (
        "molecules",
        lambda: (
            molecule_database(
                n_molecules=600, atoms_per_molecule=10, seed=11
            ),
            carbonyl_concept(),
        ),
    ),
)


def test_vectorized_backend_speedup(benchmark):
    rows = []
    for name, make in WORKLOADS:
        training, concept = make()
        database = training.database
        queries = [concept] + feature_pool(training, 2)[:POOL_LIMIT]
        entities = sorted(database.entities(), key=repr)
        assert len(database.domain) >= 32

        python_engine = EvaluationEngine(backend="python")
        python_seconds, expected = timed(
            lambda q=queries, d=database, e=entities: (
                python_engine.indicator_matrix(q, d, e)
            )
        )

        numpy_engine = EvaluationEngine(backend="numpy")
        numpy_seconds, actual, work = timed_with_counters(
            numpy_engine,
            lambda q=queries, d=database, e=entities: (
                numpy_engine.indicator_matrix(q, d, e)
            ),
        )

        # The ground truth for the whole bench: backends agree bitwise.
        assert actual == expected

        assert work["vectorized_sweeps"] > 0
        assert work["backend_fallbacks"] == 0
        speedup = python_seconds / max(numpy_seconds, 1e-9)
        assert speedup >= SPEEDUP_FLOOR, (
            f"{name}: vectorized speedup {speedup:.1f}x below "
            f"{SPEEDUP_FLOOR}x floor"
        )

        rows.append(
            (
                name,
                len(database.domain),
                len(queries),
                len(entities),
                f"{python_seconds * 1e3:.1f}",
                f"{numpy_seconds * 1e3:.1f}",
                f"{speedup:.1f}x",
                work["vectorized_sweeps"],
                work["backend_fallbacks"],
            )
        )

    report(
        "A11_vectorized_backend",
        (
            "workload",
            "|dom|",
            "queries",
            "entities",
            "python_ms",
            "numpy_ms",
            "speedup",
            "sweeps",
            "fallbacks",
        ),
        rows,
    )

    # Steady-state timing: warm replay of the last workload's matrix fill.
    benchmark(
        lambda: numpy_engine.indicator_matrix(queries, database, entities)
    )
