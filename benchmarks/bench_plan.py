"""Ablation A10 — compile-once query plans vs per-check query analysis.

Two claims, each asserted on deterministic work counters (never timing):

1. **Planned backtracking prunes.**  The engine, which executes each
   query's precompiled homomorphism program, produces bit-identical
   statistics to the unplanned per-check search of the frozen oracle
   (:mod:`repro.cq.naive`) on the retail and molecules workloads while
   expanding *strictly fewer* backtrack nodes at equal hom checks — the
   ``facts_at`` index lookups enumerate only target facts matching an
   already-bound element instead of scanning whole relations.
2. **The single-pass plan materializes each bag exactly once per
   evaluation.**  The free variable is a column of every bag relation, so
   one upward semijoin pass decides every candidate value at once.  On a
   GHW(1) chain query over growing domains the bag-relation count of an
   evaluation equals the decomposition's bag count at every |dom|, while
   the rows inside the bags grow with the data.  The answers equal the
   engine's and the frozen oracle's throughout.

Both tables land in ``benchmarks/results/A10_query_plans.txt``.
"""

from __future__ import annotations

from repro.core.separability import feature_pool
from repro.cq.engine import EvaluationEngine
from repro.cq.homomorphism import SearchCounters
from repro.cq.naive import naive_evaluate_unary
from repro.cq.parser import parse_cq
from repro.cq.plan import PlanCounters, YannakakisPlan
from repro.data.schema import EntitySchema
from repro.hypergraph.ghw import decompose
from repro.workloads.molecules import molecule_database
from repro.workloads.random_db import random_database
from repro.workloads.retail import retail_database

from harness import report, timed, timed_with_counters

SCHEMA = EntitySchema.from_arities({"E": 2})

#: (label, training database, evaluation database) per workload row.
WORKLOADS = (
    (
        "retail",
        lambda: retail_database(n_customers=6, seed=3),
        lambda: retail_database(n_customers=8, seed=11).database,
    ),
    (
        "molecules",
        lambda: molecule_database(n_molecules=5, seed=7),
        lambda: molecule_database(n_molecules=7, seed=21).database,
    ),
)

#: The GHW(1) scaling family: one chain query, growing domains.
CHAIN_RULE = "q(x) :- eta(x), E(x, y), E(y, z)"
DOMAIN_SIZES = (8, 16, 32, 64)


def naive_statistic(queries, database, counters):
    """``evaluate_statistic`` rebuilt on the unplanned naive oracle."""
    answers = [
        naive_evaluate_unary(query, database, counters) for query in queries
    ]
    return {
        entity: tuple(1 if entity in answer else -1 for answer in answers)
        for entity in sorted(database.entities(), key=repr)
    }


def test_planned_vs_unplanned_backtracking(benchmark):
    """Claim 1: same vectors, strictly fewer backtrack nodes, per workload."""
    rows = []
    for label, make_training, make_eval in WORKLOADS:
        training = make_training()
        queries = feature_pool(training, 2)
        databases = (training.database, make_eval())

        unplanned = SearchCounters()
        unplanned_seconds = 0.0
        unplanned_vectors = []
        for database in databases:
            seconds, vectors = timed(
                lambda q=queries, d=database: (
                    naive_statistic(q, d, unplanned)
                )
            )
            unplanned_seconds += seconds
            unplanned_vectors.append(vectors)

        planned = EvaluationEngine()
        planned_seconds = 0.0
        planned_vectors = []
        for database in databases:
            seconds, vectors, _ = timed_with_counters(
                planned,
                lambda q=queries, d=database, g=planned: (
                    g.evaluate_statistic(q, d)
                ),
            )
            planned_seconds += seconds
            planned_vectors.append(vectors)

        # Bit-identical answers on every differential row.
        assert planned_vectors == unplanned_vectors
        # Acceptance: planned evaluation does strictly fewer backtrack
        # nodes than unplanned (the work-counter regression guard).
        assert planned.counters.backtrack_nodes < unplanned.backtrack_nodes
        assert planned.counters.hom_checks == unplanned.hom_checks
        # Compile-once: every plan was compiled at most once (queries whose
        # candidate prefilter is empty never need one at all), and the
        # second database reused the first database's plans as cache hits.
        plans = planned.cache_details()["plans"]
        assert plans.misses == plans.currsize <= len(queries)
        assert plans.hits > 0

        rows.append(
            (
                label,
                len(queries),
                len(databases),
                unplanned.hom_checks,
                unplanned.backtrack_nodes,
                planned.counters.backtrack_nodes,
                f"{unplanned.backtrack_nodes / planned.counters.backtrack_nodes:.2f}x",
                f"{unplanned_seconds * 1e3:.1f} ms",
                f"{planned_seconds * 1e3:.1f} ms",
            )
        )
    report(
        "A10_query_plans",
        (
            "workload",
            "features",
            "databases",
            "hom checks",
            "unplanned nodes",
            "planned nodes",
            "node ratio",
            "unplanned",
            "planned",
        ),
        rows,
    )

    # Steady-state timing: a warm planned engine re-materializing the
    # retail statistic (plan cache and answer cache both hot).
    training = WORKLOADS[0][1]()
    queries = feature_pool(training, 2)
    warm = EvaluationEngine()
    warm.evaluate_statistic(queries, training.database)
    benchmark(lambda: warm.evaluate_statistic(queries, training.database))


def test_single_pass_builds_each_bag_once(benchmark):
    """Claim 2: one evaluation materializes each bag once, at every |dom|."""
    query = parse_cq(CHAIN_RULE)
    decomposition = decompose(query, 1)
    assert decomposition is not None
    plan = YannakakisPlan(query, decomposition)

    rows = []
    for size in DOMAIN_SIZES:
        database = random_database(
            SCHEMA, size, 3 * size, n_entities=size, seed=size
        )

        counters = PlanCounters()
        seconds, answer = timed(
            lambda d=database, c=counters: plan.evaluate(d, c)
        )

        assert answer == EvaluationEngine().evaluate_unary(query, database)
        assert answer == naive_evaluate_unary(query, database)
        assert counters.evaluations == 1
        assert counters.bag_relations == len(decomposition.bags)

        rows.append(
            (
                size,
                len(answer),
                len(decomposition.bags),
                counters.bag_relations,
                counters.bag_rows,
                f"{seconds * 1e3:.1f} ms",
            )
        )

    report(
        "A10_query_plans",
        (
            "|dom|",
            "answers",
            "bags",
            "bag relations",
            "bag rows",
            "single-pass",
        ),
        rows,
        append=True,
    )

    largest = random_database(
        SCHEMA,
        DOMAIN_SIZES[-1],
        3 * DOMAIN_SIZES[-1],
        n_entities=DOMAIN_SIZES[-1],
        seed=DOMAIN_SIZES[-1],
    )
    benchmark(lambda: plan.evaluate(largest))
