"""Ablation A4 — evaluation engines: naive backtracking vs indexed engine vs Yannakakis.

The paper's GHW(k) tractability rests on polynomial evaluation via tree
decompositions [12].  The ablation runs all engines on tree-shaped feature
queries of growing size over growing data, asserts identical answers, and
reports the cost curves.  The "engine" column is the indexed + memoized
:class:`~repro.cq.engine.EvaluationEngine` with a cold cache, so its edge
over "naive" comes from the shared database index, not memoized replays
(those are ablated separately in A6).  The "yannakakis" column is a cold
engine's :meth:`~repro.cq.engine.EvaluationEngine.evaluate_ghw` at width 1:
the decomposition search, the plan compilation and one single-pass
evaluation.
"""

from __future__ import annotations

from repro.cq.engine import EvaluationEngine
from repro.cq.naive import naive_evaluate_unary
from repro.cq.query import CQ
from repro.cq.terms import Atom, Variable
from repro.data.schema import EntitySchema
from repro.workloads.random_db import random_database

from harness import report, timed

SCHEMA = EntitySchema.from_arities({"E": 2})


def _branching_query(depth: int) -> CQ:
    """A binary out-tree of the given depth rooted at the free variable."""
    x = Variable("x")
    atoms = [Atom("eta", (x,))]
    frontier = [x]
    counter = 0
    for _level in range(depth):
        next_frontier = []
        for node in frontier:
            for _branch in range(2):
                child = Variable(f"t{counter}")
                counter += 1
                atoms.append(Atom("E", (node, child)))
                next_frontier.append(child)
        frontier = next_frontier
    return CQ(atoms, (x,))


def test_evaluation_engines(benchmark):
    rows = []
    for depth in (1, 2):
        query = _branching_query(depth)
        for size in (15, 30):
            database = random_database(
                SCHEMA, size, 3 * size, n_entities=size // 3, seed=size
            )
            naive_seconds, naive = timed(
                lambda q=query, d=database: naive_evaluate_unary(q, d)
            )
            engine = EvaluationEngine()
            engine_seconds, indexed = timed(
                lambda q=query, d=database, g=engine: g.evaluate_unary(q, d)
            )
            structured_seconds, structured = timed(
                lambda q=query, d=database: (
                    EvaluationEngine().evaluate_ghw(q, d, 1)
                )
            )
            assert naive == indexed == structured
            rows.append(
                (
                    depth,
                    len(query.atoms) - 1,
                    size,
                    len(naive),
                    f"{naive_seconds * 1e3:.1f} ms",
                    f"{engine_seconds * 1e3:.1f} ms",
                    f"{structured_seconds * 1e3:.1f} ms",
                )
            )
    report(
        "A4_evaluation_engines",
        (
            "tree depth",
            "atoms",
            "elements",
            "answers",
            "naive",
            "engine",
            "yannakakis",
        ),
        rows,
    )

    query = _branching_query(2)
    database = random_database(SCHEMA, 30, 90, n_entities=10, seed=30)
    benchmark(lambda: EvaluationEngine().evaluate_ghw(query, database, 1))
