"""Property-based differential tests for compiled query plans.

Three independent implementations must agree on every generated instance:

1. **Planned backtracking vs frozen naive.**  An engine executing
   precompiled :class:`~repro.cq.plan.HomomorphismProgram`\\ s (the
   default) returns the same answers as the uncached reference in
   :mod:`repro.cq.naive` — and a compiled program enumerates exactly the
   same homomorphism sets as the direct search.
2. **Single-pass Yannakakis vs per-candidate reference vs backtracking.**
   The compiled single-pass plan (free variable as a column of every bag,
   one upward semijoin pass) agrees with the per-candidate evaluator in
   :mod:`repro.cq.structured_evaluation` and with the naive backtracking
   answer on generated unary CQs and databases — including databases
   missing whole relations and decompositions with unconstrained bag
   variables.

Mixed databases routinely lack relations the query mentions (the
empty-relation edge), and generated feature queries routinely produce
disconnected bodies (the unconstrained-bag-variable edge), so both edge
cases are exercised by construction, not just by the dedicated examples.
"""

from __future__ import annotations

from hypothesis import given, settings

from repro.cq.engine import EvaluationEngine
from repro.cq.homomorphism import all_homomorphisms
from repro.cq.naive import naive_all_homomorphisms, naive_evaluate_unary
from repro.cq.plan import HomomorphismProgram, QueryPlan
from repro.cq.structured_evaluation import evaluate_with_decomposition
from repro.data import Database, Fact
from repro.hypergraph.ghw import decompose

from tests.property.strategies import (
    entity_databases,
    hom_check_instances,
    mixed_databases,
    unary_feature_queries,
)

_SETTINGS = settings(max_examples=50, deadline=None)


def _assignment_set(assignments):
    return {tuple(sorted(a.items(), key=repr)) for a in assignments}


class TestPlannedBacktrackingDifferential:
    @_SETTINGS
    @given(unary_feature_queries(), entity_databases())
    def test_planned_engine_matches_naive(self, query, database):
        engine = EvaluationEngine()
        assert engine.evaluate_unary(query, database) == (
            naive_evaluate_unary(query, database)
        )

    @_SETTINGS
    @given(unary_feature_queries(), mixed_databases())
    def test_planned_engine_matches_naive_on_sparse_schemas(
        self, query, database
    ):
        # Mixed databases may lack eta or E entirely: the program's
        # signature lookup must conclude "no homomorphism", like naive.
        engine = EvaluationEngine()
        assert engine.evaluate_unary(query, database) == (
            naive_evaluate_unary(query, database)
        )

    @_SETTINGS
    @given(hom_check_instances())
    def test_program_enumerates_same_homomorphisms(self, instance):
        source, target, fixed = instance
        program = HomomorphismProgram.compile(source, tuple(fixed))
        planned = _assignment_set(program.solutions(target, fixed))
        direct = _assignment_set(
            all_homomorphisms(source, target, fixed)
        )
        naive = _assignment_set(
            naive_all_homomorphisms(source, target, fixed)
        )
        assert planned == direct == naive


class TestSinglePassYannakakisDifferential:
    @_SETTINGS
    @given(unary_feature_queries(), entity_databases())
    def test_three_way_agreement(self, query, database):
        decomposition = decompose(query, 2)
        assert decomposition is not None  # tiny E-bodies have ghw <= 2
        single_pass = (
            QueryPlan.compile(query)
            .structured_for(decomposition)
            .evaluate(database)
        )
        per_candidate = evaluate_with_decomposition(
            query, decomposition, database
        )
        backtracking = naive_evaluate_unary(query, database)
        assert single_pass == per_candidate == backtracking

    @_SETTINGS
    @given(unary_feature_queries(), mixed_databases())
    def test_three_way_agreement_on_sparse_schemas(self, query, database):
        decomposition = decompose(query, 2)
        assert decomposition is not None
        single_pass = (
            QueryPlan.compile(query)
            .structured_for(decomposition)
            .evaluate(database)
        )
        per_candidate = evaluate_with_decomposition(
            query, decomposition, database
        )
        assert single_pass == per_candidate
        assert single_pass == naive_evaluate_unary(query, database)

    @_SETTINGS
    @given(unary_feature_queries())
    def test_empty_database(self, query):
        database = Database((Fact("eta", (0,)),))
        decomposition = decompose(query, 2)
        assert decomposition is not None
        single_pass = (
            QueryPlan.compile(query)
            .structured_for(decomposition)
            .evaluate(database)
        )
        assert single_pass == naive_evaluate_unary(query, database)
