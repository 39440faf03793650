"""Property-based differential tests for compiled query plans.

Both compiled evaluators must agree with the frozen oracle in
:mod:`repro.cq.naive` on every generated instance:

1. **Planned backtracking vs frozen naive.**  An engine executing
   precompiled :class:`~repro.cq.homomorphism.HomomorphismProgram`\\ s
   (the default) returns the same answers as the uncached oracle — and a
   compiled program enumerates exactly the same homomorphism sets as the
   naive search.
2. **Single-pass Yannakakis vs frozen naive.**  The compiled single-pass
   plan (free variable as a column of every bag, one upward semijoin pass)
   agrees with the naive backtracking answer on generated unary CQs and
   databases — including databases missing whole relations and
   decompositions with unconstrained bag variables.
3. **One answer memo for both.**  An engine that answers a query through
   the plan and through backtracking (either order) memoizes one answer,
   which must be the oracle's on both backends.

Mixed databases routinely lack relations the query mentions (the
empty-relation edge), and generated feature queries routinely produce
disconnected bodies (the unconstrained-bag-variable edge), so both edge
cases are exercised by construction, not just by the dedicated examples.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.cq.engine import BACKENDS, EvaluationEngine
from repro.cq.naive import naive_all_homomorphisms, naive_evaluate_unary
from repro.cq.plan import HomomorphismProgram, YannakakisPlan
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
        naive = _assignment_set(
            naive_all_homomorphisms(source, target, fixed)
        )
        assert planned == naive


class TestSinglePassYannakakisDifferential:
    @_SETTINGS
    @given(unary_feature_queries(), entity_databases())
    def test_three_way_agreement(self, query, database):
        decomposition = decompose(query, 2)
        assert decomposition is not None  # tiny E-bodies have ghw <= 2
        single_pass = YannakakisPlan(query, decomposition).evaluate(database)
        assert single_pass == naive_evaluate_unary(query, database)

    @_SETTINGS
    @given(unary_feature_queries(), mixed_databases())
    def test_three_way_agreement_on_sparse_schemas(self, query, database):
        decomposition = decompose(query, 2)
        assert decomposition is not None
        single_pass = YannakakisPlan(query, decomposition).evaluate(database)
        assert single_pass == naive_evaluate_unary(query, database)

    @_SETTINGS
    @given(unary_feature_queries())
    def test_empty_database(self, query):
        database = Database((Fact("eta", (0,)),))
        decomposition = decompose(query, 2)
        assert decomposition is not None
        single_pass = YannakakisPlan(query, decomposition).evaluate(database)
        assert single_pass == naive_evaluate_unary(query, database)


class TestSharedAnswerMemo:
    @pytest.mark.parametrize("backend", BACKENDS)
    @_SETTINGS
    @given(unary_feature_queries(), entity_databases())
    def test_ghw_and_unary_share_a_sound_memo(self, backend, query, database):
        # evaluate_ghw and evaluate_unary read and fill one answer memo, so
        # whichever answers first decides what the other returns.
        expected = naive_evaluate_unary(query, database)
        for ghw_first in (True, False):
            engine = EvaluationEngine(backend=backend)
            calls = [
                lambda: engine.evaluate_ghw(query, database, 2),
                lambda: engine.evaluate_unary(query, database),
            ]
            if not ghw_first:
                calls.reverse()
            first, second = calls
            assert first() == expected
            hits = engine.cache_details()["answers"].hits
            assert second() == expected
            assert engine.cache_details()["answers"].hits == hits + 1
