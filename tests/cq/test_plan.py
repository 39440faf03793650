"""Tests for compiled query plans (repro.cq.plan) and their engine wiring."""

from __future__ import annotations

import pytest

from repro.cq.engine import EvaluationEngine
from repro.cq.homomorphism import SearchCounters
from repro.cq.naive import (
    naive_all_homomorphisms,
    naive_evaluate_unary,
    naive_has_homomorphism,
)
from repro.cq.parser import parse_cq
from repro.cq.plan import HomomorphismProgram, PlanCounters, QueryPlan
from repro.cq.structured_evaluation import evaluate_with_decomposition
from repro.data import Database, Fact
from repro.data.schema import EntitySchema
from repro.exceptions import DatabaseError, DecompositionError, QueryError
from repro.hypergraph.ghw import decompose
from repro.stream import Delta
from repro.workloads.random_db import random_database


@pytest.fixture
def graph_database():
    return Database.from_tuples(
        {
            "E": [(1, 2), (2, 3), (3, 1), (3, 4), (4, 5), (6, 7)],
            "eta": [(1,), (3,), (4,), (6,)],
        }
    )


QUERIES = [
    "q(x) :- eta(x), E(x, y)",
    "q(x) :- eta(x), E(x, y), E(y, z)",
    "q(x) :- eta(x), E(y, x)",
    "q(x) :- eta(x), E(x, y), E(y, z), E(z, w)",
    "q(x) :- eta(x), E(x, y), E(z, y)",
    "q(x) :- eta(x), E(u, v), E(v, w)",
    "q(x) :- eta(x), E(x, y), E(y, x)",
]


class TestHomomorphismProgram:
    @pytest.mark.parametrize("rule", QUERIES)
    def test_planned_answers_match_naive(self, rule, graph_database):
        query = parse_cq(rule)
        engine = EvaluationEngine()
        assert engine.evaluate_unary(query, graph_database) == (
            naive_evaluate_unary(query, graph_database)
        )

    @pytest.mark.parametrize("rule", QUERIES)
    def test_program_solutions_match_unplanned(self, rule, graph_database):
        query = parse_cq(rule)
        program = HomomorphismProgram.compile(
            query.canonical_database, query.free_variables
        )
        free = query.free_variable
        for element in sorted(graph_database.domain):
            fixed = {free: element}
            planned = sorted(
                map(
                    sorted_items,
                    program.solutions(graph_database, fixed),
                )
            )
            naive = sorted(
                map(
                    sorted_items,
                    naive_all_homomorphisms(
                        query.canonical_database, graph_database, fixed
                    ),
                )
            )
            assert planned == naive

    def test_strictly_fewer_backtrack_nodes(self, graph_database):
        query = parse_cq("q(x) :- eta(x), E(x, y), E(y, z), E(z, w)")
        planned = EvaluationEngine()
        unplanned = SearchCounters()
        answer = planned.evaluate_unary(query, graph_database)
        assert answer == naive_evaluate_unary(
            query, graph_database, unplanned
        )
        assert planned.counters.backtrack_nodes < unplanned.backtrack_nodes
        assert planned.counters.hom_checks == unplanned.hom_checks

    def test_pointed_checks_without_a_plan_prune_like_plans(self):
        # E3's 24-element CQ-SEP instance: every ordered entity pair is one
        # pointed check with no plan to run, so the engine compiles one.
        database = random_database(
            EntitySchema.from_arities({"E": 2}), 24, 48, n_entities=8, seed=24
        )
        entities = sorted(database.entities(), key=repr)
        engine = EvaluationEngine()
        naive = SearchCounters()
        for left in entities:
            for right in entities:
                if left == right:
                    continue
                assert engine.pointed_has_homomorphism(
                    database, (left,), database, (right,)
                ) == naive_has_homomorphism(
                    database, database, {left: right}, naive
                )
        assert naive.hom_checks == 56
        assert engine.counters.hom_checks == naive.hom_checks
        assert engine.counters.backtrack_nodes < naive.backtrack_nodes

    def test_missing_relation_in_target(self):
        query = parse_cq("q(x) :- eta(x), F(x, x)")
        target = Database.from_tuples({"eta": [(1,)], "E": [(1, 1)]})
        program = HomomorphismProgram.compile(
            query.canonical_database, query.free_variables
        )
        assert not program.run(target, {query.free_variable: 1})

    def test_empty_source_always_maps(self):
        program = HomomorphismProgram.compile(Database(()))
        assert program.run(Database.from_tuples({"E": [(1, 2)]}))
        assert program.run(Database(()))

    def test_seed_mismatch_rejected(self, graph_database):
        query = parse_cq("q(x) :- eta(x), E(x, y)")
        program = HomomorphismProgram.compile(
            query.canonical_database, query.free_variables
        )
        with pytest.raises(DatabaseError):
            program.run(graph_database)  # seeded x left unbound

    def test_counters_count_work(self, graph_database):
        query = parse_cq("q(x) :- eta(x), E(x, y)")
        program = HomomorphismProgram.compile(
            query.canonical_database, query.free_variables
        )
        counters = SearchCounters()
        program.run(graph_database, {query.free_variable: 1}, counters)
        assert counters.hom_checks == 1
        assert counters.backtrack_nodes > 0


def sorted_items(assignment):
    return sorted(assignment.items(), key=repr)


class TestYannakakisPlan:
    @pytest.mark.parametrize("rule", QUERIES)
    def test_single_pass_matches_reference_and_backtracking(
        self, rule, graph_database
    ):
        query = parse_cq(rule)
        decomposition = decompose(query, 2)
        plan = QueryPlan.compile(query)
        single_pass = plan.structured_for(decomposition).evaluate(
            graph_database
        )
        per_candidate = evaluate_with_decomposition(
            query, decomposition, graph_database
        )
        assert single_pass == per_candidate
        assert single_pass == naive_evaluate_unary(query, graph_database)

    def test_unconstrained_bag_variables(self, graph_database):
        # E(y, z) is disconnected from x; a one-variable bag {y} leaves z
        # padded over the whole domain in the other bag.
        query = parse_cq("q(x) :- eta(x), E(y, z)")
        decomposition = decompose(query, 1)
        plan = QueryPlan.compile(query).structured_for(decomposition)
        assert plan.evaluate(graph_database) == naive_evaluate_unary(
            query, graph_database
        )

    def test_empty_relation(self):
        query = parse_cq("q(x) :- eta(x), E(x, y)")
        database = Database(
            (Fact("eta", (1,)),),
            schema=Database.from_tuples(
                {"eta": [(1,)], "E": [(1, 1)]}
            ).schema,
        )
        plan = QueryPlan.compile(query).structured(1)
        assert plan.evaluate(database) == frozenset()

    def test_free_only_query(self):
        query = parse_cq("q(x) :- eta(x)")
        database = Database.from_tuples({"eta": [(1,), (2,)]})
        plan = QueryPlan.compile(query).structured(1)
        assert plan.evaluate(database) == frozenset({1, 2})

    def test_counters(self, graph_database):
        query = parse_cq("q(x) :- eta(x), E(x, y), E(y, z)")
        plan = QueryPlan.compile(query).structured(1)
        counters = PlanCounters()
        plan.evaluate(graph_database, counters)
        assert counters.evaluations == 1
        assert counters.bag_relations >= 1
        assert counters.bag_rows > 0

    def test_single_pass_builds_fewer_bags_than_per_candidate(
        self, graph_database
    ):
        query = parse_cq("q(x) :- eta(x), E(x, y), E(y, z)")
        decomposition = decompose(query, 1)
        single = PlanCounters()
        QueryPlan.compile(query).structured_for(decomposition).evaluate(
            graph_database, single
        )
        reference = PlanCounters()
        evaluate_with_decomposition(
            query, decomposition, graph_database, reference
        )
        assert single.bag_relations < reference.bag_relations

    def test_non_unary_rejected(self):
        query = parse_cq("q(x, y) :- E(x, y)")
        decomposition = decompose(query, 1)
        with pytest.raises(QueryError):
            QueryPlan.compile(query).structured_for(decomposition)

    def test_foreign_decomposition_rejected(self):
        query = parse_cq("q(x) :- eta(x), E(x, y)")
        other = parse_cq("q(x) :- eta(x), E(y, x)")
        with pytest.raises(DecompositionError):
            QueryPlan.compile(query).structured_for(decompose(other, 1))


class TestQueryPlan:
    def test_structured_caches_per_width(self):
        query = parse_cq("q(x) :- eta(x), E(a, b), E(b, c), E(c, a)")
        plan = QueryPlan.compile(query)
        assert plan.structured(1) is None  # triangle: ghw 2
        assert plan.structured(2) is not None
        assert plan.structured(2) is plan.structured(2)

    def test_program_seeded_with_free_variables(self):
        query = parse_cq("q(x) :- eta(x), E(x, y)")
        plan = QueryPlan.compile(query)
        assert plan.program.seeded == frozenset({query.free_variable})


class TestEnginePlanCache:
    def test_plan_cache_hits_and_misses_reported(self, graph_database):
        query = parse_cq("q(x) :- eta(x), E(x, y)")
        engine = EvaluationEngine()
        first = engine.plan_for(query)
        assert engine.cache_details()["plans"].misses == 1
        assert engine.plan_for(query) is first
        assert engine.cache_details()["plans"].hits == 1
        # Plan figures are folded into the aggregate too.
        assert engine.cache_info().hits >= 1

    def test_selects_uses_one_plan_across_databases(self, graph_database):
        query = parse_cq("q(x) :- eta(x), E(x, y)")
        other = graph_database.builder().add("E", 7, 8).build()
        engine = EvaluationEngine()
        engine.evaluate_unary(query, graph_database)
        engine.evaluate_unary(query, other)
        assert engine.cache_details()["plans"].misses == 1

    def test_plans_survive_apply_delta(self, graph_database):
        query = parse_cq("q(x) :- eta(x), E(x, y)")
        engine = EvaluationEngine()
        engine.evaluate_unary(query, graph_database)
        before_info = engine.cache_details()["plans"]
        assert before_info.currsize == 1

        delta = Delta(adds={Fact("E", (5, 6))})
        after = Database(
            delta.apply_to(graph_database.facts),
            schema=graph_database.schema,
        )
        engine.apply_delta(graph_database, after, delta.touched_relations)

        plans = engine.cache_details()["plans"]
        assert plans.currsize == 1
        assert plans.invalidated == 0
        # The surviving plan is served as a hit, not recompiled.
        engine.evaluate_unary(query, after)
        assert engine.cache_details()["plans"].misses == before_info.misses

    def test_clear_drops_plans(self, graph_database):
        query = parse_cq("q(x) :- eta(x), E(x, y)")
        engine = EvaluationEngine()
        engine.plan_for(query)
        engine.clear()
        assert engine.cache_details()["plans"].currsize == 0


class TestEngineEvaluateGhw:
    def test_matches_reference_and_memoizes(self, graph_database):
        query = parse_cq("q(x) :- eta(x), E(x, y), E(y, z)")
        engine = EvaluationEngine()
        answer = engine.evaluate_ghw(query, graph_database, 1)
        assert answer == evaluate_with_decomposition(
            query, decompose(query, 1), graph_database
        )
        # Second call answers from the shared answer cache.
        evaluations = engine.plan_counters.evaluations
        assert engine.evaluate_ghw(query, graph_database, 1) == answer
        assert engine.plan_counters.evaluations == evaluations
        # The backtracking path reads the same memo.
        nodes = engine.counters.backtrack_nodes
        assert engine.evaluate_unary(query, graph_database) == answer
        assert engine.counters.backtrack_nodes == nodes

    def test_module_wrapper_runs_on_the_given_engine(self, graph_database):
        from repro.cq import evaluate_ghw

        query = parse_cq("q(x) :- eta(x), E(x, y), E(y, z)")
        engine = EvaluationEngine()
        answer = evaluate_ghw(query, graph_database, 1, engine=engine)
        assert engine.plan_counters.evaluations == 1
        assert engine.evaluate_ghw(query, graph_database, 1) == answer
        assert engine.plan_counters.evaluations == 1

    def test_width_guard(self, graph_database):
        query = parse_cq("q(x) :- eta(x), E(a, b), E(b, c), E(c, a)")
        with pytest.raises(DecompositionError):
            EvaluationEngine().evaluate_ghw(query, graph_database, 1)

    def test_non_unary_rejected(self, graph_database):
        query = parse_cq("q(x, y) :- E(x, y)")
        with pytest.raises(QueryError):
            EvaluationEngine().evaluate_ghw(query, graph_database, 1)
