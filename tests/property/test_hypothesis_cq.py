"""Property-based tests for the CQ substrate (homomorphisms, cores, evaluation)."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cq.containment import are_equivalent, is_contained_in
from repro.cq.core import core_of
from repro.cq.evaluation import evaluate_unary, selects
from repro.cq.homomorphism import (
    find_homomorphism,
    has_homomorphism,
    is_homomorphism,
)
from repro.cq.terms import Variable
from repro.data import Database, Fact
from repro.exceptions import QueryError
from repro.fo.isomorphism import pointed_isomorphic

from tests.property.reference_cq import (
    reference_canonical_form,
    reference_core_of,
)
from tests.property.strategies import (
    edge_databases,
    entity_databases,
    repeated_relation_queries,
    unary_feature_queries,
)

_SETTINGS = settings(max_examples=40, deadline=None)

X = Variable("x")


class TestHomomorphismProperties:
    @_SETTINGS
    @given(edge_databases())
    def test_identity_is_homomorphism(self, database):
        assert has_homomorphism(database, database)

    @_SETTINGS
    @given(edge_databases(), edge_databases())
    def test_found_homomorphisms_are_valid(self, source, target):
        mapping = find_homomorphism(source, target)
        if mapping is not None:
            assert is_homomorphism(mapping, source, target)

    @_SETTINGS
    @given(edge_databases(), edge_databases(), edge_databases())
    def test_composition(self, a, b, c):
        ab = find_homomorphism(a, b)
        bc = find_homomorphism(b, c)
        if ab is not None and bc is not None:
            composed = {key: bc[value] for key, value in ab.items()}
            assert is_homomorphism(composed, a, c)

    @_SETTINGS
    @given(edge_databases())
    def test_collapse_to_loop(self, database):
        loop = Database([Fact("E", (0, 0))])
        assert has_homomorphism(database, loop)

    @_SETTINGS
    @given(edge_databases(), edge_databases())
    def test_union_maps_iff_both_map(self, left, right):
        target = Database([Fact("E", (0, 0)), Fact("E", (0, 1))])
        union = left.union(right)
        assert has_homomorphism(union, target) == (
            has_homomorphism(left, target)
            and has_homomorphism(right, target)
        )


class TestCoreProperties:
    @_SETTINGS
    @given(unary_feature_queries())
    def test_core_is_equivalent(self, query):
        assert are_equivalent(core_of(query), query)

    @_SETTINGS
    @given(unary_feature_queries())
    def test_core_is_idempotent(self, query):
        once = core_of(query)
        assert len(core_of(once).atoms) == len(once.atoms)

    @_SETTINGS
    @given(unary_feature_queries())
    def test_core_never_grows(self, query):
        assert len(core_of(query).atoms) <= len(query.atoms)


class TestCanonicalFormProperties:
    @_SETTINGS
    @given(unary_feature_queries(), st.data())
    def test_invariant_under_renaming_existentials(self, query, data):
        existentials = sorted(query.existential_variables)
        image = data.draw(st.permutations(existentials))
        renamed = query.rename_variables(dict(zip(existentials, image)))
        assert renamed.canonical_form() == query.canonical_form()

    @settings(max_examples=150, deadline=None)
    @given(unary_feature_queries(), unary_feature_queries())
    def test_equal_iff_pointed_isomorphic(self, left, right):
        # networkx VF2 on the canonical databases, pointed at x, is an
        # oracle independent of canonical_form.
        isomorphic = pointed_isomorphic(
            left.canonical_database, (X,), right.canonical_database, (X,)
        )
        assert (left.canonical_form() == right.canonical_form()) == (
            isomorphic
        )


#: Feature queries and general CQs with repeated relations, self-loops and
#: one or two free variables.
_DIFFERENTIAL_QUERIES = st.one_of(
    unary_feature_queries(max_atoms=5), repeated_relation_queries()
)


class TestAgainstReference:
    """``core_of`` and ``canonical_form`` equal their frozen references.

    Enumeration output depends on the exact core atoms and forms, not just
    on their isomorphism classes, so these compare values, not shapes.
    """

    @settings(max_examples=200, deadline=None)
    @given(_DIFFERENTIAL_QUERIES)
    def test_core_of_matches_reference(self, query):
        core = core_of(query)
        reference = reference_core_of(query)
        assert core.atoms == reference.atoms
        assert core.free_variables == reference.free_variables
        if core == query:
            assert core is query
        assert core_of(core) is core

    @settings(max_examples=200, deadline=None)
    @given(_DIFFERENTIAL_QUERIES)
    def test_canonical_form_matches_reference(self, query):
        for subject in (query, reference_core_of(query)):
            try:
                expected = reference_canonical_form(subject)
            except QueryError:
                continue  # past the reference's 8 existential variables
            assert subject.canonical_form() == expected


class TestEvaluationProperties:
    @_SETTINGS
    @given(unary_feature_queries(), entity_databases())
    def test_answers_are_entities(self, query, database):
        assert evaluate_unary(query, database) <= database.entities()

    @_SETTINGS
    @given(unary_feature_queries(), entity_databases())
    def test_selects_matches_evaluate(self, query, database):
        answers = evaluate_unary(query, database)
        for entity in database.entities():
            assert selects(query, database, entity) == (entity in answers)

    @_SETTINGS
    @given(unary_feature_queries(), entity_databases(), entity_databases())
    def test_monotone_under_fact_addition(self, query, left, right):
        union = left.union(right)
        assert evaluate_unary(query, left) <= evaluate_unary(query, union)

    @_SETTINGS
    @given(unary_feature_queries(), unary_feature_queries(), entity_databases())
    def test_containment_is_semantic(self, q1, q2, database):
        if is_contained_in(q1, q2):
            assert evaluate_unary(q1, database) <= evaluate_unary(
                q2, database
            )

    @_SETTINGS
    @given(unary_feature_queries(), entity_databases())
    def test_conjunction_intersects(self, query, database):
        conjunction = query.conjoin(query)
        assert evaluate_unary(conjunction, database) == evaluate_unary(
            query, database
        )
