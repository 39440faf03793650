"""Property-based tests for CQ[m]/CQ[m,p] enumeration invariants."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cq.containment import are_equivalent, is_contained_in
from repro.cq.core import core_of
from repro.cq.enumeration import (
    _argument_tuples,
    enumerate_feature_queries,
    enumerate_unary_queries,
)
from repro.cq.query import CQ
from repro.cq.terms import Atom, Variable
from repro.data.schema import ENTITY_SYMBOL, EntitySchema, Schema

_SETTINGS = settings(max_examples=15, deadline=None)

_small_schemas = st.sampled_from(
    [
        EntitySchema.from_arities({"E": 2}),
        EntitySchema.from_arities({"R": 1, "S": 1}),
        EntitySchema.from_arities({"E": 2, "G": 1}),
    ]
)
_atom_bounds = st.integers(min_value=0, max_value=2)


class TestFeatureEnumerationProperties:
    @_SETTINGS
    @given(_small_schemas, _atom_bounds)
    def test_bounds_respected(self, schema, m):
        for query in enumerate_feature_queries(schema, m):
            assert query.atom_count() <= m
            assert query.is_unary

    @_SETTINGS
    @given(_small_schemas, _atom_bounds)
    def test_monotone_in_m(self, schema, m):
        smaller = enumerate_feature_queries(schema, m)
        larger = enumerate_feature_queries(schema, m + 1)
        assert len(larger) >= len(smaller)

    @_SETTINGS
    @given(_small_schemas, st.integers(min_value=0, max_value=1))
    def test_equivalence_coarser_than_isomorphism(self, schema, m):
        equivalence = enumerate_feature_queries(schema, m)
        isomorphism = enumerate_feature_queries(
            schema, m, dedupe="isomorphism"
        )
        assert len(equivalence) <= len(isomorphism)

    @_SETTINGS
    @given(_small_schemas)
    def test_trivial_query_always_first(self, schema):
        queries = enumerate_feature_queries(schema, 1)
        assert queries[0].atom_count() == 0

    @_SETTINGS
    @given(_small_schemas)
    def test_pairwise_inequivalent(self, schema):
        queries = enumerate_feature_queries(schema, 1)
        for i, left in enumerate(queries):
            for right in queries[i + 1:]:
                assert not are_equivalent(left, right)

    @_SETTINGS
    @given(_small_schemas, st.integers(min_value=1, max_value=2))
    def test_occurrence_bound_shrinks(self, schema, m):
        bounded = enumerate_feature_queries(schema, m, max_occurrences=1)
        free = enumerate_feature_queries(schema, m)
        assert len(bounded) <= len(free)
        for query in bounded:
            assert query.max_variable_occurrences() <= 1


class TestUnaryEnumerationProperties:
    @_SETTINGS
    @given(st.integers(min_value=1, max_value=2))
    def test_free_variable_present(self, m):
        schema = Schema.from_arities({"E": 2})
        from repro.cq.terms import Variable

        for query in enumerate_unary_queries(schema, m):
            assert Variable("x") in query.variables
            assert len(query.atoms) <= m


def _unpruned_pool(schema, m, p, dedupe, entity_symbol):
    """The enumeration without its prune, parents taken from each prefix.

    Every atom list is grown and registered, so each query's parent is
    the entry of the one atom shorter list it was first reached from.
    """
    free = Variable("x")
    relations = sorted(schema, key=lambda symbol: (symbol.name, symbol.arity))
    queries, parents, index = [], [], {}

    def grow(atoms, fresh, parent):
        if entity_symbol is not None:
            query = CQ.feature(atoms, free, entity_symbol)
        elif any(free in atom.arguments for atom in atoms):
            query = CQ(atoms, (free,))
        else:
            query = None
        if query is None:
            parent = None
        else:
            if dedupe == "equivalence":
                query = core_of(query)
            form = query.canonical_form()
            if form not in index:
                index[form] = len(queries)
                queries.append(query.standardized())
                parents.append(parent)
            parent = index[form]
        if len(atoms) == m:
            return
        used = list(dict.fromkeys([free] + [
            variable for atom in atoms for variable in atom.arguments
        ]))
        for symbol in relations:
            for arguments in _argument_tuples(symbol.arity, used, fresh):
                atom = Atom(symbol.name, arguments)
                if atom in atoms:
                    continue
                atoms.append(atom)
                counts = {}
                for each in atoms:
                    for variable in each.arguments:
                        counts[variable] = counts.get(variable, 0) + 1
                if p is None or max(counts.values()) <= p:
                    new = len(set(arguments) - set(used))
                    grow(atoms, fresh + new, parent)
                atoms.pop()

    grow([], 0, None)
    return queries, parents


def _check_parents(pool, rooted):
    assert len(pool.parents) == len(pool)
    for index, parent in enumerate(pool.parents):
        if parent is None:
            # A feature pool's only root is the trivial query.
            assert not rooted or index == 0
            continue
        assert 0 <= parent < index
        assert is_contained_in(pool[index], pool[parent])


_dedupes = st.sampled_from(("equivalence", "isomorphism"))
_occurrence_bounds = st.sampled_from((None, 1, 2))


class TestRefinementParents:
    @_SETTINGS
    @given(_small_schemas, _atom_bounds, _occurrence_bounds, _dedupes)
    def test_feature_parents_precede_and_contain(self, schema, m, p, dedupe):
        pool = enumerate_feature_queries(
            schema, m, max_occurrences=p, dedupe=dedupe
        )
        _check_parents(pool, rooted=True)
        reference = _unpruned_pool(schema, m, p, dedupe, ENTITY_SYMBOL)
        assert (list(pool), list(pool.parents)) == reference

    @_SETTINGS
    @given(
        st.sampled_from(
            [
                Schema.from_arities({"E": 2}),
                Schema.from_arities({"R": 1, "E": 2}),
            ]
        ),
        st.integers(min_value=1, max_value=2),
        _occurrence_bounds,
        _dedupes,
    )
    def test_unary_parents_precede_and_contain(self, schema, m, p, dedupe):
        pool = enumerate_unary_queries(
            schema, m, max_occurrences=p, dedupe=dedupe
        )
        _check_parents(pool, rooted=False)
        reference = _unpruned_pool(schema, m, p, dedupe, None)
        assert (list(pool), list(pool.parents)) == reference
