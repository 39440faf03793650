"""Property-based differential tests for the vectorized numpy backend.

Three layers are cross-checked against :mod:`repro.cq.naive`, the
specification-grade oracle:

* the bit-packing primitives (lossless round trips at arbitrary widths),
* :class:`~repro.cq.vectorized.VectorizedProgram` used directly
  (``evaluate`` / ``decide``), and
* the full :class:`~repro.cq.engine.EvaluationEngine` with
  ``backend="numpy"``, whose fallback path must keep answers identical
  even when the vectorized sweep bows out.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cq.engine import EvaluationEngine
from repro.cq.naive import (
    naive_evaluate,
    naive_evaluate_unary,
    naive_has_homomorphism,
)
from repro.cq.vectorized import VectorizedFallback, VectorizedProgram
from repro.data import bitset

from tests.property.strategies import (
    entity_databases,
    general_queries,
    hom_check_instances,
    mixed_databases,
    unary_feature_queries,
)

_SETTINGS = settings(max_examples=50, deadline=None)


class TestPackingProperties:
    @_SETTINGS
    @given(
        st.integers(min_value=1, max_value=200).flatmap(
            lambda n_bits: st.tuples(
                st.just(n_bits),
                st.lists(
                    st.integers(min_value=0, max_value=n_bits - 1),
                    unique=True,
                ),
            )
        )
    )
    def test_pack_unpack_round_trip(self, case):
        n_bits, ids = case
        words = bitset.pack_ids(ids, n_bits)
        assert len(words) == (n_bits + bitset.WORD_BITS - 1) // (
            bitset.WORD_BITS
        )
        assert list(bitset.unpack_ids(words, n_bits)) == sorted(ids)

    @_SETTINGS
    @given(
        st.integers(min_value=1, max_value=200).flatmap(
            lambda n_bits: st.tuples(
                st.just(n_bits),
                st.lists(
                    st.integers(min_value=0, max_value=n_bits - 1),
                    min_size=1,
                    unique=True,
                ),
            )
        )
    )
    def test_bit_test_matches_membership(self, case):
        np = bitset.np
        n_bits, ids = case
        words = bitset.pack_ids(ids, n_bits)
        probes = np.arange(n_bits, dtype=np.int64)
        member = bitset.bit_test(words, probes)
        assert set(probes[member].tolist()) == set(ids)


class TestProgramProperties:
    @_SETTINGS
    @given(general_queries(), mixed_databases())
    def test_evaluate_matches_naive(self, query, database):
        program = VectorizedProgram.compile_query(query)
        try:
            actual = program.evaluate(database)
        except VectorizedFallback:
            return
        assert actual == naive_evaluate(query, database)

    @_SETTINGS
    @given(hom_check_instances())
    def test_decide_matches_naive(self, instance):
        source, target, fixed = instance
        program = VectorizedProgram.compile_database(source)
        try:
            actual = program.decide(target, fixed)
        except VectorizedFallback:
            return
        assert actual == naive_has_homomorphism(source, target, fixed)


class TestEngineProperties:
    @_SETTINGS
    @given(unary_feature_queries(), entity_databases())
    def test_engine_unary_matches_naive(self, query, database):
        engine = EvaluationEngine(backend="numpy")
        assert engine.evaluate_unary(query, database) == (
            naive_evaluate_unary(query, database)
        )

    @_SETTINGS
    @given(general_queries(), mixed_databases())
    def test_engine_evaluate_matches_naive(self, query, database):
        engine = EvaluationEngine(backend="numpy")
        assert engine.evaluate(query, database) == naive_evaluate(
            query, database
        )

    @_SETTINGS
    @given(hom_check_instances())
    def test_engine_hom_check_matches_naive(self, instance):
        source, target, fixed = instance
        engine = EvaluationEngine(backend="numpy")
        assert engine.has_homomorphism(source, target, fixed) == (
            naive_has_homomorphism(source, target, fixed)
        )

    @_SETTINGS
    @given(general_queries(), mixed_databases())
    def test_cramped_engine_still_matches_naive(self, query, database):
        """A tiny cell cap forces fallbacks without changing answers."""
        engine = EvaluationEngine(backend="numpy", max_vector_cells=2)
        assert engine.evaluate(query, database) == naive_evaluate(
            query, database
        )
