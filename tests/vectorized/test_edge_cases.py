"""Edge-case regressions the workload-level differential suite cannot hit.

Empty databases, empty relations, one-element domains, domains crossing
the 64-element word boundary (multi-word bitsets), duplicate queries in a
statistic pool, forced fallbacks (cell cap), and the fallback-reason
export contract.
"""

from __future__ import annotations

import pytest

from repro.cq.engine import EvaluationEngine
from repro.cq.naive import naive_evaluate_unary, naive_has_homomorphism
from repro.cq.parser import parse_cq
from repro.data import bitset
from repro.data.database import Database, DatabaseBuilder, Fact
from repro.data.schema import EntitySchema, RelationSymbol
from repro.exceptions import ReproError

QUERY = parse_cq("q(x) :- eta(x), E(x, y), R(y)")
SELF_LOOP = parse_cq("q(x) :- eta(x), E(x, x)")


def _both(query, database):
    python = EvaluationEngine(backend="python")
    vectorized = EvaluationEngine(backend="numpy")
    expected = python.evaluate_unary(query, database)
    assert expected == naive_evaluate_unary(query, database)
    assert vectorized.evaluate_unary(query, database) == expected
    return expected


class TestDegenerateDatabases:
    def test_empty_database(self):
        empty = Database(())
        assert _both(QUERY, empty) == frozenset()

    def test_empty_relation(self):
        """Schema declares E, but no E-facts exist."""
        schema = EntitySchema([RelationSymbol("E", 2), RelationSymbol("R", 1)])
        database = Database(
            [Fact("eta", ("a",)), Fact("R", ("a",))], schema=schema
        )
        assert _both(QUERY, database) == frozenset()

    def test_single_element_domain(self):
        database = Database(
            [Fact("eta", ("a",)), Fact("E", ("a", "a")), Fact("R", ("a",))]
        )
        assert _both(QUERY, database) == frozenset({"a"})
        assert _both(SELF_LOOP, database) == frozenset({"a"})

    @pytest.mark.parametrize("n", [63, 64, 65, 130])
    def test_domain_crosses_word_boundary(self, n):
        """Multi-word bitsets: domains straddling the 64-bit packing."""
        builder = DatabaseBuilder()
        for i in range(n):
            builder.add_entity(f"e{i:03d}")
            builder.add("E", f"e{i:03d}", f"e{(i + 1) % n:03d}")
            if i % 3 == 0:
                builder.add("R", f"e{i:03d}")
        database = builder.build()
        assert len(database.domain) == n
        expected = _both(QUERY, database)
        # e_i is selected iff its successor is in R, i.e. (i+1) % n % 3 == 0.
        assert expected == frozenset(
            f"e{i:03d}" for i in range(n) if (i + 1) % n % 3 == 0
        )


class TestPackRoundTripBoundaries:
    @pytest.mark.parametrize("n_bits", [1, 63, 64, 65, 128, 129])
    def test_boundary_round_trips(self, n_bits):
        ids = sorted({0, n_bits // 2, n_bits - 1})
        words = bitset.pack_ids(ids, n_bits)
        assert len(words) == (n_bits + 63) // 64
        assert list(bitset.unpack_ids(words, n_bits)) == ids


class TestStatisticPools:
    def test_duplicate_queries_in_pool(self):
        database = Database(
            [
                Fact("eta", ("a",)),
                Fact("eta", ("b",)),
                Fact("E", ("a", "b")),
                Fact("R", ("b",)),
            ]
        )
        queries = [QUERY, SELF_LOOP, QUERY, QUERY, SELF_LOOP]
        entities = sorted(database.entities(), key=repr)
        python = EvaluationEngine(backend="python")
        vectorized = EvaluationEngine(backend="numpy")
        expected = python.indicator_matrix(queries, database, entities)
        assert vectorized.indicator_matrix(queries, database, entities) == (
            expected
        )
        # Duplicates are answered from the answer cache, not re-swept.
        assert vectorized.counters.vectorized_sweeps == 2


class TestFallbacks:
    def test_cell_cap_forces_fallback_with_identical_results(self):
        builder = DatabaseBuilder()
        for i in range(12):
            builder.add_entity(i)
            for j in range(12):
                builder.add("E", i, j)
            builder.add("R", i)
        database = builder.build()
        cramped = EvaluationEngine(backend="numpy", max_vector_cells=4)
        roomy = EvaluationEngine(backend="numpy")
        expected = roomy.evaluate_unary(QUERY, database)
        assert cramped.evaluate_unary(QUERY, database) == expected
        info = cramped.backend_info()
        assert info["active"] == "numpy"
        assert info["fallbacks"] > 0
        assert "max_cells" in info["fallback_reason"]
        assert cramped.work_snapshot()["backend_fallbacks"] > 0

    def test_unknown_backend_rejected(self):
        with pytest.raises(ReproError):
            EvaluationEngine(backend="fortran")


class TestHomChecks:
    def test_hom_check_with_fixed_images_outside_target(self):
        source = Database([Fact("E", ("u", "v"))])
        target = Database([Fact("E", ("a", "b"))])
        for fixed in ({"u": "zzz"}, {"ghost": "zzz"}, {"u": "a"}, None):
            expected = naive_has_homomorphism(source, target, fixed)
            engine = EvaluationEngine(backend="numpy")
            assert engine.has_homomorphism(source, target, fixed) == expected

    def test_empty_source_is_trivially_satisfiable(self):
        engine = EvaluationEngine(backend="numpy")
        empty = Database(())
        target = Database([Fact("E", ("a", "b"))])
        assert engine.has_homomorphism(empty, target) is True
        assert engine.has_homomorphism(empty, empty) is True
