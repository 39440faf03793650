"""Cache correctness for the EvaluationEngine.

Covers: hit/miss accounting of ``cache_info()``, which cache a ``q(D)``
fill and a single pointed check each land in, freshness across new
``Database`` objects, hash-collision non-aliasing, bounded LRU eviction,
and ``clear()``.
"""

from __future__ import annotations

import pytest

from repro.cq.engine import (
    EvaluationEngine,
    default_engine,
    set_default_engine,
)
from repro.cq.homomorphism import SearchCounters
from repro.cq.naive import naive_evaluate_unary
from repro.cq.parser import parse_cq
from repro.data import Database


@pytest.fixture
def query():
    return parse_cq("q(x) :- eta(x), E(x, y)")


@pytest.fixture
def database():
    return Database.from_tuples(
        {"E": [("a", "b"), ("b", "c")], "eta": [("a",), ("c",)]}
    )


class TestCacheInfoAccounting:
    def test_fresh_engine_is_empty(self):
        engine = EvaluationEngine()
        info = engine.cache_info()
        assert info.hits == 0
        assert info.misses == 0
        assert info.currsize == 0

    def test_hits_and_misses_are_counted(self, query, database):
        engine = EvaluationEngine()
        first = engine.evaluate_unary(query, database)
        after_miss = engine.cache_info()
        assert after_miss.misses > 0
        assert after_miss.hits == 0
        assert after_miss.currsize > 0

        second = engine.evaluate_unary(query, database)
        after_hit = engine.cache_info()
        assert second == first == {"a"}
        assert after_hit.hits == after_miss.hits + 1
        # The replay touched only the answer cache, not the hom cache.
        assert after_hit.misses == after_miss.misses

    def test_cache_details_names_all_caches(self):
        details = EvaluationEngine().cache_details()
        assert set(details) == {"hom", "answers", "games", "plans"}

    @pytest.mark.parametrize("fill", ["evaluate_unary", "indicator_matrix"])
    def test_query_answers_bypass_the_hom_cache(self, fill, query, database):
        engine = EvaluationEngine()
        if fill == "evaluate_unary":
            engine.evaluate_unary(query, database)
        else:
            engine.indicator_matrix([query], database, ["a", "c"])
        assert engine.cache_details()["hom"].currsize == 0
        oracle = SearchCounters()
        naive_evaluate_unary(query, database, oracle)
        assert engine.counters.hom_checks == oracle.hom_checks > 0

    def test_repeated_selects_is_a_hom_cache_hit(self, query, database):
        engine = EvaluationEngine(backend="python")
        assert engine.selects(query, database, "a")
        hom = engine.cache_details()["hom"]
        assert (hom.hits, hom.misses, hom.currsize) == (0, 1, 1)
        checks = engine.counters.hom_checks
        assert engine.selects(query, database, "a")
        assert engine.cache_details()["hom"].hits == 1
        assert engine.counters.hom_checks == checks

    def test_work_snapshot_keys(self, query, database):
        engine = EvaluationEngine()
        engine.evaluate_unary(query, database)
        snapshot = engine.work_snapshot()
        assert snapshot["hom_checks"] > 0
        assert snapshot["backtrack_nodes"] > 0
        assert snapshot["cache_misses"] > 0


class TestFreshness:
    def test_new_database_never_serves_stale_entries(self, query, database):
        engine = EvaluationEngine()
        assert engine.evaluate_unary(query, database) == {"a"}

        # A *new* database grown from the old one is a distinct cache key.
        grown = database.builder().add("E", "c", "a").build()
        assert engine.evaluate_unary(query, grown) == {"a", "c"}
        # The original database still answers from its own entry.
        assert engine.evaluate_unary(query, database) == {"a"}

    def test_equal_databases_share_entries_soundly(self, query, database):
        engine = EvaluationEngine()
        first = engine.evaluate_unary(query, database)
        clone = Database(database.facts)
        hits_before = engine.cache_info().hits
        assert engine.evaluate_unary(query, clone) == first
        # Value-equal databases may share the entry — that is sound, the
        # answer depends only on the fact set.
        assert engine.cache_info().hits == hits_before + 1

    def test_hash_collisions_do_not_alias(self, query):
        engine = EvaluationEngine()
        db1 = Database.from_tuples(
            {"E": [("a", "b")], "eta": [("a",)]}
        )
        db2 = Database.from_tuples(
            {"E": [("b", "a")], "eta": [("a",)]}
        )
        # Force a hash collision between the two (the lazy-hash slot is
        # written before either object's first __hash__ call).
        db1._hash = 12345
        db2._hash = 12345
        assert hash(db1) == hash(db2)
        assert engine.evaluate_unary(query, db1) == {"a"}
        assert engine.evaluate_unary(query, db2) == frozenset()
        # Replays stay distinct too.
        assert engine.evaluate_unary(query, db1) == {"a"}
        assert engine.evaluate_unary(query, db2) == frozenset()


class TestBoundedLru:
    def test_eviction_respects_maxsize(self, query):
        engine = EvaluationEngine(cache_size=4)
        databases = [
            Database.from_tuples(
                {"E": [("a", f"b{i}")], "eta": [("a",)]}
            )
            for i in range(10)
        ]
        for db in databases:
            engine.evaluate_unary(query, db)
        for name, info in engine.cache_details().items():
            assert info.currsize <= 4, name

    def test_evicted_entries_recompute_correctly(self, query):
        engine = EvaluationEngine(cache_size=1)
        db1 = Database.from_tuples({"E": [("a", "b")], "eta": [("a",)]})
        db2 = Database.from_tuples({"E": [("b", "a")], "eta": [("a",)]})
        assert engine.evaluate_unary(query, db1) == {"a"}
        assert engine.evaluate_unary(query, db2) == frozenset()
        # db1's entry was evicted; recomputation gives the same answer.
        assert engine.evaluate_unary(query, db1) == {"a"}

    def test_rejects_nonpositive_cache_size(self):
        with pytest.raises(ValueError):
            EvaluationEngine(cache_size=0)


class TestClear:
    def test_clear_drops_entries_and_tallies(self, query, database):
        engine = EvaluationEngine()
        engine.evaluate_unary(query, database)
        engine.evaluate_unary(query, database)
        assert engine.cache_info().currsize > 0
        engine.clear()
        info = engine.cache_info()
        assert info.currsize == 0
        assert info.hits == 0
        assert info.misses == 0
        # Results after clear are recomputed, not stale.
        assert engine.evaluate_unary(query, database) == {"a"}

    def test_counters_reset(self, query, database):
        engine = EvaluationEngine()
        engine.evaluate_unary(query, database)
        assert engine.counters.hom_checks > 0
        engine.counters.reset()
        assert engine.counters.hom_checks == 0
        assert engine.counters.backtrack_nodes == 0


class TestDefaultEngineSwap:
    def test_set_default_engine_roundtrip(self):
        replacement = EvaluationEngine(cache_size=8)
        previous = set_default_engine(replacement)
        try:
            assert default_engine() is replacement
        finally:
            set_default_engine(previous)
        assert default_engine() is previous


class TestReentrancy:
    """Re-entrant ``__eq__``/``__hash__`` callbacks must not corrupt the LRU.

    The engine's concurrency contract is single-threaded per process (the
    runtime subsystem forks one engine per worker), so the only re-entrancy
    the ``_LRUCache`` must survive is a key whose dunder methods call back
    into the cache mid-operation — e.g. a database element with an exotic
    ``__eq__`` that triggers another evaluation.
    """

    def _cache(self, maxsize=4):
        from repro.cq.engine import _LRUCache

        return _LRUCache(maxsize)

    def test_lookup_survives_reentrant_clear(self):
        cache = self._cache()

        class Key:
            def __init__(self, tag):
                self.tag = tag
                self.armed = False

            def __hash__(self):
                return hash(self.tag)

            def __eq__(self, other):
                if self.armed:
                    self.armed = False
                    cache.clear()  # re-enter mid-lookup
                return isinstance(other, Key) and self.tag == other.tag

        key = Key("k")
        cache.store(key, "value")
        key.armed = True  # the *resident* key's __eq__ runs on lookup
        probe = Key("k")
        # The get() comparison fires clear(); move_to_end then sees a
        # missing key and must not raise.
        value = cache.lookup(probe)
        assert value in ("value", cache._MISSING)
        assert len(cache._data) == 0

    def test_store_survives_reentrant_clear_during_eviction(self):
        cache = self._cache(maxsize=1)

        class Key:
            def __init__(self, tag, armed=False):
                self.tag = tag
                self.armed = armed

            def __hash__(self):
                return 17  # force collision so __eq__ runs

            def __eq__(self, other):
                if self.armed:
                    self.armed = False
                    cache.clear()  # re-enter mid-store
                return isinstance(other, Key) and self.tag == other.tag

        cache.store(Key("old", armed=True), 1)
        # Storing a colliding key compares against the armed resident,
        # which clears the cache; the eviction loop must tolerate the
        # now-empty dict instead of raising KeyError.
        cache.store(Key("new"), 2)
        assert len(cache._data) <= 1

    def test_cache_stays_usable_after_reentrant_calls(self):
        cache = self._cache(maxsize=2)
        cache.store("a", 1)
        cache.clear()
        cache.store("b", 2)
        assert cache.lookup("b") == 2
        assert cache.info().currsize == 1
