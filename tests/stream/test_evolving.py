"""Unit tests for :class:`repro.stream.EvolvingDatabase`."""

from __future__ import annotations

import pytest

from repro.data import Database
from repro.data.database import Fact
from repro.data.schema import EntitySchema, Schema
from repro.exceptions import StreamError
from repro.stream import Delta, EvolvingDatabase


def fact(relation, *args):
    return Fact(relation, tuple(args))


@pytest.fixture
def base():
    return Database.from_tuples(
        {
            "E": [("a", "b"), ("b", "c")],
            "eta": [("a",), ("b",)],
        }
    )


class TestConstruction:
    def test_defaults_to_base_schema(self, base):
        evolving = EvolvingDatabase(base)
        assert evolving.schema == base.schema
        assert evolving.version == 0
        assert evolving.delta_log == ()
        assert len(evolving) == len(base)
        assert set(evolving) == set(base)

    def test_schema_override_declares_future_relations(self, base):
        schema = EntitySchema.from_arities({"E": 2, "eta": 1, "flag": 1})
        evolving = EvolvingDatabase(base, schema=schema)
        evolving.apply(Delta.insert("flag", "a"))
        assert fact("flag", "a") in evolving


class TestValidation:
    def test_unknown_relation_is_rejected(self, base):
        evolving = EvolvingDatabase(base)
        with pytest.raises(StreamError, match="absent from"):
            evolving.apply(Delta.insert("ghost", "a"))

    def test_arity_mismatch_is_rejected(self, base):
        evolving = EvolvingDatabase(base)
        with pytest.raises(StreamError, match="arity"):
            evolving.apply(Delta.insert("E", "a"))

    def test_rejected_delta_leaves_state_untouched(self, base):
        evolving = EvolvingDatabase(base)
        bad = Delta(adds=[fact("eta", "z"), fact("E", "oops")])
        with pytest.raises(StreamError):
            evolving.apply(bad)
        assert evolving.version == 0
        assert fact("eta", "z") not in evolving
        assert evolving.materialize() == base


class TestApply:
    def test_apply_adds_and_removes(self, base):
        evolving = EvolvingDatabase(base)
        delta = Delta(
            adds=[fact("eta", "c")], removes=[fact("E", "a", "b")]
        )
        effective = evolving.apply(delta)
        assert effective == delta
        assert evolving.version == 1
        assert evolving.delta_log == (delta,)
        assert fact("eta", "c") in evolving
        assert fact("E", "a", "b") not in evolving
        assert len(evolving) == len(base)  # one in, one out

    def test_effective_delta_drops_noops(self, base):
        evolving = EvolvingDatabase(base)
        request = Delta(
            adds=[fact("eta", "a"), fact("eta", "z")],  # "a" already present
            removes=[fact("E", "c", "d")],  # absent
        )
        effective = evolving.apply(request)
        assert effective == Delta(adds=[fact("eta", "z")])
        assert effective.touched_relations == frozenset({"eta"})

    def test_ineffective_delta_still_logs_and_versions(self, base):
        evolving = EvolvingDatabase(base)
        before = evolving.materialize()
        effective = evolving.apply(Delta.insert("eta", "a"))
        assert effective.is_empty
        assert evolving.version == 1
        assert len(evolving.delta_log) == 1
        # The materialized database is still the cached pristine object.
        assert evolving.materialize() is before

    def test_removing_last_fact_drops_the_relation(self, base):
        evolving = EvolvingDatabase(base)
        evolving.apply(Delta.delete("eta", "a"))
        evolving.apply(Delta.delete("eta", "b"))
        assert "eta" not in evolving.relation_names
        assert evolving.facts_of("eta") == frozenset()

    def test_apply_all_returns_the_composed_effective_delta(self, base):
        evolving = EvolvingDatabase(base)
        net = evolving.apply_all(
            [
                Delta.insert("eta", "c"),
                Delta.delete("eta", "c"),
                Delta.insert("eta", "d"),
            ]
        )
        # Both the add and the delete of eta(c) took effect, so the
        # composition nets out to "remove c, add d" (later ops win).
        assert net == Delta(
            adds=[fact("eta", "d")], removes=[fact("eta", "c")]
        )
        assert net.apply_to(base.facts) == frozenset(evolving.materialize())
        assert evolving.version == 3


class TestMaterialize:
    def test_equals_rebuilding_from_scratch(self, base):
        evolving = EvolvingDatabase(base)
        log = [
            Delta.insert("eta", "c"),
            Delta(adds=[fact("E", "c", "a")], removes=[fact("E", "a", "b")]),
            Delta.delete("eta", "b"),
        ]
        for delta in log:
            evolving.apply(delta)
        facts = base.facts
        for delta in log:
            facts = delta.apply_to(facts)
        assert evolving.materialize() == Database(facts, schema=base.schema)

    def test_is_cached_per_version(self, base):
        evolving = EvolvingDatabase(base)
        assert evolving.materialize() is evolving.materialize()
        evolving.apply(Delta.insert("eta", "c"))
        first = evolving.materialize()
        assert first is evolving.materialize()

    def test_keeps_the_fixed_schema(self, base):
        schema = EntitySchema.from_arities({"E": 2, "eta": 1, "flag": 1})
        evolving = EvolvingDatabase(base, schema=schema)
        evolving.apply(Delta.delete("E", "a", "b"))
        assert evolving.materialize().schema == schema


class TestAccessors:
    def test_entities_track_the_entity_relation(self, base):
        evolving = EvolvingDatabase(base)
        assert evolving.entities() == {"a", "b"}
        evolving.apply(Delta.insert("eta", "c"))
        assert evolving.entities() == {"a", "b", "c"}

    def test_contains_rejects_non_facts(self, base):
        evolving = EvolvingDatabase(base)
        assert "not a fact" not in evolving

    def test_iteration_is_deterministic(self, base):
        evolving = EvolvingDatabase(base)
        evolving.apply(Delta.insert("eta", "c"))
        assert list(evolving) == list(evolving)

    def test_repr_mentions_version(self, base):
        evolving = EvolvingDatabase(base)
        evolving.apply(Delta.insert("eta", "z"))
        assert "version=1" in repr(evolving)
