"""Unit tests for :class:`repro.stream.Delta` and its JSONL codec."""

from __future__ import annotations

import pytest

from repro.data import Database
from repro.data.database import Fact
from repro.exceptions import ParseError, StreamError
from repro.stream import (
    Delta,
    delta_from_json,
    delta_to_json,
    deltas_from_jsonl,
    deltas_to_jsonl,
)


def fact(relation, *args):
    return Fact(relation, tuple(args))


class TestConstruction:
    def test_empty_delta(self):
        delta = Delta()
        assert delta.is_empty
        assert len(delta) == 0
        assert delta.touched_relations == frozenset()

    def test_adds_and_removes_are_normalized(self):
        a, b = fact("E", "x", "y"), fact("E", "y", "z")
        d1 = Delta(adds=[a, b, a], removes=[fact("eta", "w")])
        d2 = Delta(adds=[b, a], removes=[fact("eta", "w")])
        assert d1 == d2
        assert hash(d1) == hash(d2)
        assert d1.adds == tuple(sorted({a, b}, key=repr))

    def test_fact_on_both_sides_is_rejected(self):
        with pytest.raises(StreamError, match="both adds and removes"):
            Delta(adds=[fact("E", "x", "y")], removes=[fact("E", "x", "y")])

    def test_non_fact_entries_are_rejected(self):
        with pytest.raises(StreamError, match="must be Fact"):
            Delta(adds=[("E", ("x", "y"))])

    def test_insert_and_delete_constructors(self):
        ins = Delta.insert("premium", "prod0")
        assert ins.adds == (fact("premium", "prod0"),)
        assert ins.removes == ()
        dele = Delta.delete("premium", "prod0")
        assert dele.removes == (fact("premium", "prod0"),)
        assert dele.adds == ()

    def test_between_databases(self):
        before = Database.from_tuples({"E": [("a", "b")], "eta": [("a",)]})
        after = Database.from_tuples({"E": [("a", "c")], "eta": [("a",)]})
        delta = Delta.between(before, after)
        assert delta.adds == (fact("E", "a", "c"),)
        assert delta.removes == (fact("E", "a", "b"),)
        assert delta.apply_to(before.facts) == after.facts


class TestSemantics:
    def test_apply_to_is_remove_then_add(self):
        facts = frozenset({fact("R", "a"), fact("R", "b")})
        delta = Delta(adds=[fact("R", "c")], removes=[fact("R", "a")])
        assert delta.apply_to(facts) == frozenset(
            {fact("R", "b"), fact("R", "c")}
        )

    def test_apply_is_set_semantic(self):
        facts = frozenset({fact("R", "a")})
        noop = Delta(adds=[fact("R", "a")], removes=[fact("R", "zzz")])
        assert noop.apply_to(facts) == facts

    def test_touched_relations(self):
        delta = Delta(
            adds=[fact("E", "a", "b")], removes=[fact("eta", "c")]
        )
        assert delta.touched_relations == frozenset({"E", "eta"})

    def test_iter_yields_removes_then_adds(self):
        delta = Delta(adds=[fact("R", "a")], removes=[fact("R", "b")])
        assert list(delta) == [
            ("remove", fact("R", "b")),
            ("add", fact("R", "a")),
        ]

    @pytest.mark.parametrize(
        "d1, d2",
        [
            (Delta.insert("R", "a"), Delta.delete("R", "a")),
            (Delta.insert("R", "a"), Delta.insert("S", "b")),
            (
                Delta(adds=[fact("R", "a")], removes=[fact("S", "b")]),
                Delta(adds=[fact("S", "b")], removes=[fact("T", "c")]),
            ),
        ],
    )
    def test_then_matches_sequential_application(self, d1, d2):
        for base in (
            frozenset(),
            frozenset({fact("R", "a")}),
            frozenset({fact("S", "b"), fact("T", "c")}),
        ):
            assert d1.then(d2).apply_to(base) == d2.apply_to(
                d1.apply_to(base)
            )

    def test_then_later_operation_wins(self):
        add_then_remove = Delta.insert("R", "a").then(Delta.delete("R", "a"))
        assert add_then_remove.adds == ()
        assert add_then_remove.removes == (fact("R", "a"),)
        remove_then_add = Delta.delete("R", "a").then(Delta.insert("R", "a"))
        assert remove_then_add.adds == (fact("R", "a"),)
        assert remove_then_add.removes == ()

    def test_inverse_undoes_an_effective_delta(self):
        facts = frozenset({fact("R", "a"), fact("S", "b")})
        delta = Delta(adds=[fact("R", "c")], removes=[fact("S", "b")])
        assert delta.inverse().apply_to(delta.apply_to(facts)) == facts


class TestJsonCodec:
    def test_round_trip(self):
        delta = Delta(
            adds=[fact("E", "a", "b"), fact("eta", "c")],
            removes=[fact("E", "x", "y")],
        )
        assert delta_from_json(delta_to_json(delta)) == delta

    def test_json_dict_shape(self):
        delta = Delta.insert("premium", "prod0")
        payload = delta.to_json_dict()
        assert set(payload) == {"add", "remove"}
        assert payload["remove"] == []

    def test_missing_keys_default_to_empty(self):
        assert Delta.from_json_dict({}) == Delta()
        assert Delta.from_json_dict(
            {"add": [{"relation": "R", "arguments": ["a"]}]}
        ) == Delta.insert("R", "a")

    def test_unknown_keys_are_rejected(self):
        with pytest.raises(ParseError, match="unknown keys"):
            Delta.from_json_dict({"add": [], "removes": []})

    def test_non_object_payload_is_rejected(self):
        with pytest.raises(ParseError, match="JSON object"):
            Delta.from_json_dict([1, 2])

    def test_non_string_argument_is_a_parse_error(self):
        with pytest.raises(ParseError, match="entry 0"):
            Delta.from_json_dict(
                {"add": [{"relation": "R", "arguments": ["a", 5]}]}
            )

    def test_ambiguous_delta_surfaces_as_parse_error(self):
        payload = {
            "add": [{"relation": "R", "arguments": ["a"]}],
            "remove": [{"relation": "R", "arguments": ["a"]}],
        }
        with pytest.raises(ParseError, match="malformed delta"):
            Delta.from_json_dict(payload)

    def test_invalid_json_text(self):
        with pytest.raises(ParseError, match="invalid delta JSON"):
            delta_from_json("{not json")


class TestJsonlCodec:
    def test_round_trip_with_comments_and_blanks(self):
        log = [
            Delta.insert("R", "a"),
            Delta(adds=[fact("S", "b", "c")], removes=[fact("R", "a")]),
        ]
        text = "# a comment\n\n" + deltas_to_jsonl(log)
        assert deltas_from_jsonl(text) == log

    def test_empty_log(self):
        assert deltas_to_jsonl([]) == ""
        assert deltas_from_jsonl("") == []

    def test_errors_are_line_numbered(self):
        text = delta_to_json(Delta.insert("R", "a")) + "\n{broken\n"
        with pytest.raises(ParseError, match="delta line 2"):
            deltas_from_jsonl(text)
