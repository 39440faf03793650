"""Tests for text/JSON serialization."""

from __future__ import annotations

import pytest

from repro.data import Database, Labeling, TrainingDatabase
from repro.data.io import (
    database_from_text,
    database_to_text,
    facts_from_json,
    labeling_from_text,
    labeling_to_text,
    training_database_from_json,
    training_database_to_json,
)
from repro.exceptions import ParseError


class TestDatabaseText:
    def test_roundtrip(self, path_database):
        text = database_to_text(path_database)
        assert database_from_text(text) == path_database

    def test_comments_and_blanks_ignored(self):
        db = database_from_text(
            """
            # a comment
            E(a, b)  # trailing comment

            eta(a)
            """
        )
        assert len(db) == 2

    def test_integers_parsed(self):
        db = database_from_text("E(1, -2)")
        assert (1, -2) in db.tuples_of("E")

    def test_bad_line_raises_with_lineno(self):
        with pytest.raises(ParseError, match="line 2"):
            database_from_text("E(a, b)\nnot a fact")

    def test_empty_arguments_rejected(self):
        with pytest.raises(ParseError):
            database_from_text("E()")

    def test_empty_database(self):
        assert database_to_text(Database([])) == ""
        assert len(database_from_text("")) == 0


class TestLabelingText:
    def test_roundtrip(self):
        labeling = Labeling({"a": 1, "b": -1, "c": 1})
        assert labeling_from_text(labeling_to_text(labeling)) == labeling

    def test_parse(self):
        labeling = labeling_from_text("+a\n-b\n# comment\n")
        assert labeling["a"] == 1
        assert labeling["b"] == -1

    def test_bad_label_line(self):
        with pytest.raises(ParseError):
            labeling_from_text("*a")


class TestTrainingJson:
    def test_roundtrip(self, path_database):
        training = TrainingDatabase.from_examples(
            path_database, ["a"], ["b", "d"]
        )
        text = training_database_to_json(training)
        restored = training_database_from_json(text)
        assert restored.labeling == training.labeling
        assert restored.database.entities() == training.entities

    def test_invalid_json(self):
        with pytest.raises(ParseError):
            training_database_from_json("{not json")

    def test_missing_keys(self):
        with pytest.raises(ParseError):
            training_database_from_json("{}")


class TestFactsJson:
    @pytest.mark.parametrize(
        "entry",
        [
            {"relation": "E", "arguments": ["a", 5]},
            {"relation": "E", "arguments": ["a", None]},
            {"relation": "E", "arguments": ["a", ["b"]]},
            {"relation": "E", "arguments": "ab"},
            {"relation": 5, "arguments": ["a"]},
            {"arguments": ["a"]},
            ["E", "a"],
        ],
    )
    def test_malformed_entry_is_named_by_index(self, entry):
        valid = {"relation": "E", "arguments": ["a", "b"]}
        with pytest.raises(ParseError, match="entry 1 "):
            facts_from_json([valid, entry])

    def test_facts_must_be_a_list(self):
        with pytest.raises(ParseError, match="list of facts"):
            facts_from_json({"relation": "E", "arguments": ["a"]})
