"""Plain-text and JSON serialization of databases and training databases.

The textual format is line-oriented and human-editable::

    # comment
    edge(a, b)
    edge(b, c)
    eta(a)
    eta(b)

Labels are serialized separately (``{"a": 1, "b": -1}`` in JSON, or ``+a`` /
``-b`` lines in text form).  Elements round-trip as strings or integers;
structured elements (tuples created by products) serialize via ``repr`` and do
not round-trip, which is fine for their intended transient use.
"""

from __future__ import annotations

import json
import re
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.data.database import Database, Fact
from repro.data.labeling import Labeling, TrainingDatabase
from repro.data.schema import Schema
from repro.exceptions import ParseError

__all__ = [
    "database_to_text",
    "database_from_text",
    "labeling_to_text",
    "labeling_from_text",
    "facts_to_json",
    "facts_from_json",
    "training_database_to_json",
    "training_database_from_json",
]

_FACT_RE = re.compile(r"^\s*(\w+)\s*\(\s*(.*?)\s*\)\s*$")
_LABEL_RE = re.compile(r"^\s*([+-])\s*(\S+)\s*$")
_INT_RE = re.compile(r"-?\d+")


def _element_to_str(element: Any) -> str:
    return str(element)


def _element_from_str(token: str) -> Any:
    token = token.strip()
    if not token:
        raise ParseError("empty element token")
    if _INT_RE.fullmatch(token):
        return int(token)
    return token


def database_to_text(database: Database) -> str:
    """Serialize a database to the line-oriented fact syntax."""
    lines = []
    for fact in database:
        inner = ", ".join(_element_to_str(a) for a in fact.arguments)
        lines.append(f"{fact.relation}({inner})")
    return "\n".join(lines) + ("\n" if lines else "")


def database_from_text(
    text: str, schema: Optional[Schema] = None
) -> Database:
    """Parse the line-oriented fact syntax into a database."""
    facts: List[Fact] = []
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        match = _FACT_RE.match(line)
        if match is None:
            raise ParseError(f"line {lineno}: cannot parse fact {raw_line!r}")
        relation, inner = match.group(1), match.group(2)
        if not inner:
            raise ParseError(
                f"line {lineno}: fact over {relation!r} has no arguments"
            )
        arguments = tuple(
            _element_from_str(token) for token in inner.split(",")
        )
        facts.append(Fact(relation, arguments))
    return Database(facts, schema=schema)


def labeling_to_text(labeling: Labeling) -> str:
    """Serialize a labeling as ``+entity`` / ``-entity`` lines."""
    lines = []
    for entity in sorted(labeling, key=str):
        sign = "+" if labeling[entity] == 1 else "-"
        lines.append(f"{sign}{_element_to_str(entity)}")
    return "\n".join(lines) + ("\n" if lines else "")


def labeling_from_text(text: str) -> Labeling:
    labels: Dict[Any, int] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        match = _LABEL_RE.match(line)
        if match is None:
            raise ParseError(
                f"line {lineno}: cannot parse label line {raw_line!r}"
            )
        sign, token = match.group(1), match.group(2)
        labels[_element_from_str(token)] = 1 if sign == "+" else -1
    return Labeling(labels)


def facts_to_json(facts: Iterable[Fact]) -> List[Dict[str, Any]]:
    """Facts (or a database) as JSON-able dicts (deterministic order).

    The shared fact encoding of training-database JSON, the serving
    subsystem's JSONL request streams, and the streaming subsystem's
    delta logs.  Accepts any iterable of facts; a :class:`Database`
    iterates its facts, so both spellings work.
    """
    entries = [
        {
            "relation": fact.relation,
            "arguments": [_element_to_str(a) for a in fact.arguments],
        }
        for fact in facts
    ]
    # Sort on the encoded form: raw argument tuples may mix element types
    # (ints and strings) that Python refuses to order.
    entries.sort(key=lambda entry: (entry["relation"], entry["arguments"]))
    return entries


def facts_from_json(entries: Any) -> List[Fact]:
    """Parse a list of ``{"relation", "arguments"}`` dicts into facts.

    Every entry must be an object with a string ``relation`` and a list
    of string ``arguments``; anything else is a :class:`ParseError` that
    names the entry's index.
    """
    if not isinstance(entries, list):
        raise ParseError(
            f"malformed fact JSON: expected a list of facts, got "
            f"{type(entries).__name__}"
        )
    facts: List[Fact] = []
    for index, entry in enumerate(entries):
        relation = arguments = None
        if isinstance(entry, dict):
            relation = entry.get("relation")
            arguments = entry.get("arguments")
        if isinstance(relation, str) and isinstance(arguments, list):
            elements = tuple(
                _element_from_str(a) for a in arguments if isinstance(a, str)
            )
            if len(elements) == len(arguments):
                facts.append(Fact(relation, elements))
                continue
        raise ParseError(
            f"malformed fact JSON: entry {index} must be an object with "
            "a string 'relation' and a list of string 'arguments'"
        )
    return facts


def training_database_to_json(training: TrainingDatabase) -> str:
    """Serialize a training database as a JSON document."""
    payload = {
        "facts": facts_to_json(training.database),
        "labels": {
            _element_to_str(entity): label
            for entity, label in training.labeling.items()
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def training_database_from_json(text: str) -> TrainingDatabase:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    try:
        facts = facts_from_json(payload["facts"])
        labels = {
            _element_from_str(entity): int(label)
            for entity, label in payload["labels"].items()
        }
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed training-database JSON: {exc}") from exc
    return TrainingDatabase(Database(facts), Labeling(labels))
