"""Shared fixtures: small databases and training databases used throughout.

Worker pools pick their start method by the runtime's own rule — fork
while the process is single-threaded, spawn once it has threads — so a
test selects spawn by holding a live thread (the ``live_thread``
fixture).  With ``REPRO_TEST_SPAWN=1`` one idle thread is parked for the
whole session, so every pool spawns and rows that need fork skip.
"""

from __future__ import annotations

import os
import threading

import pytest

from repro.data import Database, TrainingDatabase


def pytest_configure(config):
    if os.environ.get("REPRO_TEST_SPAWN") == "1":
        threading.Thread(
            target=threading.Event().wait, name="repro-test-spawn", daemon=True
        ).start()


@pytest.fixture
def live_thread():
    """One idle thread for the test's duration: new pools then spawn."""
    release = threading.Event()
    thread = threading.Thread(target=release.wait, daemon=True)
    thread.start()
    yield thread
    release.set()
    thread.join(timeout=10)
    assert not thread.is_alive()


@pytest.fixture
def path_database() -> Database:
    """a → b → c plus an isolated edge d → e; entities a, b, d."""
    return Database.from_tuples(
        {
            "E": [("a", "b"), ("b", "c"), ("d", "e")],
            "eta": [("a",), ("b",), ("d",)],
        }
    )


@pytest.fixture
def path_training(path_database: Database) -> TrainingDatabase:
    """Positive: the unique entity with an outgoing 2-path."""
    return TrainingDatabase.from_examples(
        path_database, positive=["a"], negative=["b", "d"]
    )


@pytest.fixture
def triangle_database() -> Database:
    """A directed triangle and a directed 2-path; all nodes entities."""
    return Database.from_tuples(
        {
            "E": [
                ("t1", "t2"),
                ("t2", "t3"),
                ("t3", "t1"),
                ("p1", "p2"),
                ("p2", "p3"),
            ],
            "eta": [
                ("t1",),
                ("t2",),
                ("t3",),
                ("p1",),
                ("p2",),
                ("p3",),
            ],
        }
    )


@pytest.fixture
def triangle_training(triangle_database: Database) -> TrainingDatabase:
    """Triangle nodes positive, path nodes negative (CQ-separable: cycles

    have arbitrarily long walks; p-nodes do not)."""
    return TrainingDatabase.from_examples(
        triangle_database,
        positive=["t1", "t2", "t3"],
        negative=["p1", "p2", "p3"],
    )


@pytest.fixture
def colors_database() -> Database:
    """Unary-only database: R(a), S(a), S(c); entities a, b, c (Example 6.2)."""
    return Database.from_tuples(
        {
            "R": [("a",)],
            "S": [("a",), ("c",)],
            "eta": [("a",), ("b",), ("c",)],
        }
    )
