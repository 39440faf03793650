"""Warm-start engine semantics: cold vs warm, tampering, invalidation."""

from __future__ import annotations

import glob
import json
import os

import pytest

from repro.cli import main
from repro.cq import parse_cq
from repro.cq.engine import EvaluationEngine
from repro.data import Database
from repro.store import ContentStore
from repro.store.warm import open_store

PATH_RULE = "q(x) :- E(x, y), E(y, z), eta(x)"
ETA_RULE = "q(x) :- eta(x)"


def _warm_root(tmp_path) -> str:
    return str(tmp_path / "warm")


def _evaluate(root: str, database, backend: str = "python"):
    """One fresh process-restart-shaped engine: evaluate, return evidence."""
    engine = EvaluationEngine(backend=backend, store=root)
    answer = engine.evaluate(parse_cq(PATH_RULE), database)
    return answer, engine.work_snapshot(), engine


# ----------------------------------------------------------------------
# Cold vs warm
# ----------------------------------------------------------------------


def test_warm_engine_recomputes_nothing(tmp_path, path_database):
    root = _warm_root(tmp_path)
    cold_answer, cold_work, _ = _evaluate(root, path_database)
    assert cold_answer == frozenset({("a",)})
    assert cold_work["plan_compilations"] >= 1
    assert cold_work["store_memo_misses"] >= 1

    warm_answer, warm_work, _ = _evaluate(root, path_database)
    assert warm_answer == cold_answer
    assert warm_work["plan_compilations"] == 0
    assert warm_work["hom_checks"] == 0
    assert warm_work["backtrack_nodes"] == 0
    assert warm_work["store_memo_hits"] == 1


def test_warm_numpy_engine_matches_python(tmp_path, path_database):
    pytest.importorskip("numpy")
    root = _warm_root(tmp_path)
    cold_answer, _, _ = _evaluate(root, path_database, backend="numpy")
    warm_answer, warm_work, _ = _evaluate(root, path_database, backend="numpy")
    assert warm_answer == cold_answer == frozenset({("a",)})
    assert warm_work["plan_compilations"] == 0
    assert warm_work["vectorized_sweeps"] == 0
    assert warm_work["store_memo_hits"] == 1
    # Backends share the memo: answer keys do not name the backend.
    python_answer, python_work, _ = _evaluate(root, path_database)
    assert python_answer == cold_answer
    assert python_work["store_memo_hits"] == 1


def test_lru_takes_precedence_over_store(tmp_path, path_database):
    root = _warm_root(tmp_path)
    _evaluate(root, path_database)
    engine = EvaluationEngine(backend="python", store=root)
    query = parse_cq(PATH_RULE)
    engine.evaluate(query, path_database)
    assert engine.store.memo_hits == 1
    engine.evaluate(query, path_database)  # in-memory LRU, no disk re-read
    assert engine.store.memo_hits == 1


def test_root_with_legacy_plan_entries_still_serves(tmp_path, path_database):
    root = _warm_root(tmp_path)
    cold_answer, _, _ = _evaluate(root, path_database)
    # A compiled-plan entry exactly as earlier releases persisted it.  No
    # reader asks for kind "plan" any more, so it must be inert.
    ContentStore(root).put(
        "plan",
        {
            "query": parse_cq(PATH_RULE).digest(),
            "backend": "python",
            "format": 1,
        },
        {
            "rule": PATH_RULE,
            "seeded": ["x"],
            "signatures": [
                ["x", [["E", 0], ["eta", 0]]],
                ["y", [["E", 0], ["E", 1]]],
                ["z", [["E", 1]]],
            ],
            "relations": ["eta", "E", "E"],
            "slots": [
                [["x", True]],
                [["x", True], ["y", False]],
                [["y", True], ["z", False]],
            ],
            "lookups": [[0, "x"], [0, "x"], [0, "y"]],
            "vectorized": False,
        },
    )
    assert main(["store", "verify", root]) == 0

    answer, work, _ = _evaluate(root, path_database)
    assert answer == cold_answer
    assert work["store_memo_hits"] == 1
    assert work["hom_checks"] == 0
    plans = glob.glob(os.path.join(root, "objects", "plan", "*", "*"))
    assert len(plans) == 1  # untouched


# ----------------------------------------------------------------------
# Tampering: quarantined and recomputed, never served
# ----------------------------------------------------------------------


def _tamper_answer_entries(root: str) -> int:
    """Corrupt every answer entry in place; returns how many."""
    tampered = 0
    objects = os.path.join(root, "objects", "answer")
    for shard in os.listdir(objects):
        shard_dir = os.path.join(objects, shard)
        for name in os.listdir(shard_dir):
            path = os.path.join(shard_dir, name)
            envelope = json.load(open(path))
            envelope["payload"]["answer"]["rows"] = [[["s", "WRONG"]]]
            with open(path, "w") as handle:
                json.dump(envelope, handle)
            tampered += 1
    return tampered


def test_tampered_answer_is_quarantined_and_recomputed(
    tmp_path, path_database
):
    root = _warm_root(tmp_path)
    cold_answer, _, _ = _evaluate(root, path_database)
    assert _tamper_answer_entries(root) == 1

    answer, work, engine = _evaluate(root, path_database)
    # The wrong payload was never served: the checksum caught it, the
    # entry moved to quarantine, and the answer was recomputed.
    assert answer == cold_answer
    assert work["store_memo_hits"] == 0
    assert engine.store.store.quarantined == 1
    assert work["hom_checks"] > 0
    assert len(os.listdir(os.path.join(root, "quarantine"))) == 1

    # The recompute re-persisted the entry; a third engine is warm again.
    healed_answer, healed_work, _ = _evaluate(root, path_database)
    assert healed_answer == cold_answer
    assert healed_work["store_memo_hits"] == 1


# ----------------------------------------------------------------------
# Delta invalidation
# ----------------------------------------------------------------------


def test_apply_delta_invalidates_relation_scoped(tmp_path, path_database):
    root = _warm_root(tmp_path)
    engine = EvaluationEngine(backend="python", store=root)
    engine.evaluate(parse_cq(PATH_RULE), path_database)  # mentions E, eta
    engine.evaluate(parse_cq(ETA_RULE), path_database)  # mentions eta only

    builder = path_database.builder()
    builder.add("E", "c", "d")
    after = builder.build()
    result = engine.apply_delta(path_database, after, ["E"])
    # Only the E-mentioning entry is dropped; the eta-only entry stays
    # (still correct for the retired digest, still content-addressed).
    assert result["store_invalidated"] == 1

    warm = EvaluationEngine(backend="python", store=root)
    warm.evaluate(parse_cq(ETA_RULE), path_database)
    assert warm.store.memo_hits == 1
    warm.evaluate(parse_cq(PATH_RULE), path_database)
    assert warm.store.memo_misses >= 1


def test_delta_never_serves_stale_answers(tmp_path, path_database):
    # Content addressing is the real safety: the post-delta database has
    # a new digest, so its lookups miss regardless of invalidation.
    root = _warm_root(tmp_path)
    engine = EvaluationEngine(backend="python", store=root)
    engine.evaluate(parse_cq(PATH_RULE), path_database)

    builder = path_database.builder()
    builder.add("E", "b", "a")  # "b" gains a 2-path b→a→b
    after = builder.build()
    fresh = EvaluationEngine(backend="python", store=root)
    answer = fresh.evaluate(parse_cq(PATH_RULE), after)
    assert answer == frozenset({("a",), ("b",)})
    assert fresh.store.memo_hits == 0


# ----------------------------------------------------------------------
# Negative cache and unencodable answers
# ----------------------------------------------------------------------


def test_negative_cache_avoids_repeat_disk_probes(tmp_path, path_database):
    warm = open_store(_warm_root(tmp_path))
    query = parse_cq(PATH_RULE)
    assert warm.load_answer(query, path_database) is None
    disk_misses = warm.store.misses
    assert warm.load_answer(query, path_database) is None
    assert warm.store.misses == disk_misses  # negative cache, no re-stat
    assert warm.memo_misses == 2
    # A save clears the negative entry; the next load hits.
    warm.save_answer(query, path_database, frozenset({("a",)}))
    assert warm.load_answer(query, path_database) == frozenset({("a",)})


def test_full_disk_serves_the_answer_and_leaves_no_temp_file(
    full_disk, path_database
):
    engine = EvaluationEngine(backend="python", store=full_disk)
    answer = engine.evaluate(parse_cq(PATH_RULE), path_database)
    assert answer == frozenset({("a",)})
    assert engine.store.skipped >= 1
    assert engine.store.memo_saves == 0
    leftovers = glob.glob(
        os.path.join(full_disk.root, "**", ".tmp.*"), recursive=True
    )
    assert leftovers == []


def test_unencodable_answers_are_skipped_not_fatal(tmp_path):
    exotic = Database.from_tuples(
        {"E": [((1, 2), (3, 4))], "eta": [((1, 2),)]}
    )
    root = _warm_root(tmp_path)
    engine = EvaluationEngine(backend="python", store=root)
    answer = engine.evaluate(parse_cq("q(x) :- E(x, y), eta(x)"), exotic)
    assert answer == frozenset({((1, 2),)})
    assert engine.store.skipped >= 1
    # Nothing was persisted; a warm engine recomputes and agrees.
    warm = EvaluationEngine(backend="python", store=root)
    again = warm.evaluate(parse_cq("q(x) :- E(x, y), eta(x)"), exotic)
    assert again == answer
    assert warm.store.memo_hits == 0
