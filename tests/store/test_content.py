"""ContentStore failure modes: torn writes, tampering, versions, GC.

The store's contract is "never serve a wrong payload": every corruption
scenario here must end in a quarantined file and a recompute-able miss,
and a store written by a newer library version must refuse to open rather
than guess.
"""

from __future__ import annotations

import json
import multiprocessing
import os

import pytest

from repro.exceptions import StoreError
from repro.store import STORE_FORMAT, STORE_VERSION, ContentStore


def _entry_file(store: ContentStore, kind: str, key) -> str:
    digest = store.key_digest(kind, key)
    return os.path.join(
        store.root, "objects", kind, digest[:2], f"{digest}.json"
    )


def _quarantine_count(store: ContentStore) -> int:
    return len(os.listdir(os.path.join(store.root, "quarantine")))


# ----------------------------------------------------------------------
# Round trips and idempotence
# ----------------------------------------------------------------------


def test_put_get_round_trip(store):
    payload = {"rows": [[1, "a"], [2, "b"]], "nested": {"x": True}}
    digest = store.put("plan", {"q": "sha256:ab", "backend": "python"}, payload)
    assert store.get("plan", {"q": "sha256:ab", "backend": "python"}) == payload
    assert store.get("plan", {"q": "sha256:other", "backend": "python"}) is None
    assert len(digest) == 64
    assert store.stats()["hits"] == 1
    assert store.stats()["misses"] == 1


def test_put_is_idempotent_and_byte_identical(store):
    key = {"name": "m"}
    store.put("model", key, {"v": 1})
    path = _entry_file(store, "model", key)
    with open(path, "rb") as handle:
        first = handle.read()
    store.put("model", key, {"v": 1})
    with open(path, "rb") as handle:
        assert handle.read() == first


def test_key_ordering_is_canonical(store):
    store.put("plan", {"a": 1, "b": 2}, {"p": 1})
    assert store.get("plan", {"b": 2, "a": 1}) == {"p": 1}


def test_delete(store):
    digest = store.put("plan", {"q": 1}, {"p": 1})
    assert store.delete("plan", digest)
    assert not store.delete("plan", digest)
    assert store.get("plan", {"q": 1}) is None


# ----------------------------------------------------------------------
# Torn writes and tampering → quarantine, never served
# ----------------------------------------------------------------------


def test_truncated_entry_is_quarantined_not_served(store):
    key = {"q": "x"}
    store.put("answer", key, {"rows": [["i", 1]]})
    path = _entry_file(store, "answer", key)
    with open(path) as handle:
        text = handle.read()
    with open(path, "w") as handle:
        handle.write(text[: len(text) // 2])  # torn mid-file
    assert store.get("answer", key) is None
    assert _quarantine_count(store) == 1
    assert store.quarantined == 1
    # The next put heals the entry.
    store.put("answer", key, {"rows": [["i", 1]]})
    assert store.get("answer", key) == {"rows": [["i", 1]]}
    # The quarantined copy is preserved, not deleted.
    assert _quarantine_count(store) == 1


def test_bitflip_checksum_mismatch_is_quarantined(store):
    key = {"q": "x"}
    store.put("answer", key, {"value": 7})
    path = _entry_file(store, "answer", key)
    with open(path) as handle:
        envelope = json.load(handle)
    envelope["payload"]["value"] = 8  # tamper, keep valid JSON
    with open(path, "w") as handle:
        json.dump(envelope, handle)
    assert store.get("answer", key) is None
    assert _quarantine_count(store) == 1


def test_miskeyed_entry_is_quarantined(store):
    key = {"q": "x"}
    other = {"q": "y"}
    store.put("answer", other, {"value": 7})
    # Move the (internally consistent) envelope under the wrong digest.
    os.makedirs(os.path.dirname(_entry_file(store, "answer", key)),
                exist_ok=True)
    os.replace(_entry_file(store, "answer", other),
               _entry_file(store, "answer", key))
    assert store.get("answer", key) is None
    assert _quarantine_count(store) == 1


def test_verify_reports_and_quarantines(store):
    store.put("plan", {"q": 1}, {"p": 1})
    key = {"q": 2}
    store.put("plan", key, {"p": 2})
    with open(_entry_file(store, "plan", key), "a") as handle:
        handle.write("garbage")
    report = store.verify()
    assert report["checked"] == 2
    assert report["ok"] == 1
    assert len(report["corrupt"]) == 1
    # Quarantined by verify; a second verify sees only the healthy entry.
    assert store.verify() == {"checked": 1, "ok": 1, "corrupt": []}


# ----------------------------------------------------------------------
# Version gates
# ----------------------------------------------------------------------


def test_newer_store_version_refuses_to_open(tmp_path):
    root = tmp_path / "newer"
    ContentStore(str(root))  # create with current version
    meta = {"format": STORE_FORMAT, "version": STORE_VERSION + 1}
    (root / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(StoreError, match="newer"):
        ContentStore(str(root))


def test_non_store_root_refuses_to_open(tmp_path):
    root = tmp_path / "other"
    root.mkdir()
    (root / "meta.json").write_text(json.dumps({"format": "something-else"}))
    with pytest.raises(StoreError, match="not a"):
        ContentStore(str(root))


def test_newer_envelope_version_raises_not_quarantines(store):
    key = {"q": "x"}
    store.put("plan", key, {"p": 1})
    path = _entry_file(store, "plan", key)
    with open(path) as handle:
        envelope = json.load(handle)
    envelope["version"] = STORE_VERSION + 1
    with open(path, "w") as handle:
        json.dump(envelope, handle)
    with pytest.raises(StoreError, match="newer"):
        store.get("plan", key)
    # Never destroyed: the entry file is still in place, not quarantined.
    assert os.path.exists(path)
    assert _quarantine_count(store) == 0


# ----------------------------------------------------------------------
# GC under pressure: LRU eviction order
# ----------------------------------------------------------------------


def test_gc_evicts_least_recently_used_first(store):
    keys = [{"q": index} for index in range(5)]
    for index, key in enumerate(keys):
        digest = store.put("plan", key, {"p": index})
        path = os.path.join(store.root, "objects", "plan", digest[:2],
                            f"{digest}.json")
        os.utime(path, (1000.0 + index, 1000.0 + index))  # explicit LRU clock
    # Touch the oldest entry: a hit bumps its mtime past everyone.
    assert store.get("plan", keys[0]) == {"p": 0}
    report = store.gc(max_entries=2)
    assert len(report["removed"]) == 3
    assert report["kept"] == 2
    # Survivors: the freshly-read keys[0] and the newest write keys[4].
    assert store.get("plan", keys[0]) == {"p": 0}
    assert store.get("plan", keys[4]) == {"p": 4}
    for key in keys[1:4]:
        assert store.get("plan", key) is None


def test_gc_byte_cap(store):
    for index in range(4):
        digest = store.put("plan", {"q": index}, {"p": "x" * 100})
        path = os.path.join(store.root, "objects", "plan", digest[:2],
                            f"{digest}.json")
        os.utime(path, (1000.0 + index, 1000.0 + index))
    sizes = [entry.size for entry in store.entries()]
    cap = sum(sizes) - 1  # force exactly one eviction
    report = store.gc(max_bytes=cap)
    assert len(report["removed"]) == 1
    assert report["removed"][0].startswith("plan/")
    assert store.get("plan", {"q": 0}) is None  # the oldest went first


def test_gc_uncapped_is_a_no_op(store):
    store.put("plan", {"q": 1}, {"p": 1})
    assert store.gc() == {"removed": [], "kept": 1,
                          "bytes": store.entries()[0].size}


# ----------------------------------------------------------------------
# Concurrent writers (two real processes)
# ----------------------------------------------------------------------


def _hammer(root: str, worker: int) -> None:
    local = ContentStore(root)
    for round_index in range(20):
        # Same keys and same payloads from both processes: writers must
        # converge on byte-identical envelopes with no torn reads.
        for key_index in range(5):
            key = {"q": key_index}
            local.put("answer", key, {"rows": [key_index] * 10})
            got = local.get("answer", key)
            assert got is None or got == {"rows": [key_index] * 10}


def test_two_process_concurrent_writers_converge(tmp_path):
    root = str(tmp_path / "shared")
    ContentStore(root)
    context = multiprocessing.get_context("spawn")
    workers = [
        context.Process(target=_hammer, args=(root, index))
        for index in range(2)
    ]
    for process in workers:
        process.start()
    for process in workers:
        process.join(timeout=120)
        assert process.exitcode == 0
    # After the dust settles every entry reads back clean.
    store = ContentStore(root)
    assert store.verify()["corrupt"] == []
    for key_index in range(5):
        assert store.get("answer", {"q": key_index}) == {
            "rows": [key_index] * 10
        }
