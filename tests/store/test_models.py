"""ModelStore: publish/load round-trips, durable defaults, tamper gates."""

from __future__ import annotations

import glob
import json
import os

import pytest

from repro.data.digest import canonical_dump
from repro.exceptions import StoreError
from repro.store import ContentStore
from repro.store.models import REFS_FORMAT, REFS_VERSION, ModelStore


@pytest.fixture
def model_store(store) -> ModelStore:
    return ModelStore(store)


def test_publish_load_round_trip(model_store, retail_artifact):
    version = model_store.publish("retail", retail_artifact)
    assert version == "1"
    loaded = model_store.load("retail", "1")
    assert loaded.checksum() == retail_artifact.checksum()
    assert loaded.to_json() == retail_artifact.to_json()


def test_auto_versioning_counts_past_the_max(model_store, retail_artifact):
    assert model_store.publish("retail", retail_artifact) == "1"
    assert model_store.publish("retail", retail_artifact) == "2"
    model_store.publish("retail", retail_artifact, version="10")
    assert model_store.publish("retail", retail_artifact) == "11"
    # Non-numeric versions coexist and don't confuse the counter.
    model_store.publish("retail", retail_artifact, version="canary")
    assert model_store.publish("retail", retail_artifact) == "12"
    assert model_store.versions("retail") == [
        "1", "10", "11", "12", "2", "canary",
    ]


def test_first_publish_is_default_and_pins_persist(store, retail_artifact):
    first = ModelStore(store)
    first.publish("retail", retail_artifact)
    first.publish("retail", retail_artifact)
    assert first.default_version("retail") == "1"
    first.set_default("retail", "2")  # rollout

    # A new process (new ModelStore over the same root) sees the pin.
    second = ModelStore(ContentStore(store.root))
    assert second.default_version("retail") == "2"
    second.set_default("retail", "1")  # rollback
    assert ModelStore(store).default_version("retail") == "1"


def test_default_true_pins_on_publish(model_store, retail_artifact):
    model_store.publish("retail", retail_artifact)
    model_store.publish("retail", retail_artifact, default=True)
    assert model_store.default_version("retail") == "2"


def test_set_default_rejects_unpublished(model_store, retail_artifact):
    model_store.publish("retail", retail_artifact)
    with pytest.raises(StoreError, match="unpublished"):
        model_store.set_default("retail", "99")
    with pytest.raises(StoreError, match="unpublished"):
        model_store.set_default("nosuch", "1")


def test_remove_repoints_default(model_store, retail_artifact):
    model_store.publish("retail", retail_artifact)
    model_store.publish("retail", retail_artifact)
    model_store.set_default("retail", "2")
    assert model_store.remove("retail", "2") == 1
    assert model_store.default_version("retail") == "1"
    assert model_store.remove("retail") == 1  # drop the rest
    assert model_store.models() == {}
    assert model_store.remove("retail") == 0


def test_publish_on_a_full_disk_raises_and_leaves_no_temp_file(
    full_disk, retail_artifact
):
    model_store = ModelStore(full_disk)
    with pytest.raises(OSError):
        model_store.publish("retail", retail_artifact)
    assert glob.glob(
        os.path.join(full_disk.root, "**", ".tmp.*"), recursive=True
    ) == []
    assert model_store.models() == {}


def test_load_missing_version_is_a_store_error(model_store, retail_artifact):
    model_store.publish("retail", retail_artifact)
    with pytest.raises(StoreError, match="missing"):
        model_store.load("retail", "7")


def test_tampered_model_is_never_served(store, retail_artifact):
    model_store = ModelStore(store)
    model_store.publish("retail", retail_artifact)
    digest = store.key_digest("model", {"name": "retail", "version": "1"})
    path = os.path.join(
        store.root, "objects", "model", digest[:2], f"{digest}.json"
    )
    envelope = json.load(open(path))
    envelope["payload"]["concept"] = "tampered"
    with open(path, "w") as handle:
        json.dump(envelope, handle)
    with pytest.raises(StoreError, match="missing"):
        model_store.load("retail", "1")
    # Quarantined, not deleted — forensics survive.
    assert len(os.listdir(os.path.join(store.root, "quarantine"))) == 1


def test_forward_version_refs_refuse_to_load(store, retail_artifact):
    model_store = ModelStore(store)
    model_store.publish("retail", retail_artifact)
    refs_path = os.path.join(store.root, "refs.json")
    refs = json.load(open(refs_path))
    refs["version"] = REFS_VERSION + 1
    with open(refs_path, "w") as handle:
        handle.write(canonical_dump(refs))
    with pytest.raises(StoreError, match="newer"):
        model_store.models()


def test_malformed_refs_refuse_to_load(store):
    refs_path = os.path.join(store.root, "refs.json")
    with open(refs_path, "w") as handle:
        handle.write(canonical_dump({"format": "wrong", "models": {}}))
    with pytest.raises(StoreError, match=REFS_FORMAT):
        ModelStore(store).models()


def test_names_are_isolated(model_store, retail_artifact):
    model_store.publish("retail", retail_artifact)
    model_store.publish("other", retail_artifact)
    assert set(model_store.models()) == {"retail", "other"}
    model_store.remove("other")
    assert set(model_store.models()) == {"retail"}
    assert model_store.load("retail", "1").checksum() == (
        retail_artifact.checksum()
    )
