"""ModelRegistry single-flight loading and the store-backed registry."""

from __future__ import annotations

import os
import threading

import pytest

from repro.exceptions import StoreError
from repro.gateway import ModelRegistry
from repro.store import ContentStore, ModelStore
from tests.gateway.conftest import premium_eval


@pytest.fixture
def published(premium_session, tmp_path):
    """A store root with premium@1 and premium@2 published."""
    root = str(tmp_path / "store")
    models = ModelStore(ContentStore(root))
    artifact = premium_session.export_artifact()
    models.publish("premium", artifact)
    models.publish("premium", artifact)
    return root


# ----------------------------------------------------------------------
# Single-flight loading
# ----------------------------------------------------------------------


def test_concurrent_first_acquires_load_once(premium_artifact_path):
    with ModelRegistry() as registry:
        registry.register("premium", premium_artifact_path)
        barrier = threading.Barrier(8)
        services = []
        errors = []

        def worker():
            try:
                barrier.wait()
                with registry.acquire("premium") as lease:
                    services.append(lease.service)
            except Exception as error:  # pragma: no cover - diagnostics
                errors.append(error)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert errors == []
        assert len(services) == 8
        # One load, one warm-up, one service identity for all racers.
        assert registry.loads == 1
        assert len({id(service) for service in services}) == 1
        assert services[0].metrics.warmups == 1


def test_failed_load_is_retried_by_a_waiter(tmp_path, premium_artifact_path):
    bad_path = tmp_path / "bad.json"
    bad_path.write_text("{не json artifact}")
    with ModelRegistry() as registry:
        registry.register("premium", str(bad_path))
        barrier = threading.Barrier(4)
        failures = []

        def worker():
            barrier.wait()
            try:
                with registry.acquire("premium"):
                    pass
            except Exception as error:
                failures.append(error)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        # Every racer eventually observed the failure (each waiter retried
        # the load itself instead of hanging on the first failure)...
        assert len(failures) == 4
        # ...and the registry is not wedged: a good model still loads.
        registry.register("good", premium_artifact_path)
        with registry.acquire("good") as lease:
            assert lease.service.metrics.warmups == 1


# ----------------------------------------------------------------------
# Store-backed registry
# ----------------------------------------------------------------------


def test_store_backed_registry_enumerates_published(published):
    with ModelRegistry(store=published) as registry:
        rows = registry.models()
        assert [row["name"] for row in rows] == ["premium"]
        assert [v["version"] for v in rows[0]["versions"]] == ["1", "2"]
        assert rows[0]["default_version"] == "1"
        assert registry.resolve("premium") == ("premium", "1")
        assert not registry.loaded("premium", "1")


def test_store_backed_acquire_loads_and_serves(published):
    with ModelRegistry(store=published) as registry:
        with registry.acquire("premium") as lease:
            assert lease.service.metrics.warmups == 1
            labeling = lease.service.predict(premium_eval(3, 5))
        assert labeling is not None
        assert registry.loads == 1
        stats = registry.stats()
        assert stats["store"]["root"]
        assert stats["store"]["hits"] >= 1


def test_store_default_pin_survives_restart(published):
    with ModelRegistry(store=published) as registry:
        registry.set_default("premium", "2")
        assert registry.resolve("premium") == ("premium", "2")
    # A new registry (new process) over the same root sees the rollout.
    with ModelRegistry(store=published) as registry:
        assert registry.resolve("premium") == ("premium", "2")
        registry.set_default("premium", "1")
    with ModelRegistry(store=published) as registry:
        assert registry.resolve("premium") == ("premium", "1")


def test_store_registry_mixes_with_path_models(published,
                                               premium_artifact_path):
    with ModelRegistry(store=published) as registry:
        registry.register("local", premium_artifact_path)
        assert {row["name"] for row in registry.models()} == {
            "premium", "local",
        }
        with registry.acquire("local") as lease:
            assert lease.service.predict(premium_eval(3, 5)) is not None


def test_missing_store_version_surfaces_as_store_error(published):
    with ModelRegistry(store=published) as registry:
        # The registry enumerated refs at construction; now the envelope
        # itself disappears (GC'd or quarantined behind its back).
        store = ContentStore(published)
        digest = store.key_digest(
            "model", {"name": "premium", "version": "2"}
        )
        assert store.delete("model", digest)
        with pytest.raises(StoreError, match="missing"):
            with registry.acquire("premium", "2"):
                pass
        # The registry stays usable for the surviving version.
        with registry.acquire("premium", "1") as lease:
            assert lease.service.metrics.warmups == 1


def test_gc_never_evicts_a_published_model(published):
    store = ContentStore(published)
    for entry in store.entries():  # both models, oldest on the LRU clock
        os.utime(entry.path, (1000.0, 1000.0))
    for index in range(3):
        store.put("answer", {"q": index}, {"rows": []})

    report = store.gc(max_entries=1)
    # Models count toward the cap but are never evicted.
    assert report["kept"] == 2
    assert [name.split("/")[0] for name in report["removed"]] == [
        "answer"
    ] * 3
    with ModelRegistry(store=published) as registry:
        with registry.acquire("premium", "2") as lease:
            assert lease.service.predict(premium_eval(3, 5)) is not None
