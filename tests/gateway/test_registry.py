"""ModelRegistry: routing, lazy warmed loads, rollout/rollback, eviction."""

from __future__ import annotations

import pytest

from repro.exceptions import GatewayError
from repro.gateway import ModelRegistry
from tests.gateway.conftest import premium_eval


@pytest.fixture
def registry(premium_artifact_path):
    with ModelRegistry() as registry:
        registry.register("premium", premium_artifact_path)
        yield registry


def test_register_auto_versions_and_defaults(premium_artifact_path):
    with ModelRegistry() as registry:
        assert registry.register("m", premium_artifact_path) == "1"
        assert registry.register("m", premium_artifact_path) == "2"
        # First registration is the default until explicitly re-pinned.
        assert registry.resolve("m") == ("m", "1")
        assert registry.resolve("m", "2") == ("m", "2")


def test_duplicate_version_rejected(premium_artifact_path):
    with ModelRegistry() as registry:
        registry.register("m", premium_artifact_path, version="a")
        with pytest.raises(GatewayError):
            registry.register("m", premium_artifact_path, version="a")


def test_resolve_single_model_needs_no_name(registry):
    assert registry.resolve() == ("premium", "1")


def test_resolve_ambiguous_or_unknown(registry, premium_artifact_path):
    registry.register("other", premium_artifact_path)
    with pytest.raises(GatewayError):
        registry.resolve()  # two models, no name
    with pytest.raises(GatewayError):
        registry.resolve("missing")
    with pytest.raises(GatewayError):
        registry.resolve("premium", "99")


def test_lazy_load_warms_once_and_serves(registry):
    assert not registry.loaded("premium", "1")
    with registry.acquire("premium") as lease:
        assert lease.service.metrics.warmups == 1
        labeling = lease.service.predict(premium_eval(3, 5))
    assert registry.loaded("premium", "1")
    assert labeling is not None
    assert registry.loads == 1
    # A second acquire reuses the warm service.
    with registry.acquire("premium") as lease:
        assert lease.service.metrics.warmups == 1
    assert registry.loads == 1


def test_rollout_and_rollback_via_default_pinning(premium_artifact_path):
    with ModelRegistry() as registry:
        registry.register("m", premium_artifact_path, version="v1")
        registry.register("m", premium_artifact_path, version="v2")
        assert registry.resolve("m") == ("m", "v1")
        registry.set_default("m", "v2")  # roll forward
        assert registry.resolve("m") == ("m", "v2")
        registry.set_default("m", "v1")  # roll back
        assert registry.resolve("m") == ("m", "v1")
        with pytest.raises(GatewayError):
            registry.set_default("m", "v3")


def test_lru_eviction_spares_leased_services(premium_artifact_path):
    evicted = []
    with ModelRegistry(
        max_loaded=1,
        on_evict=lambda name, version, service: evicted.append(
            (name, version)
        ),
    ) as registry:
        registry.register("a", premium_artifact_path)
        registry.register("b", premium_artifact_path)
        lease_a = registry.acquire("a")
        # "a" is leased: loading "b" exceeds max_loaded but must not
        # evict the in-use service.
        with registry.acquire("b"):
            pass
        assert registry.loaded("a", "1")
        assert evicted == []
        lease_a.release()
        # Releasing sweeps: "a" is now the idle excess entry ("b" was
        # used more recently).
        assert not registry.loaded("a", "1")
        assert registry.loaded("b", "1")
        assert evicted == [("a", "1")]
        assert registry.evictions == 1
        # An evicted model reloads transparently on the next acquire.
        with registry.acquire("a") as lease:
            assert lease.service.predict(premium_eval(3, 5)) is not None
        assert registry.loads == 3


def test_peek_never_loads(registry):
    assert registry.peek("premium", "1") is None
    with registry.acquire("premium"):
        pass
    assert registry.peek("premium", "1") is not None


def test_models_listing(registry):
    rows = registry.models()
    assert len(rows) == 1
    assert rows[0]["name"] == "premium"
    assert rows[0]["default_version"] == "1"
    assert rows[0]["versions"][0]["loaded"] is False
    with registry.acquire("premium"):
        pass
    row = registry.models()[0]["versions"][0]
    assert row["loaded"] is True
    assert row["checksum"].startswith("sha256:")
    assert row["dimension"] > 0


def test_models_listing_reuses_the_loaded_checksum(registry, monkeypatch):
    from repro.serve.artifact import ModelArtifact

    with registry.acquire("premium"):
        pass
    calls = []
    checksum = ModelArtifact.checksum

    def counting(self):
        calls.append(self)
        return checksum(self)

    monkeypatch.setattr(ModelArtifact, "checksum", counting)
    first = registry.models()[0]["versions"][0]["checksum"]
    second = registry.models()[0]["versions"][0]["checksum"]
    assert calls == []
    assert first == second
    service = registry.peek("premium", "1")
    assert first == checksum(service.artifact)


def test_close_refuses_further_acquires(premium_artifact_path):
    registry = ModelRegistry()
    registry.register("m", premium_artifact_path)
    registry.close()
    with pytest.raises(GatewayError):
        registry.acquire("m")


def test_missing_artifact_surfaces_on_acquire(tmp_path):
    from repro.exceptions import ReproError

    with ModelRegistry() as registry:
        registry.register("ghost", str(tmp_path / "missing.json"))
        with pytest.raises(ReproError):
            registry.acquire("ghost")


def test_stats_shape(registry):
    stats = registry.stats()
    assert stats["registered"] == 1
    assert stats["loaded"] == 0
    assert stats["backend"] == "python"
