"""Persistent model registry backend over the content store.

Artifacts go into the store as ``kind="model"`` envelopes keyed by
``(name, version)`` — the payload is the artifact's own canonical JSON
document, so a loaded model passes :meth:`ModelArtifact.from_json`'s full
strict validation (its embedded checksum *and* the envelope checksum).
A small ``refs.json`` index at the store root records, per model name,
the published versions and the *default* version — the durable form of
the gateway's rollout/rollback pinning, written atomically so a killed
process never leaves a half-updated index.

``refs.json`` is last-writer-wins across processes (publishing is a CLI /
deploy-time operation, not a hot path); the artifact envelopes themselves
are content-checked on every read, so the worst concurrent-publish
outcome is a stale listing, never a corrupt model.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional

from repro.data.digest import canonical_dump
from repro.exceptions import StoreError
from repro.serve.artifact import ModelArtifact
from repro.store.content import MODEL_KIND, ContentStore

__all__ = ["ModelStore"]

REFS_FORMAT = "repro-store-refs"
REFS_VERSION = 1


class ModelStore:
    """Publish, enumerate, load, and default-pin model versions."""

    def __init__(self, store: ContentStore) -> None:
        self.store = store
        self._refs_path = os.path.join(store.root, "refs.json")

    # ------------------------------------------------------------------
    # The refs index
    # ------------------------------------------------------------------

    def _read_refs(self) -> Dict[str, Any]:
        try:
            with open(self._refs_path) as handle:
                refs = json.load(handle)
        except FileNotFoundError:
            return {}
        except (OSError, json.JSONDecodeError) as error:
            raise StoreError(
                f"model refs index {self._refs_path!r} is unreadable: "
                f"{error}"
            ) from error
        if (
            not isinstance(refs, dict)
            or refs.get("format") != REFS_FORMAT
            or not isinstance(refs.get("models"), dict)
        ):
            raise StoreError(
                f"{self._refs_path!r} is not a {REFS_FORMAT} index"
            )
        version = refs.get("version")
        if isinstance(version, int) and version > REFS_VERSION:
            raise StoreError(
                f"model refs index version {version} is newer than the "
                f"supported version {REFS_VERSION}; upgrade the library"
            )
        return refs["models"]

    def _write_refs(self, models: Dict[str, Any]) -> None:
        self.store._write_atomic(
            self._refs_path,
            canonical_dump(
                {
                    "format": REFS_FORMAT,
                    "version": REFS_VERSION,
                    "models": models,
                }
            ),
        )

    # ------------------------------------------------------------------
    # Publishing and routing
    # ------------------------------------------------------------------

    def publish(
        self,
        name: str,
        artifact: ModelArtifact,
        version: Optional[str] = None,
        default: bool = False,
    ) -> str:
        """Persist an artifact as ``name@version``; returns the version.

        Omitting the version auto-numbers past the highest integer
        version published so far (mirroring the in-memory registry's
        registration-order numbering).  The first version published for a
        name becomes its default; ``default=True`` pins this one.
        """
        models = self._read_refs()
        entry = models.setdefault(name, {"versions": {}, "default": None})
        if version is None:
            numeric = [
                int(v) for v in entry["versions"] if v.isdigit()
            ]
            version = str(max(numeric, default=0) + 1)
        self.store.put(
            MODEL_KIND,
            {"name": name, "version": version},
            json.loads(artifact.to_json()),
        )
        entry["versions"][version] = artifact.checksum()
        if default or entry["default"] is None:
            entry["default"] = version
        self._write_refs(models)
        return version

    def models(self) -> Dict[str, Dict[str, Any]]:
        """``{name: {"versions": {version: checksum}, "default": v}}``."""
        return self._read_refs()

    def versions(self, name: str) -> List[str]:
        entry = self._read_refs().get(name)
        return sorted(entry["versions"]) if entry else []

    def set_default(self, name: str, version: str) -> None:
        """Durably pin the default version (rollout / rollback)."""
        models = self._read_refs()
        entry = models.get(name)
        if entry is None or version not in entry["versions"]:
            raise StoreError(
                f"cannot default {name!r} to unpublished version "
                f"{version!r}"
            )
        entry["default"] = version
        self._write_refs(models)

    def default_version(self, name: str) -> Optional[str]:
        entry = self._read_refs().get(name)
        return entry["default"] if entry else None

    def load(self, name: str, version: str) -> ModelArtifact:
        """Load and strictly validate ``name@version`` from the store.

        A quarantined/absent envelope (tampered store) surfaces as a
        :class:`StoreError` — the registry treats the version as
        unavailable rather than serving a guess.
        """
        payload = self.store.get(MODEL_KIND, {"name": name, "version": version})
        if payload is None:
            raise StoreError(
                f"model {name!r}@{version!r} is missing from the store "
                "(never published, GC'd, or quarantined as corrupt)"
            )
        return ModelArtifact.from_json(json.dumps(payload))

    def remove(self, name: str, version: Optional[str] = None) -> int:
        """Unpublish one version (or all of a name); returns removals."""
        models = self._read_refs()
        entry = models.get(name)
        if entry is None:
            return 0
        targets = [version] if version is not None else list(entry["versions"])
        removed = 0
        for target in targets:
            if target not in entry["versions"]:
                continue
            digest = self.store.key_digest(
                MODEL_KIND, {"name": name, "version": target}
            )
            self.store.delete(MODEL_KIND, digest)
            del entry["versions"][target]
            removed += 1
        if not entry["versions"]:
            del models[name]
        elif entry["default"] not in entry["versions"]:
            entry["default"] = sorted(entry["versions"])[0]
        self._write_refs(models)
        return removed

    def __repr__(self) -> str:
        return f"ModelStore(root={self.store.root!r})"
