"""Multi-model registry: route names to warmed inference services.

One gateway process serves several models (or several versions of one
model, mid-rollout).  :class:`ModelRegistry` owns that mapping:

- **Registration** binds ``name@version`` to an artifact path.  Versions
  are explicit strings; omitting one auto-numbers ``"1"``, ``"2"``, ... in
  registration order, and the first registered version of a name becomes
  its default.  With a warm-state ``store``, every model published to the
  store's :class:`~repro.store.ModelStore` is enumerated and registered at
  construction (store-backed entries carry no path — they load from the
  store), and default-version pins are persisted back, so rollout and
  rollback survive gateway restarts.
- **Loading is lazy, warmed, and single-flight**: the artifact is read,
  validated, and compiled (:meth:`InferenceService.warm_up`) on first
  use, then the warm service is cached.  Loads may run on worker threads;
  concurrent first requests for the same entry coalesce on a condition
  variable — exactly one thread loads and warms, the rest wait and lease
  the same service.
- **Rollout / rollback** is default-version pinning: requests that name
  only a model get its *default* version, so ``set_default("m", "2")``
  rolls traffic forward and ``set_default("m", "1")`` rolls it back,
  without touching the registrations.
- **Eviction is LRU over idle services**: at most ``max_loaded`` services
  stay resident; beyond that, least-recently-used entries with **zero
  leases** are closed.  A leased (in-use) service is never evicted —
  callers wrap request handling in :meth:`acquire` / the lease's
  ``release`` so eviction can never yank a model mid-batch.

Every loaded service serves in this process, on its own warm engine.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.exceptions import GatewayError
from repro.serve import InferenceService, ModelArtifact

__all__ = ["ModelRegistry", "ModelLease"]


class _Entry:
    """One registered ``name@version``, loaded or not.

    ``path`` is ``None`` for store-backed entries (the artifact loads from
    the registry's :class:`~repro.store.ModelStore` instead of a file).
    ``loading`` marks an in-flight load-and-warm; other acquirers of the
    same entry wait on the registry condition instead of loading twice.
    """

    __slots__ = ("name", "version", "path", "service", "leases", "last_used",
                 "loading")

    def __init__(self, name: str, version: str, path: Optional[str]) -> None:
        self.name = name
        self.version = version
        self.path = path
        self.service: Optional[InferenceService] = None
        self.leases = 0
        self.last_used = 0
        self.loading = False


class ModelLease:
    """A borrowed service: holds off eviction until released.

    Usable as a context manager; :meth:`release` is idempotent.
    """

    __slots__ = ("name", "version", "service", "_release")

    def __init__(
        self,
        name: str,
        version: str,
        service: InferenceService,
        release: Callable[[], None],
    ) -> None:
        self.name = name
        self.version = version
        self.service = service
        self._release: Optional[Callable[[], None]] = release

    def release(self) -> None:
        release, self._release = self._release, None
        if release is not None:
            release()

    def __enter__(self) -> "ModelLease":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.release()


class ModelRegistry:
    """Name/version routing over lazily loaded, warmed inference services.

    Parameters
    ----------
    backend:
        Evaluation backend for every loaded service (``"python"`` /
        ``"numpy"``).
    on_error:
        Degradation mode passed to every loaded service.  The gateway
        default is ``"abstain"`` — one malformed request must not take
        down its whole micro-batch.
    max_loaded:
        Ceiling on resident services; ``None`` disables eviction.
    on_evict:
        ``callback(name, version, service)`` invoked (inside the registry
        lock) just after an evicted service is dropped from the table and
        just before it is closed — the gateway uses it to retire the
        model's dispatch lane.
    store:
        Optional warm-state store (path string or open store object).
        Every model already published in the store is registered at
        construction and loads lazily *from the store*; default-version
        pins persist back; and every loaded service evaluates through the
        store, so answers memoized by one gateway process are hot in the
        next.
    """

    def __init__(
        self,
        backend: str = "python",
        on_error: str = "abstain",
        max_loaded: Optional[int] = None,
        on_evict: Optional[Callable[[str, str, InferenceService], None]] = None,
        store: Optional[Any] = None,
    ) -> None:
        if max_loaded is not None and max_loaded < 1:
            raise GatewayError(f"max_loaded must be >= 1, got {max_loaded}")
        self.backend = backend
        self.on_error = on_error
        self.max_loaded = max_loaded
        self._on_evict = on_evict
        self._entries: Dict[Tuple[str, str], _Entry] = {}
        self._versions: Dict[str, List[str]] = {}
        self._defaults: Dict[str, str] = {}
        self._lock = threading.RLock()
        self._load_done = threading.Condition(self._lock)
        self._clock = 0
        self._closed = False
        self.loads = 0
        self.evictions = 0
        if store is None:
            self._store = None
            self._model_store = None
        else:
            from repro.store import ModelStore
            from repro.store.warm import open_store

            self._store = open_store(store)
            self._model_store = ModelStore(self._store.store)
            self._register_from_store()

    def _register_from_store(self) -> None:
        """Register every model published in the store (store-backed)."""
        assert self._model_store is not None
        for name, info in sorted(self._model_store.models().items()):
            for version in sorted(info["versions"]):
                key = (name, version)
                if key in self._entries:
                    continue
                self._entries[key] = _Entry(name, version, None)
                self._versions.setdefault(name, []).append(version)
            default = info.get("default")
            if default is not None:
                self._defaults[name] = default

    # ------------------------------------------------------------------
    # Registration and routing
    # ------------------------------------------------------------------

    def register(
        self,
        name: str,
        path: str,
        version: Optional[str] = None,
        default: bool = False,
    ) -> str:
        """Bind ``name@version`` to an artifact path; returns the version.

        The first version registered for a name becomes its default;
        ``default=True`` pins this one instead (rollout at registration).
        """
        with self._lock:
            if version is None:
                version = str(len(self._versions.get(name, [])) + 1)
            key = (name, version)
            if key in self._entries:
                raise GatewayError(
                    f"model {name!r} version {version!r} already registered"
                )
            self._entries[key] = _Entry(name, version, path)
            self._versions.setdefault(name, []).append(version)
            if default or name not in self._defaults:
                self._defaults[name] = version
            return version

    def set_default(self, name: str, version: str) -> None:
        """Pin the version unversioned requests for ``name`` resolve to.

        With a store, a pin on a store-published model is persisted into
        the store's refs index, so the rollout (or rollback) survives a
        restart.
        """
        with self._lock:
            if (name, version) not in self._entries:
                raise GatewayError(
                    f"cannot default {name!r} to unregistered "
                    f"version {version!r}"
                )
            self._defaults[name] = version
            if (
                self._model_store is not None
                and version in self._model_store.models().get(name, {}).get(
                    "versions", {}
                )
            ):
                self._model_store.set_default(name, version)

    def resolve(
        self, name: Optional[str] = None, version: Optional[str] = None
    ) -> Tuple[str, str]:
        """Resolve a (possibly partial) route to a registered pair.

        An omitted name is allowed only when exactly one model is
        registered; an omitted version resolves to the name's default.
        """
        with self._lock:
            if name is None:
                if len(self._versions) != 1:
                    raise GatewayError(
                        "request must name a model: "
                        f"{len(self._versions)} models are registered"
                    )
                name = next(iter(self._versions))
            if name not in self._versions:
                raise GatewayError(f"unknown model {name!r}")
            if version is None:
                version = self._defaults[name]
            if (name, version) not in self._entries:
                raise GatewayError(
                    f"unknown version {version!r} of model {name!r}"
                )
            return name, version

    # ------------------------------------------------------------------
    # Loading, leasing, eviction
    # ------------------------------------------------------------------

    def acquire(
        self, name: Optional[str] = None, version: Optional[str] = None
    ) -> ModelLease:
        """Resolve, load-and-warm if needed, and lease the service.

        Safe to call from worker threads: artifact loading and warm-up
        happen outside the registry lock, **single-flight per entry** —
        the first acquirer marks the entry loading and compiles; every
        concurrent acquirer of the same entry waits on the registry
        condition and leases the one warmed service (``loads`` counts one
        load, not one per caller).  If the loader fails, one waiter takes
        over the load rather than failing on someone else's error.
        """
        name, version = self.resolve(name, version)
        key = (name, version)
        with self._load_done:
            while True:
                if self._closed:
                    raise GatewayError("registry is closed")
                entry = self._entries.get(key)
                if entry is None:
                    raise GatewayError(
                        f"model {name!r}@{version!r} was removed"
                    )
                if entry.service is not None:
                    entry.leases += 1
                    self._clock += 1
                    entry.last_used = self._clock
                    return ModelLease(
                        name, version, entry.service,
                        lambda: self._release(key),
                    )
                if not entry.loading:
                    entry.loading = True
                    path = entry.path
                    break
                self._load_done.wait()
        # Load and warm outside the lock: compilation can take a while and
        # must not block routing of other models' requests.
        try:
            service = self._load_service(name, version, path)
        except BaseException:
            with self._load_done:
                entry = self._entries.get(key)
                if entry is not None:
                    entry.loading = False
                self._load_done.notify_all()
            raise
        with self._load_done:
            entry = self._entries.get(key)
            if entry is None:
                # Unregistered while we compiled; nothing to cache.
                service.close()
                self._load_done.notify_all()
                raise GatewayError(f"model {name!r}@{version!r} was removed")
            entry.loading = False
            entry.service = service
            self.loads += 1
            entry.leases += 1
            self._clock += 1
            entry.last_used = self._clock
            self._evict_idle()
            self._load_done.notify_all()
            return ModelLease(
                name, version, entry.service, lambda: self._release(key)
            )

    def _load_service(
        self, name: str, version: str, path: Optional[str]
    ) -> InferenceService:
        """Load + warm one service (no registry lock held)."""
        if path is not None:
            artifact = ModelArtifact.load(path)
        else:
            assert self._model_store is not None
            artifact = self._model_store.load(name, version)
        service = InferenceService(
            artifact,
            on_error=self.on_error,
            backend=self.backend,
            store=self._store,
        )
        service.warm_up()
        return service

    def _release(self, key: Tuple[str, str]) -> None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry.leases > 0:
                entry.leases -= 1
            self._evict_idle()

    def _evict_idle(self) -> None:
        """Close LRU unleased services beyond ``max_loaded``.  Lock held.

        The ``max_loaded`` most-recently-used services are *protected*
        regardless of lease state — a service that just finished a batch
        must not be evicted because an older, still-leased one cannot be.
        Leased entries in the LRU tail are skipped (never close a model
        mid-use), so residency may overshoot the cap while leases pin it;
        the next release sweeps again.
        """
        if self.max_loaded is None:
            return
        loaded = sorted(
            (e for e in self._entries.values() if e.service is not None),
            key=lambda e: e.last_used,
            reverse=True,
        )
        excess = len(loaded) - self.max_loaded
        if excess <= 0:
            return
        for entry in reversed(loaded[self.max_loaded:]):  # oldest first
            if excess <= 0:
                break
            if entry.leases > 0:
                continue
            service, entry.service = entry.service, None
            self.evictions += 1
            excess -= 1
            assert service is not None
            if self._on_evict is not None:
                self._on_evict(entry.name, entry.version, service)
            service.close()

    # ------------------------------------------------------------------
    # Introspection and lifecycle
    # ------------------------------------------------------------------

    def loaded(self, name: str, version: str) -> bool:
        with self._lock:
            entry = self._entries.get((name, version))
            return entry is not None and entry.service is not None

    def peek(
        self, name: str, version: str
    ) -> Optional[InferenceService]:
        """The resident service for an exact pair, without a lease.

        For read-only introspection (the /metrics endpoint, shed
        attribution) — never for serving: a peeked service may be evicted
        at any moment.  ``None`` when the pair is unregistered or not
        loaded.
        """
        with self._lock:
            entry = self._entries.get((name, version))
            return entry.service if entry is not None else None

    def models(self) -> List[Dict[str, Any]]:
        """The ``GET /v1/models`` listing: one row per registered model."""
        with self._lock:
            rows = []
            for name in sorted(self._versions):
                versions = []
                for version in self._versions[name]:
                    entry = self._entries[(name, version)]
                    row: Dict[str, Any] = {
                        "version": version,
                        "loaded": entry.service is not None,
                        "leases": entry.leases,
                    }
                    if entry.service is not None:
                        row["dimension"] = entry.service.artifact.dimension
                        row["checksum"] = entry.service.checksum
                    versions.append(row)
                rows.append(
                    {
                        "name": name,
                        "default_version": self._defaults[name],
                        "versions": versions,
                    }
                )
            return rows

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            stats = {
                "registered": len(self._entries),
                "loaded": sum(
                    1 for e in self._entries.values() if e.service is not None
                ),
                "loads": self.loads,
                "evictions": self.evictions,
                "max_loaded": self.max_loaded,
                "backend": self.backend,
            }
            if self._store is not None:
                stats["store"] = self._store.stats()
            return stats

    def close(self) -> None:
        """Close every loaded service.  Idempotent.

        Wakes any acquirers waiting on an in-flight load so they observe
        the closed registry instead of blocking forever.
        """
        with self._load_done:
            self._closed = True
            for entry in self._entries.values():
                if entry.service is not None:
                    service, entry.service = entry.service, None
                    service.close()
            self._load_done.notify_all()

    def __enter__(self) -> "ModelRegistry":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        with self._lock:
            loaded = sum(
                1 for e in self._entries.values() if e.service is not None
            )
            return (
                f"ModelRegistry({len(self._entries)} registered, "
                f"{loaded} loaded, backend={self.backend!r})"
            )
