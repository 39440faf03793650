"""Disk-backed content-addressed warm-state store (answers and models).

The persistence tier that turns two of the library's per-process wins —
memoized query answers and validated model artifacts — into durable ones:
a process restarting against the same store root starts *hot*.  Compiled
plans are not persisted; a process compiles them from the queries faster
than it could decode them.

- :class:`ContentStore` — the object layer: sharded JSON envelopes keyed
  by SHA-256 digests of canonical key payloads, atomic write-then-rename,
  checksum-verified reads with quarantine-and-recompute on corruption,
  versioned envelopes with a forward-compatibility gate, and LRU GC.
- :class:`WarmStore` — the engine-facing facade: memo cache (keyed by
  query digest × database digest), with hit/miss accounting and
  relation-scoped invalidation mirroring ``apply_delta``.
- :class:`ModelStore` — the persistent model registry backend: publish /
  enumerate / load / default-pin model versions, making the gateway's
  rollout and rollback survive restarts.
- :func:`open_store` — normalizes the ``store=`` knob every subsystem
  threads through (path string, :class:`ContentStore`, or
  :class:`WarmStore`).

Everything is stdlib-only and keyed by the same canonical-dump + SHA-256
discipline as model-artifact checksums (:mod:`repro.data.digest`).
"""

from repro.store.codec import (
    ANSWER_FORMAT,
    CodecError,
    UnencodableAnswer,
    decode_answer,
    encode_answer,
)
from repro.store.content import (
    STORE_FORMAT,
    STORE_VERSION,
    ContentStore,
    StoreEntry,
)
from repro.store.models import ModelStore
from repro.store.warm import WarmStore, open_store

__all__ = [
    "STORE_FORMAT",
    "STORE_VERSION",
    "ANSWER_FORMAT",
    "ContentStore",
    "StoreEntry",
    "WarmStore",
    "ModelStore",
    "open_store",
    "CodecError",
    "UnencodableAnswer",
    "encode_answer",
    "decode_answer",
]
