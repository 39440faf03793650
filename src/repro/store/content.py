"""The content-addressed object store under a store root directory.

Layout (everything is plain JSON — inspectable, diffable, greppable)::

    <root>/meta.json                         store format marker + version
    <root>/objects/<kind>/<hh>/<digest>.json one envelope per entry
    <root>/quarantine/<name>.json            corrupt entries, moved aside

Entries are keyed by the SHA-256 digest of their canonical *key payload*
(:func:`repro.data.digest.digest_hex` over ``{"kind": ..., "key": ...}``),
sharded by the first two hex digits so no directory grows unbounded.  Each
entry file is a versioned **envelope** embedding its kind, key, payload,
and a checksum over the rest — the same canonical-dump scheme model
artifacts use.

Durability and integrity rules:

- **Atomic writes.**  Envelopes are written to a temp file in the target
  directory and ``os.replace``\\ d into place, so readers never observe a
  torn entry under concurrent writers (two processes racing the same key
  write byte-identical envelopes; either replace wins).
- **Verified reads.**  Every read re-hashes the envelope.  A torn,
  truncated, tampered, or mis-keyed entry is *quarantined* (moved into
  ``quarantine/``, never deleted silently, never served) and reported as
  a miss — the caller recomputes and the next put heals the entry.
- **Version gates.**  A store (or single envelope) written by a *newer*
  library version raises :class:`~repro.exceptions.StoreError` instead of
  being misread; older versions within the supported range load normally.
- **LRU GC.**  Reads bump the entry file's mtime, so ``gc`` under an
  entry-count or byte cap evicts least-recently-used entries first.  It
  never evicts a published model: ``refs.json`` would still route to it.
"""

from __future__ import annotations

import itertools
import json
import os
from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Tuple

from repro.data.digest import canonical_dump, checksum, digest_hex
from repro.exceptions import StoreError

__all__ = ["STORE_FORMAT", "STORE_VERSION", "ContentStore", "StoreEntry"]

#: Magic format tag of the store root and of every envelope.
STORE_FORMAT = "repro-store"

#: Current (and only) store format version.
STORE_VERSION = 1

#: Entry kind of published model artifacts (:mod:`repro.store.models`),
#: which :meth:`ContentStore.gc` never evicts.
MODEL_KIND = "model"

_ENVELOPE_KEYS = frozenset(("format", "version", "kind", "key", "payload",
                            "checksum"))

#: Distinguishes concurrent temp files of one process; the pid
#: distinguishes processes.
_tmp_counter = itertools.count()


class StoreEntry(NamedTuple):
    """One on-disk entry, as listed by ``ls``/``gc``/``verify``."""

    kind: str
    digest: str
    path: str
    size: int
    mtime: float


class ContentStore:
    """A disk-backed, content-addressed map of canonical JSON payloads.

    Parameters
    ----------
    root:
        Store root directory; created (with ``meta.json``) if absent.

    The store is safe for concurrent writers across processes (atomic
    write-then-rename; identical content converges) and tolerates a
    reader observing any interleaving — the worst case is a quarantined
    entry and a recompute, never a wrong answer.
    """

    def __init__(self, root: str) -> None:
        self.root = os.path.abspath(root)
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.quarantined = 0
        self._objects = os.path.join(self.root, "objects")
        self._quarantine = os.path.join(self.root, "quarantine")
        self._check_meta()

    # ------------------------------------------------------------------
    # Root bookkeeping
    # ------------------------------------------------------------------

    def _check_meta(self) -> None:
        meta_path = os.path.join(self.root, "meta.json")
        try:
            with open(meta_path) as handle:
                meta = json.load(handle)
        except FileNotFoundError:
            os.makedirs(self._objects, exist_ok=True)
            os.makedirs(self._quarantine, exist_ok=True)
            self._write_atomic(
                meta_path,
                canonical_dump(
                    {"format": STORE_FORMAT, "version": STORE_VERSION}
                ),
            )
            return
        except (OSError, json.JSONDecodeError) as error:
            raise StoreError(
                f"store root {self.root!r} has an unreadable meta.json: "
                f"{error}"
            ) from error
        if not isinstance(meta, dict) or meta.get("format") != STORE_FORMAT:
            raise StoreError(
                f"{self.root!r} is not a {STORE_FORMAT} store root "
                f"(meta format={meta.get('format') if isinstance(meta, dict) else meta!r})"
            )
        version = meta.get("version")
        if not isinstance(version, int) or isinstance(version, bool):
            raise StoreError(f"store meta version must be an integer, got "
                             f"{version!r}")
        if version > STORE_VERSION:
            raise StoreError(
                f"store at {self.root!r} has version {version}, newer than "
                f"the supported version {STORE_VERSION}; upgrade the "
                "library to open it"
            )
        os.makedirs(self._objects, exist_ok=True)
        os.makedirs(self._quarantine, exist_ok=True)

    def _write_atomic(self, path: str, text: str) -> None:
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        tmp = os.path.join(
            directory,
            f".tmp.{os.getpid()}.{next(_tmp_counter)}",
        )
        try:
            with open(tmp, "w") as handle:
                handle.write(text)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except BaseException:
            # No orphaned temp file: entries() lists only *.json, so gc
            # would never reclaim one.
            try:
                os.remove(tmp)
            except OSError:
                pass
            raise

    # ------------------------------------------------------------------
    # Keys and paths
    # ------------------------------------------------------------------

    @staticmethod
    def key_digest(kind: str, key: Any) -> str:
        """SHA-256 hex naming the entry for ``(kind, key)``."""
        return digest_hex({"kind": kind, "key": key})

    def _entry_path(self, kind: str, digest: str) -> str:
        return os.path.join(self._objects, kind, digest[:2], f"{digest}.json")

    # ------------------------------------------------------------------
    # Put / get
    # ------------------------------------------------------------------

    def put(self, kind: str, key: Any, payload: Any) -> str:
        """Persist ``payload`` under ``(kind, key)``; returns the digest.

        Idempotent: re-putting the same key writes a byte-identical
        envelope (canonical dump), so concurrent writers converge.
        """
        digest = self.key_digest(kind, key)
        envelope: Dict[str, Any] = {
            "format": STORE_FORMAT,
            "version": STORE_VERSION,
            "kind": kind,
            "key": key,
            "payload": payload,
        }
        envelope["checksum"] = checksum(envelope)
        self._write_atomic(
            self._entry_path(kind, digest), canonical_dump(envelope)
        )
        self.puts += 1
        return digest

    def get(self, kind: str, key: Any) -> Optional[Any]:
        """The payload stored under ``(kind, key)``, or ``None`` on a miss.

        A corrupt entry (torn write, checksum mismatch, wrong key under
        the digest) is quarantined and reported as a miss — it is never
        served.  An entry from a *newer* store version raises
        :class:`StoreError`.  Successful reads bump the entry's mtime
        (the LRU clock :meth:`gc` evicts by).
        """
        digest = self.key_digest(kind, key)
        path = self._entry_path(kind, digest)
        envelope = self._read_envelope(path)
        if envelope is None:
            self.misses += 1
            return None
        if envelope.get("kind") != kind or envelope.get("key") != key:
            # Hash collision or a file moved by hand: not this entry.
            self._quarantine_entry(path)
            self.misses += 1
            return None
        self.hits += 1
        try:
            os.utime(path, None)
        except OSError:
            pass  # concurrently GC'd; the payload we read is still valid
        return envelope["payload"]

    def delete(self, kind: str, digest: str) -> bool:
        """Remove one entry by digest; True iff it existed."""
        try:
            os.remove(self._entry_path(kind, digest))
            return True
        except FileNotFoundError:
            return False

    # -- envelope reading ----------------------------------------------

    def _read_envelope(self, path: str) -> Optional[Dict[str, Any]]:
        """Parse and verify one envelope file; quarantine on corruption.

        Returns ``None`` for both "absent" and "quarantined" — the caller
        cannot use the entry either way.  Raises :class:`StoreError` only
        for the forward-compatibility gate (an envelope written by a
        newer library must not be guessed at *or* destroyed).
        """
        try:
            with open(path) as handle:
                text = handle.read()
        except (FileNotFoundError, NotADirectoryError):
            return None
        except OSError:
            return None
        try:
            envelope = json.loads(text)
        except json.JSONDecodeError:
            self._quarantine_entry(path)
            return None
        if (
            not isinstance(envelope, dict)
            or envelope.get("format") != STORE_FORMAT
            or set(envelope) != _ENVELOPE_KEYS
        ):
            self._quarantine_entry(path)
            return None
        version = envelope.get("version")
        if isinstance(version, int) and not isinstance(version, bool):
            if version > STORE_VERSION:
                raise StoreError(
                    f"store entry {path!r} has version {version}, newer "
                    f"than the supported version {STORE_VERSION}; upgrade "
                    "the library to read it"
                )
        else:
            self._quarantine_entry(path)
            return None
        claimed = envelope["checksum"]
        body = {k: envelope[k] for k in envelope if k != "checksum"}
        if claimed != checksum(body):
            self._quarantine_entry(path)
            return None
        return envelope

    def _quarantine_entry(self, path: str) -> None:
        """Move a corrupt entry aside (never silently deleted or served)."""
        base = os.path.basename(path)
        for attempt in itertools.count():
            target = os.path.join(
                self._quarantine,
                base if attempt == 0 else f"{attempt}-{base}",
            )
            if os.path.exists(target):
                continue
            try:
                os.replace(path, target)
            except FileNotFoundError:
                return  # another reader quarantined it first
            except OSError:
                return
            self.quarantined += 1
            return

    # ------------------------------------------------------------------
    # Enumeration, verification, GC
    # ------------------------------------------------------------------

    def entries(self) -> List[StoreEntry]:
        """All object entries, sorted by (kind, digest)."""
        found: List[StoreEntry] = []
        if not os.path.isdir(self._objects):
            return found
        for kind in sorted(os.listdir(self._objects)):
            kind_dir = os.path.join(self._objects, kind)
            if not os.path.isdir(kind_dir):
                continue
            for shard in sorted(os.listdir(kind_dir)):
                shard_dir = os.path.join(kind_dir, shard)
                if not os.path.isdir(shard_dir):
                    continue
                for name in sorted(os.listdir(shard_dir)):
                    if not name.endswith(".json"):
                        continue
                    path = os.path.join(shard_dir, name)
                    try:
                        status = os.stat(path)
                    except OSError:
                        continue
                    found.append(
                        StoreEntry(
                            kind,
                            name[: -len(".json")],
                            path,
                            status.st_size,
                            status.st_mtime,
                        )
                    )
        return found

    def scan(self, kind: str) -> Iterator[Tuple[str, Dict[str, Any]]]:
        """Yield ``(digest, envelope)`` for every *valid* entry of a kind.

        Corrupt entries are quarantined along the way (same read rules as
        :meth:`get`); scanning does not bump LRU mtimes.
        """
        for entry in self.entries():
            if entry.kind != kind:
                continue
            envelope = self._read_envelope(entry.path)
            if envelope is not None:
                yield entry.digest, envelope

    def verify(self) -> Dict[str, Any]:
        """Re-hash every entry; quarantine and report the corrupt ones."""
        checked = 0
        corrupt: List[str] = []
        for entry in self.entries():
            checked += 1
            before = self.quarantined
            envelope = self._read_envelope(entry.path)
            if envelope is None or self.quarantined > before:
                corrupt.append(f"{entry.kind}/{entry.digest}")
        return {
            "checked": checked,
            "ok": checked - len(corrupt),
            "corrupt": corrupt,
        }

    def gc(
        self,
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ) -> Dict[str, Any]:
        """Evict least-recently-used entries beyond the caps.

        ``None`` leaves a cap off.  Published models are never evicted:
        they still count toward the caps, so a cap below the number of
        models keeps exactly the models.  Returns the eviction report
        (oldest-mtime entries go first; ties break on the deterministic
        (kind, digest) listing order).
        """
        listing = self.entries()
        kept = len(listing)
        total_bytes = sum(entry.size for entry in listing)
        evictable = sorted(
            (entry for entry in listing if entry.kind != MODEL_KIND),
            key=lambda e: (e.mtime, e.kind, e.digest),
        )
        removed: List[str] = []
        for entry in evictable:
            over_entries = max_entries is not None and kept > max_entries
            over_bytes = max_bytes is not None and total_bytes > max_bytes
            if not over_entries and not over_bytes:
                break
            if self.delete(entry.kind, entry.digest):
                removed.append(f"{entry.kind}/{entry.digest}")
            kept -= 1
            total_bytes -= entry.size
        return {
            "removed": removed,
            "kept": kept,
            "bytes": max(total_bytes, 0),
        }

    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        return {
            "root": self.root,
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "quarantined": self.quarantined,
        }

    def __repr__(self) -> str:
        return f"ContentStore(root={self.root!r})"
