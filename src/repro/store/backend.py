"""On-disk key/value backend: atomic writes, CRC-verified reads, LRU.

Layout: ``root/<key[:2]>/<key[2:]>.json`` — two-hex-char shard
directories keep any one directory small under large campaigns.

Durability/integrity contract:

* **atomic writes** — payloads are written to a same-directory temp
  file and ``os.replace``d into place, so readers (including other
  processes) never observe a half-written entry and a crash never
  leaves a corrupt *final* file, only an orphan temp;
* **CRC-verified reads** — each record stores a CRC32 of the canonical
  JSON of its payload; the CRC is recomputed on every disk read, and a
  mismatch (at-rest bit rot, truncation, manual tampering) is treated
  as a **miss**, counted, and the damaged file is quarantined out of
  the way so a re-run simply recomputes and rewrites the entry;
* **in-process LRU** — a bounded ``OrderedDict`` fronts the disk so a
  hot key (the serving layer's memoized recommendations) costs no I/O
  after first touch.  Cached payloads are shared objects; callers must
  treat them as read-only (the codec builds fresh objects on decode,
  so normal store usage never mutates them).
"""

from __future__ import annotations

import json
import os
import zlib
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, Optional

from ..errors import ConfigurationError, StoreError

__all__ = ["DiskBackend"]

_KEY_CHARS = set("0123456789abcdef")


def _canonical_dumps(payload: Any) -> str:
    # allow_nan=False: payloads are codec output, where non-finite
    # floats are tagged; a raw nan/inf here is a bug upstream and would
    # break the CRC canonicalisation (nan != nan after a round trip).
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), ensure_ascii=True,
        allow_nan=False,
    )


class DiskBackend:
    """Sharded, CRC-verified, LRU-fronted on-disk payload store."""

    def __init__(self, root, lru_capacity: int = 256) -> None:
        if lru_capacity < 0:
            raise ConfigurationError(
                f"lru_capacity must be >= 0, got {lru_capacity}"
            )
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.lru_capacity = int(lru_capacity)
        self._lru: "OrderedDict[str, Any]" = OrderedDict()
        self._tmp_serial = 0
        #: Counters exposed through :meth:`stats`.
        self.lru_hits = 0
        self.disk_hits = 0
        self.misses = 0
        self.corrupt = 0
        self.writes = 0
        self.deletes = 0

    # -- paths --------------------------------------------------------------

    def _path(self, key: str) -> Path:
        if len(key) < 3 or not set(key) <= _KEY_CHARS:
            raise StoreError(f"malformed store key {key!r}")
        return self.root / key[:2] / f"{key[2:]}.json"

    # -- write --------------------------------------------------------------

    def put(self, key: str, payload: Any) -> None:
        """Atomically persist ``payload`` under ``key`` (overwrites)."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        body = _canonical_dumps(payload)
        record = {"key": key, "crc": zlib.crc32(body.encode("utf-8")), "payload": payload}
        self._tmp_serial += 1
        tmp = path.parent / f".{path.name}.{os.getpid()}.{self._tmp_serial}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                handle.write(_canonical_dumps(record))
            os.replace(tmp, path)
        finally:
            if tmp.exists():  # write or replace failed midway
                try:
                    tmp.unlink()
                except OSError:  # pragma: no cover - best-effort cleanup
                    pass
        self._remember(key, payload)
        self.writes += 1

    # -- read ---------------------------------------------------------------

    def get(self, key: str) -> Optional[Any]:
        """The payload stored under ``key``, or ``None`` (miss).

        Damaged entries (unparseable, wrong key, CRC mismatch) count as
        misses: the file is quarantined and the caller recomputes.
        """
        cached = self._lru.get(key)
        if cached is not None:
            self._lru.move_to_end(key)
            self.lru_hits += 1
            return cached
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                record = json.load(handle)
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, json.JSONDecodeError):
            self._quarantine(path)
            self.corrupt += 1
            self.misses += 1
            return None
        payload = record.get("payload") if isinstance(record, dict) else None
        if (
            not isinstance(record, dict)
            or record.get("key") != key
            or record.get("crc")
            != zlib.crc32(_canonical_dumps(payload).encode("utf-8"))
        ):
            self._quarantine(path)
            self.corrupt += 1
            self.misses += 1
            return None
        self._remember(key, payload)
        self.disk_hits += 1
        return payload

    def has(self, key: str) -> bool:
        """Whether ``key`` exists (no CRC verification)."""
        return key in self._lru or self._path(key).exists()

    # -- delete --------------------------------------------------------------

    def delete(self, key: str) -> bool:
        """Remove ``key``; True when an entry actually existed."""
        self._lru.pop(key, None)
        path = self._path(key)
        try:
            path.unlink()
        except FileNotFoundError:
            return False
        self.deletes += 1
        return True

    # -- stats --------------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Counter snapshot (hits split by tier, misses, corruption)."""
        return {
            "lru_hits": self.lru_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "corrupt": self.corrupt,
            "writes": self.writes,
            "deletes": self.deletes,
        }

    # -- internals ----------------------------------------------------------

    def _remember(self, key: str, payload: Any) -> None:
        if self.lru_capacity == 0:
            return
        self._lru[key] = payload
        self._lru.move_to_end(key)
        while len(self._lru) > self.lru_capacity:
            self._lru.popitem(last=False)

    @staticmethod
    def _quarantine(path: Path) -> None:
        """Move a damaged entry aside so a rewrite starts clean."""
        try:
            os.replace(path, path.with_suffix(".corrupt"))
        except OSError:  # pragma: no cover - racing delete is fine
            pass
