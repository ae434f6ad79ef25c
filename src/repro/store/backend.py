"""On-disk key/value backend: CRC-framed blob files plus an LRU.

Layout: ``root/<key[:2]>/<key[2:]>.json`` — two-hex-char shard
directories keep any one directory small under large campaigns.  A blob
is one header line, ``<crc32 hex> <key>``, followed by the payload's
canonical JSON body.

Durability/integrity contract:

* **atomic writes** — blobs are written to a same-directory temp file
  and ``os.replace``d into place, so readers (including other
  processes) never observe a half-written entry and a crash never
  leaves a corrupt *final* file, only an orphan temp;
* **CRC-verified reads** — the header's key and CRC32 are checked
  against the raw body bytes before the body is parsed; a mismatch
  (at-rest bit rot, truncation, manual tampering) is treated as a
  **miss**, counted, and the damaged file is quarantined to
  ``*.corrupt`` so a re-run simply recomputes and rewrites the entry;
* **in-process LRU** — a bounded ``OrderedDict`` of
  :data:`LRU_CAPACITY` entries fronts the disk so a hot key (the
  serving layer's memoized recommendations) costs no I/O after first
  touch.  Cached payloads are shared objects; callers must treat them
  as read-only (the codec builds fresh objects on decode, so normal
  store usage never mutates them).
"""

from __future__ import annotations

import json
import os
import zlib
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, Optional

from ..errors import StoreError

__all__ = ["LRU_CAPACITY", "DiskBackend"]

#: Payloads the in-process LRU keeps resident.
LRU_CAPACITY = 256

_KEY_CHARS = set("0123456789abcdef")


def _header(body: bytes, key: str) -> bytes:
    return f"{zlib.crc32(body):08x} {key}".encode("ascii")


class DiskBackend:
    """Sharded, CRC-verified, LRU-fronted on-disk payload store."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
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
        # allow_nan=False: payloads are codec output, where non-finite
        # floats are tagged; a raw nan/inf here is a bug upstream.
        body = json.dumps(
            payload, sort_keys=True, separators=(",", ":"), ensure_ascii=True,
            allow_nan=False,
        ).encode("ascii")
        path.parent.mkdir(parents=True, exist_ok=True)
        self._tmp_serial += 1
        tmp = path.parent / f".{path.name}.{os.getpid()}.{self._tmp_serial}.tmp"
        try:
            with open(tmp, "wb") as handle:
                handle.write(_header(body, key) + b"\n" + body)
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

        Damaged entries (wrong key, CRC mismatch, unparseable body)
        count as misses: the file is quarantined and the caller
        recomputes.
        """
        cached = self._lru.get(key)
        if cached is not None:
            self._lru.move_to_end(key)
            self.lru_hits += 1
            return cached
        path = self._path(key)
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            self.misses += 1
            return None
        except OSError:
            return self._damaged(path)
        header, _, body = raw.partition(b"\n")
        if header != _header(body, key):
            return self._damaged(path)
        try:
            payload = json.loads(body)
        except ValueError:
            return self._damaged(path)
        self._remember(key, payload)
        self.disk_hits += 1
        return payload

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
        self._lru[key] = payload
        self._lru.move_to_end(key)
        if len(self._lru) > LRU_CAPACITY:
            self._lru.popitem(last=False)

    def _damaged(self, path: Path) -> None:
        """Quarantine a damaged entry so a rewrite starts clean; a miss."""
        try:
            os.replace(path, path.with_suffix(".corrupt"))
        except OSError:  # pragma: no cover - racing delete is fine
            pass
        self.corrupt += 1
        self.misses += 1
        return None
