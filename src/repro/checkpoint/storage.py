"""Stable storage: the durability abstraction checkpoints write to.

Storage charges no time of its own: the checkpointer pays the paper's
fixed checkpoint cost ``c`` and the job pays its fixed restart cost
``R``.  What storage provides is the images themselves, so restart
restores real numbers.

Write sets are two-phase: images are *staged* under a set id and become
the newest recovery line only at :meth:`commit_set`.  A crash between
staging and commit leaves the previous committed set intact.

Two hardening layers on top:

* **Versioned recovery lines** — the last :data:`RECOVERY_LINES`
  committed sets are retained (newest last) instead of overwritten, so
  restart can fall back line by line when the newest images turn out
  corrupt.
* **Fault injection** — an optional
  :class:`~repro.faults.storage_faults.StorageFaultModel` decides, per
  write, whether it fails (:class:`StorageWriteError`) or the blob is
  silently damaged at rest (surfaces as :class:`CorruptImageError` on
  verification).  With no model — or a model whose probabilities are
  all zero — every path below behaves exactly as the fault-free
  storage.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import (
    CheckpointError,
    CorruptImageError,
    NoCheckpointError,
    StorageWriteError,
)
from ..faults.storage_faults import StorageFaultModel
from ..simkit import Environment

#: Committed sets retained as fallback recovery lines.
RECOVERY_LINES = 3


@dataclass
class StoredBlob:
    """One durable object: payload bytes plus an integrity digest."""

    key: str
    data: bytes
    crc: int

    def verify(self) -> None:
        """Raise :class:`CorruptImageError` if the payload was damaged."""
        if zlib.crc32(self.data) != self.crc:
            raise CorruptImageError(f"blob {self.key!r} failed its integrity check")


class StableStorage:
    """Versioned blob store with optional fault injection.

    Parameters
    ----------
    env:
        Simulation environment (trace events read its clock).
    faults:
        Optional storage fault model (chaos layer).  ``None`` — or a
        model with all probabilities zero — makes every operation
        behave exactly as the fault-free storage.
    """

    def __init__(
        self, env: Environment, faults: Optional[StorageFaultModel] = None
    ) -> None:
        self.env = env
        self.faults = faults
        self._staged: Dict[str, Dict[str, StoredBlob]] = {}
        #: Committed sets, oldest first; at most RECOVERY_LINES of them.
        self._history: List[Tuple[str, Dict[str, StoredBlob]]] = []

    @property
    def faults_active(self) -> bool:
        """True when the chaos layer can actually inject something."""
        return self.faults is not None and self.faults.enabled

    def stage_untimed(self, set_id: str, key: str, data: bytes) -> None:
        """Stage a blob under (set_id, key); the caller pays its cost.

        Fault decisions still apply: an injected write failure raises
        :class:`StorageWriteError` and stages nothing, and at-rest
        corruption damages the payload while the recorded CRC keeps the
        pristine value — the rot is silent until read-back verification.
        A second stage under the same (set_id, key) replaces the first.
        """
        crc = zlib.crc32(data)
        if self.faults_active:
            verdict = self.faults.on_write()
            if verdict.fail:
                raise StorageWriteError(
                    f"write of blob {key!r} in set {set_id!r} failed"
                )
            if verdict.corrupt:
                data = self.faults.damage(data)
        blob = StoredBlob(key=key, data=data, crc=crc)
        self._staged.setdefault(set_id, {})[key] = blob

    # -- set lifecycle ------------------------------------------------------

    def commit_set(self, set_id: str) -> None:
        """Atomically promote a staged set to the newest recovery line.

        Older committed sets are retained (up to
        :data:`RECOVERY_LINES`) as fallback lines for restart.
        """
        staged = self._staged.pop(set_id, None)
        if not staged:
            raise CheckpointError(f"no staged blobs under set {set_id!r}")
        self._history.append((set_id, staged))
        while len(self._history) > RECOVERY_LINES:
            self._history.pop(0)

    def abort_set(self, set_id: str) -> None:
        """Discard a staged set (failure mid-checkpoint)."""
        self._staged.pop(set_id, None)

    def committed_sets(self) -> List[str]:
        """Ids of every retained recovery line, newest first."""
        return [set_id for set_id, _ in reversed(self._history)]

    # -- access -------------------------------------------------------------

    def fetch(self, set_id: Optional[str], key: str) -> StoredBlob:
        """A committed blob (default: the newest set).

        The read's time is part of the fixed restart cost paid
        elsewhere.  Callers verify the returned blob's integrity
        themselves: at-rest corruption surfaces there, not here.
        """
        blob = self._committed_blob(set_id, key)
        if self.faults is not None:
            self.faults.on_read()
        return blob

    def corrupt(self, key: str, set_id: Optional[str] = None) -> None:
        """Flip a byte of a committed blob — failure-injection test hook."""
        blob = self._committed_blob(set_id, key)
        if not blob.data:
            raise CheckpointError(f"blob {key!r} is empty; nothing to corrupt")
        damaged = bytearray(blob.data)
        damaged[0] ^= 0xFF
        blob.data = bytes(damaged)

    def _committed_blob(self, set_id: Optional[str], key: str) -> StoredBlob:
        """A committed blob of a retained set (default: the newest)."""
        if set_id is None:
            blobs = self._history[-1][1] if self._history else {}
        else:
            for candidate, blobs in reversed(self._history):
                if candidate == set_id:
                    break
            else:
                raise NoCheckpointError(f"no committed set {set_id!r}")
        blob = blobs.get(key)
        if blob is None:
            raise NoCheckpointError(f"no committed blob {key!r}")
        return blob
