"""Stable storage: what checkpoints write to and restart rolls back to.

Storage charges no time of its own: the checkpointer pays the paper's
fixed checkpoint cost ``c`` and the job pays its fixed restart cost
``R``.  What storage provides is the images themselves, so restart
restores real numbers.

Write sets are two-phase: images are *staged* under a set id and become
the newest recovery line only at :meth:`StableStorage.commit_set`.  A
crash between staging and commit leaves the previous committed set
intact.

Two hardening layers on top:

* **Versioned recovery lines** — the last :data:`RECOVERY_LINES`
  committed lines are retained instead of overwritten, and
  :meth:`StableStorage.restore` verifies every image (by CRC, when
  its bytes are not the staged image's own) and falls back line by
  line when the newest images turn out corrupt or unreadable (several
  checkpoints against silent errors, as in Aupy et al.).  The job
  restarts from the older line's step, so the extra rework is charged
  to it.  Only when every retained line is bad does restore raise
  :class:`NoCheckpointError`; the job then cold-starts from step 0.
* **Fault injection** — an optional
  :class:`~repro.faults.storage_faults.StorageFaultModel` decides, per
  write, whether it fails (:class:`StorageWriteError`) or the blob is
  silently damaged at rest (surfaces as :class:`CorruptImageError` on
  verification).  With no model — or a model whose probabilities are
  all zero — every path below behaves exactly as the fault-free
  storage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..errors import (
    CheckpointError,
    CorruptImageError,
    NoCheckpointError,
    StorageWriteError,
)
from ..faults.storage_faults import StorageFaultModel
from ..obs.trace import NULL_TRACER
from ..simkit import Environment
from .image import ProcessImage, checksum, restore_image

#: Committed sets retained as fallback recovery lines.
RECOVERY_LINES = 3


def image_key(virtual_rank: int) -> str:
    """Storage key of a virtual rank's image."""
    return f"v{virtual_rank}"


@dataclass(frozen=True)
class RecoveryLine:
    """Identity of a committed checkpoint to restart from."""

    set_id: str
    #: First step that still has to be (re)executed.
    step: int


@dataclass
class StoredBlob:
    """One durable object: payload bytes and the image they were staged from.

    ``data`` starts as the image's own bytes object; at-rest damage
    replaces it with a new one (bytes are immutable, and
    :meth:`StorageFaultModel.damage
    <repro.faults.storage_faults.StorageFaultModel.damage>` and
    :meth:`StableStorage.corrupt` always build a new object), while the
    image keeps the pristine bytes and so the pristine digest.
    """

    key: str
    data: bytes
    image: ProcessImage

    def verify(self) -> None:
        """Raise :class:`CorruptImageError` if the payload was damaged.

        A payload that *is* its image's bytes object is the image, so
        no CRC is computed; any other payload is checked by CRC.
        """
        data = self.data
        if data is not self.image.data and checksum(data) != self.image.crc:
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
    tracer:
        Receives the commit, skipped-line and fallback events.
    """

    def __init__(
        self,
        env: Environment,
        faults: Optional[StorageFaultModel] = None,
        tracer=NULL_TRACER,
    ) -> None:
        self.env = env
        self.faults = faults
        self.tracer = tracer
        self._staged: Dict[str, Dict[str, StoredBlob]] = {}
        #: Committed lines with their blobs, oldest first; at most
        #: RECOVERY_LINES of them.
        self._lines: List[Tuple[RecoveryLine, Dict[str, StoredBlob]]] = []
        #: Lines trimmed from ``_lines``, oldest first.  A restore still
        #: tries each one whose set id a retained line reuses, and so
        #: reads that retained line's blobs a second time: the seeded
        #: chaos outputs were recorded with these extra tries.
        self._trimmed: List[RecoveryLine] = []
        #: The line of the newest commit, or the older one the last
        #: restore fell back to (``None`` before the first commit).
        self.line: Optional[RecoveryLine] = None
        self.commits = 0
        #: Recovery lines restores skipped (a corrupt or missing image).
        self.lines_skipped = 0
        #: Deepest fallback any restore needed so far (1 = newest line).
        self.max_rollback_depth = 0

    @property
    def faults_active(self) -> bool:
        """True when the chaos layer can actually inject something."""
        return self.faults is not None and self.faults.enabled

    def stage_untimed(self, set_id: str, key: str, image: ProcessImage) -> None:
        """Stage an image's bytes under (set_id, key); the caller pays its cost.

        The blob keeps the image, whose CRC is computed only if a
        verification needs it, so the replicas that stage one image
        share it and no write computes a CRC.  Fault decisions still
        apply: an injected write failure raises
        :class:`StorageWriteError` and stages nothing, and at-rest
        corruption swaps in a damaged copy of the payload while the
        image keeps the pristine bytes — the rot is silent until
        read-back verification.  A second stage under the same
        (set_id, key) replaces the first.
        """
        data = image.data
        if self.faults_active:
            verdict = self.faults.on_write()
            if verdict.fail:
                raise StorageWriteError(
                    f"write of blob {key!r} in set {set_id!r} failed"
                )
            if verdict.corrupt:
                data = self.faults.damage(data)
        blob = StoredBlob(key=key, data=data, image=image)
        self._staged.setdefault(set_id, {})[key] = blob

    # -- set lifecycle ------------------------------------------------------

    def commit_set(self, set_id: str, step: int) -> None:
        """Atomically promote a staged set to the newest recovery line.

        ``step`` is the first step a restart from it re-executes.  Older
        lines are retained (up to :data:`RECOVERY_LINES`) as fallbacks.
        """
        staged = self._staged.pop(set_id, None)
        if not staged:
            raise CheckpointError(f"no staged blobs under set {set_id!r}")
        self.line = RecoveryLine(set_id=set_id, step=step)
        self._lines.append((self.line, staged))
        while len(self._lines) > RECOVERY_LINES:
            self._trimmed.append(self._lines.pop(0)[0])
        self.commits += 1
        self.tracer.event(
            "checkpoint_commit", sim_time=self.env.now, detail=f"step {step}"
        )

    def abort_set(self, set_id: str) -> None:
        """Discard a staged set (failure mid-checkpoint)."""
        self._staged.pop(set_id, None)

    def recovery_lines(self) -> List[RecoveryLine]:
        """Every retained recovery line, newest first."""
        return [line for line, _ in reversed(self._lines)]

    def restore(
        self, virtual_ranks: Iterable[int]
    ) -> Tuple[RecoveryLine, int, Dict[int, Any]]:
        """Restore every rank from the newest usable line.

        A corrupt image (CRC mismatch) or a missing blob condemns the
        whole line — a partial restore would mix steps — and the next
        older line is tried; after the retained lines come the trimmed
        ones whose set id is still held.  Returns the line used, its
        depth (1 = the newest line) and the restored images by rank.

        Raises
        ------
        NoCheckpointError
            When no line was ever committed or every retained line is
            unusable (the job must cold-start from step 0).
        """
        ranks = list(virtual_ranks)
        if not self._lines:
            raise NoCheckpointError("no committed checkpoint set")
        held = {line.set_id for line, _ in self._lines}
        candidates = self.recovery_lines() + [
            line for line in reversed(self._trimmed) if line.set_id in held
        ]
        for depth, line in enumerate(candidates, start=1):
            try:
                states: Dict[int, Any] = {}
                for rank in ranks:
                    blob = self.fetch(line.set_id, image_key(rank))
                    blob.verify()
                    states[rank] = restore_image(blob.data)
            except CorruptImageError:
                skipped = "recovery_line_corrupt"
            except NoCheckpointError:
                skipped = "recovery_line_unreadable"
            else:
                self.line = line
                self.max_rollback_depth = max(self.max_rollback_depth, depth)
                if depth > 1:
                    self.tracer.event(
                        "recovery_fallback_used",
                        sim_time=self.env.now,
                        set=line.set_id,
                        depth=depth,
                    )
                return line, depth, states
            self.lines_skipped += 1
            self.tracer.event(
                skipped, sim_time=self.env.now, set=line.set_id, depth=depth
            )
        raise NoCheckpointError(
            f"all {len(candidates)} recovery line(s) are corrupt "
            "or unreadable"
        )

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
            blobs = self._lines[-1][1] if self._lines else {}
        else:
            for line, blobs in reversed(self._lines):
                if line.set_id == set_id:
                    break
            else:
                raise NoCheckpointError(f"no committed set {set_id!r}")
        blob = blobs.get(key)
        if blob is None:
            raise NoCheckpointError(f"no committed blob {key!r}")
        return blob
