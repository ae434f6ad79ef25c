"""The recovery line: what restart rolls back to.

Tracks the *committed* checkpoint sets and rebuilds the per-virtual-rank
workload states from stable storage.  The job pays the paper's fixed
restart cost ``R`` (measured ≈ 500 s; the model takes it as a
parameter) and then restores through :meth:`restore_states`, the one
read path: it verifies every image's CRC and falls back line by line
to older retained sets when the newer ones are corrupt or unreadable,
charging the extra rework to the job (it restarts from an older step).
Only when every retained line is bad does it raise
:class:`NoCheckpointError` — the caller then cold-starts from step 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import CorruptImageError, NoCheckpointError
from ..obs.trace import NULL_TRACER
from .image import restore_image
from .storage import StableStorage


@dataclass(frozen=True)
class RecoveryLine:
    """Identity of a committed checkpoint to restart from."""

    set_id: str
    #: First step that still has to be (re)executed.
    step: int


class RestartManager:
    """Bookkeeping around the committed checkpoint lines."""

    def __init__(self, storage: StableStorage, tracer=NULL_TRACER) -> None:
        self.storage = storage
        self.tracer = tracer
        self._line: Optional[RecoveryLine] = None
        self.commits = 0
        self.rollbacks = 0
        #: Every recovery line ever committed, in order (the retained
        #: ones are the restore candidates).
        self.history: list = []
        #: Recovery lines skipped because an image failed its CRC.
        self.corrupt_lines_skipped = 0
        #: Recovery lines skipped because storage lacked one of their blobs.
        self.unreadable_lines_skipped = 0
        #: Depth of the line used by the most recent restore (1 = newest).
        self.last_rollback_depth = 0
        #: Deepest fallback any restore needed so far.
        self.max_rollback_depth = 0

    # -- commit side --------------------------------------------------------

    def note_commit(self, set_id: str, step: int, now: float) -> None:
        """Record that ``set_id`` (state after ``step-1``) is committed."""
        self.storage.commit_set(set_id)
        self._line = RecoveryLine(set_id=set_id, step=step)
        self.history.append(self._line)
        self.commits += 1
        self.tracer.event("checkpoint_commit", sim_time=now, detail=f"step {step}")

    # -- restart side ---------------------------------------------------------

    @property
    def has_checkpoint(self) -> bool:
        """True once at least one set has been committed."""
        return self._line is not None

    @property
    def line(self) -> RecoveryLine:
        """The current recovery line.

        After a fallback restore this is the (older) line actually
        used, so rework accounting sees the true rollback target.

        Raises
        ------
        NoCheckpointError
            Before the first commit (restart means re-running from
            scratch in that case; callers decide).
        """
        if self._line is None:
            raise NoCheckpointError("no committed checkpoint set")
        return self._line

    def note_rollback(self) -> None:
        """Count a rollback (diagnostics for the job report)."""
        self.rollbacks += 1

    @staticmethod
    def key_for(virtual_rank: int) -> str:
        """Storage key of a virtual rank's image."""
        return f"v{virtual_rank}"

    # -- restore ------------------------------------------------------------

    def retained_lines(self) -> List[RecoveryLine]:
        """Committed lines whose sets storage still retains, newest first."""
        retained = set(self.storage.committed_sets())
        return [line for line in reversed(self.history) if line.set_id in retained]

    def restore_states(
        self, virtual_ranks: Sequence[int]
    ) -> Tuple[RecoveryLine, Dict[int, Any]]:
        """Restore every rank, falling back across retained lines.

        Tries the newest retained line first; a corrupt image
        (CRC mismatch) or a missing blob condemns the whole line — a
        partial restore would mix steps — and the next older line is
        tried.  Returns the line actually used plus the
        restored images.

        Raises
        ------
        NoCheckpointError
            When no line was ever committed or every retained line is
            unusable (the job must cold-start from step 0).
        """
        ranks = list(virtual_ranks)
        candidates = self.retained_lines()
        if not candidates:
            raise NoCheckpointError("no committed checkpoint set")
        for depth, line in enumerate(candidates, start=1):
            try:
                states: Dict[int, Any] = {}
                for rank in ranks:
                    blob = self.storage.fetch(line.set_id, self.key_for(rank))
                    blob.verify()
                    states[rank] = restore_image(blob.data)
            except CorruptImageError:
                self.corrupt_lines_skipped += 1
                self.tracer.event(
                    "recovery_line_corrupt",
                    sim_time=self.storage.env.now,
                    set=line.set_id,
                    depth=depth,
                )
                continue
            except NoCheckpointError:
                self.unreadable_lines_skipped += 1
                self.tracer.event(
                    "recovery_line_unreadable",
                    sim_time=self.storage.env.now,
                    set=line.set_id,
                    depth=depth,
                )
                continue
            self.last_rollback_depth = depth
            self.max_rollback_depth = max(self.max_rollback_depth, depth)
            self._line = line
            if depth > 1:
                self.tracer.event(
                    "recovery_fallback_used",
                    sim_time=self.storage.env.now,
                    set=line.set_id,
                    depth=depth,
                )
            return line, states
        raise NoCheckpointError(
            f"all {len(candidates)} retained recovery line(s) are corrupt "
            "or unreadable"
        )
