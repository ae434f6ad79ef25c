"""The checkpointer: the second "background process" of Section 5.

The paper's harness runs a checkpointer that computes the optimal
interval from Eqs. 15 and 10, arms a timer, and checkpoints the whole
application when it fires.  Here the timer decision is made collectively
at workload step boundaries (application-level checkpointing): every
rank contributes "is the interval up?" to a logical-OR allreduce, so
all replicas of all virtual ranks agree on *whether* call ``k``
checkpoints — the coordination itself costs messages, which is part of
the measured overhead, as in the real system.

The checkpoint path:

1. collective decision (LOR allreduce);
2. barrier + channel quiescence (bookmark coordinator);
3. capture: serialise workload state into a per-virtual-rank image.
   The replicas of a sphere hold the same state, so the first of them
   to get here captures the sphere's image (pickled once; its CRC
   waits for a read that needs it) and its siblings reuse it; an image
   is kept for its set only;
4. persist: every replica stages the image, so the storage fault model
   draws once per replica, and pauses for ``fixed_cost`` seconds (the
   paper's measured c = 120 s);
5. barrier + atomic commit of the new recovery line by the lead
   replica of virtual rank 0.

A failure anywhere in 1-4 leaves the previous recovery line intact.

Chaos hardening: when stable storage carries an active fault model,
step 4 retries an injected write failure up to :data:`WRITE_RETRIES`
times with exponential backoff from :data:`RETRY_BACKOFF` (re-stage of
this rank's image).  If a rank exhausts its retries, the whole set is
abandoned — the ranks agree via one extra LOR allreduce, the committer
aborts the staged set, and the interval is *skipped* and counted
(graceful degradation; the next interval checkpoints normally).  With the fault model absent or
disabled no write fails and the extra allreduce is not run, so the
fault-free path pays exactly one stage and one ``fixed_cost`` pause.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from ..errors import StorageWriteError
from ..mpi import ops
from ..obs.trace import NULL_TRACER
from .coordinator import BookmarkCoordinator
from .image import ProcessImage, capture_image
from .storage import StableStorage, image_key

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..mpi.runtime import SimMPI


#: Times a rank re-stages its image after an injected write failure
#: before the set is abandoned (chaos layer only).
WRITE_RETRIES = 2
#: Pause before the first re-stage; it doubles for each later one.
RETRY_BACKOFF = 0.002


class CheckpointService:
    """Per-attempt coordinated-checkpoint driver (shared by all ranks).

    Parameters
    ----------
    interval:
        Seconds between checkpoints (``delta``); the job derives it
        from Daly's Eq. 15 at the system MTBF unless given one.
    fixed_cost:
        Every checkpoint pauses the application exactly this long
        (per-rank, in parallel) while its image is staged — the paper's
        constant measured ``c``.
    bookmark_exchange:
        Run the all-to-all bookmark round before quiescing (costs one
        alltoall; the quiescence check itself is always performed).

    :class:`~repro.orchestration.job.JobConfig` validates ``interval``
    and ``fixed_cost``; the service takes them as given.
    """

    def __init__(
        self,
        runtime: "SimMPI",
        storage: StableStorage,
        interval: float,
        fixed_cost: float,
        bookmark_exchange: bool = False,
        tracer=NULL_TRACER,
    ) -> None:
        self.runtime = runtime
        self.storage = storage
        self.interval = interval
        self.fixed_cost = fixed_cost
        self.bookmark_exchange = bookmark_exchange
        self.tracer = tracer
        self.env = runtime.env
        self._last_checkpoint = self.env.now
        self._participants = 0
        self._union_started = 0.0
        self._union_span = None
        #: Union of the per-rank checkpoint windows: the wallclock the
        #: application actually spent checkpointing.
        self.checkpoint_union_time = 0.0
        #: Intervals abandoned after retry exhaustion (graceful degradation).
        self.checkpoints_skipped = 0
        #: Successful re-stages after an injected write failure.
        self.checkpoint_retries = 0
        #: Injected write failures observed (before retry).
        self.checkpoint_write_failures = 0
        self._coordinator = BookmarkCoordinator(runtime)
        # The images of the set being taken, by virtual rank.
        self._image_set = ""
        self._images: Dict[int, ProcessImage] = {}

    # -- injector interface ---------------------------------------------------

    @property
    def cr_active(self) -> bool:
        """True while any rank is inside the checkpoint path.

        The failure injector consults this when the experiment
        suppresses failures during C/R (the paper's setup, Section 6
        observation 5).
        """
        return self._participants > 0

    # -- application interface ---------------------------------------------------

    def due(self) -> bool:
        """Has the checkpoint interval elapsed (this rank's local view)?"""
        return (self.env.now - self._last_checkpoint) >= self.interval

    def at_step_boundary(self, comm, workload, step: int):
        """Generator: collective decision + checkpoint if due.

        ``comm`` is the rank's (virtual) communicator, ``workload`` the
        live workload whose state would be captured, ``step`` the
        just-finished step index.  Returns True when a checkpoint was
        taken at this boundary.
        """
        verdict = yield from comm.allreduce(int(self.due()), ops.LOR)
        if not verdict:
            return False
        yield from self.take_checkpoint(comm, workload, step)
        return True

    def take_checkpoint(self, comm, workload, step: int):
        """Generator: the full coordinated-checkpoint path (steps 2-5)."""
        started = self.env.now
        if self._participants == 0:
            # First rank in opens the union window (and its span); the
            # last rank out closes it.  This tracks the wallclock the
            # *application* spends checkpointing, not the per-rank sum.
            self._union_started = started
            self._union_span = self.tracer.begin(
                "checkpoint", sim_time=started, step=step + 1
            )
        self._participants += 1
        try:
            yield from comm.barrier()
            if self.bookmark_exchange:
                yield from self._coordinator.exchange_bookmarks(comm)
            yield from self._coordinator.quiesce()

            set_id = f"step{step + 1}"
            image = self._sphere_image(set_id, comm.rank, workload, step)
            rank_failed = yield from self._persist_with_retry(
                set_id, image_key(comm.rank), image
            )

            if self.storage.faults_active:
                # One extra LOR round: every rank must agree the set is
                # complete before anyone commits it.  Only runs under an
                # active fault model, so the fault-free path keeps the
                # seed's exact message count and timing.
                set_failed = bool(
                    (yield from comm.allreduce(int(rank_failed), ops.LOR))
                )
            else:
                set_failed = False

            yield from comm.barrier()
            if self._is_committer(comm):
                if set_failed:
                    # Graceful degradation: abandon the partial set and
                    # skip this interval; the previous recovery line
                    # stays intact and the next interval retries.
                    self.checkpoints_skipped += 1
                    self.tracer.event(
                        "checkpoint_skipped", sim_time=self.env.now, set=set_id
                    )
                    self.storage.abort_set(set_id)
                else:
                    self.storage.commit_set(set_id, step + 1)
            self._last_checkpoint = self.env.now
        finally:
            self._participants -= 1
            if self._participants == 0:
                self.checkpoint_union_time += self.env.now - self._union_started
                if self._union_span is not None:
                    self._union_span.end(sim_time=self.env.now)
                    self._union_span = None

    def _sphere_image(self, set_id: str, virtual_rank: int, workload, step: int):
        """The set's image of a sphere, captured by its first replica here."""
        if set_id != self._image_set:
            self._image_set, self._images = set_id, {}
        image = self._images.get(virtual_rank)
        if image is None:
            image = self._images[virtual_rank] = capture_image(
                {"step": step + 1, "state": workload.state()}
            )
        return image

    def _persist_with_retry(self, set_id: str, key: str, image: ProcessImage):
        """Generator: persist one rank's image, retrying injected failures.

        Stages the blob and pays ``fixed_cost``.  An injected write
        failure re-stages it with exponential backoff; a stage
        under the same (set, key) simply replaces the staged blob, so
        no explicit per-key abort is needed.  Returns ``True`` when the
        rank exhausted its retries — the caller then abandons the whole
        set via the collective verdict + ``abort_set``.
        """
        backoff = RETRY_BACKOFF
        for attempt in range(WRITE_RETRIES + 1):
            persisted = True
            try:
                self.storage.stage_untimed(set_id, key, image)
            except StorageWriteError:
                persisted = False
                self.checkpoint_write_failures += 1
            # The pause is paid either way: the failure surfaces at the
            # end of the write, not before it starts.
            yield self.env.timeout(self.fixed_cost)
            if persisted:
                return False
            self.tracer.event(
                "checkpoint_write_failure",
                sim_time=self.env.now,
                set=set_id,
                key=key,
                attempt=attempt,
            )
            if attempt >= WRITE_RETRIES:
                return True
            self.checkpoint_retries += 1
            self.tracer.event(
                "checkpoint_retry",
                sim_time=self.env.now,
                set=set_id,
                key=key,
                backoff=backoff,
            )
            yield self.env.timeout(backoff)
            backoff *= 2.0
        return True  # pragma: no cover - loop always returns earlier

    def _is_committer(self, comm) -> bool:
        """Exactly one physical process commits: virtual 0's lead replica."""
        if comm.rank != 0:
            return False
        tracker = getattr(comm, "tracker", None)
        if tracker is None:
            return True  # plain Communicator: rank 0 is unique
        return tracker.lead_replica(0) == comm.physical_rank
