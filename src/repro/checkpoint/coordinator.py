"""Channel quiescence: the OpenMPI-style bookmark protocol.

Before per-process images are captured, the state of every
communication channel must be consistent — no message may be "in the
wire", or the restored run would either duplicate or lose it.  OpenMPI
(the paper's substrate) does this with an all-to-all *bookmark
exchange*: processes trade per-peer send/receive totals and wait until
they equalise.

In the simulator the runtime already counts the messages between live
ranks that have not arrived yet, so the coordinator's job is (a) the
bookmark exchange itself — an all-to-all of small messages whose cost
is charged to the run — and (b) polling until that count is zero.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..mpi.runtime import SimMPI

#: Simulated seconds between quiescence checks while channels drain.
POLL_INTERVAL = 1e-4


class BookmarkCoordinator:
    """Quiesce the runtime's channels before a checkpoint."""

    def __init__(self, runtime: "SimMPI") -> None:
        self.runtime = runtime

    def exchange_bookmarks(self, comm):
        """Generator: one all-to-all round of bookmark tokens.

        Models the *cost* of OpenMPI's PML-level totals exchange: one
        small fixed-size record (8 bytes per peer) to every peer.  The
        payload is an opaque token rather than the live counters — the
        simulator's ground-truth counters answer the actual quiescence
        question in :meth:`quiesce`, and live counters would differ
        between replicas of one virtual rank (they snapshot at
        different instants), which must not trip replica voting.
        """
        token = bytes(8 * comm.size)
        totals = yield from comm.alltoall([token] * comm.size)
        return totals

    def quiesce(self):
        """Generator: wait until every sent message has been delivered."""
        while not self.runtime.channels_quiet():
            yield self.runtime.env.timeout(POLL_INTERVAL)
