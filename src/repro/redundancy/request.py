"""The request set: the application-level handle over replica requests.

Section 3 of the paper: an interposed receive posts one member receive
per live replica of the source sphere, and the application's wait
completes only when every member has completed.  A member whose sender
replica dies first is withdrawn by the attempt's one death watcher
(:class:`~repro.redundancy.sphere.SphereTracker`), which picks the
members out of the runtime's posted receives with :func:`is_member`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List

from ..errors import RedundancyError
from ..mpi.datatypes import ENVELOPE_OVERHEAD
from ..mpi.matching import Completion, Envelope
from ..mpi.status import Status
from ..simkit.events import PENDING, Event
from .voting import vote

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..mpi.runtime import SimMPI


class RedRequest(Event):
    """A request *set*: the application-level handle over replica requests.

    The set is its own kernel event: a process waits on it by yielding
    it.  A send set completes when its last copy leaves the NIC: the
    runtime calls its ``succeed_inline`` then.  A receive set is a
    countdown over its members, which the runtime completes by calling
    ``_recv_done(envelope)`` (bound once per set; no member builds an
    event); a member whose sender replica dies is withdrawn from the
    count (:meth:`member_withdrawn`).  The set keeps the envelopes its
    members matched; its completion triggers the vote over them and
    yields ``(payload, Status)`` with the *virtual* source rank.  It
    holds the runtime, not its ``RedComm``: no cycle keeps a finished
    world alive.
    """

    __slots__ = (
        "runtime", "physical_rank", "kind", "virtual_peer", "tag",
        "_remaining", "_envelopes", "_consumed",
    )

    def __init__(
        self, runtime: "SimMPI", physical_rank: int, kind: str, virtual_peer: int, tag: int
    ) -> None:
        # ``Event.__init__`` inline: one call less per request set.
        self.env = runtime.env
        self.callbacks = []
        self._state = PENDING
        self._ok = True
        self._value = None
        self.runtime = runtime
        self.physical_rank = physical_rank
        self.kind = kind
        self.virtual_peer = virtual_peer
        self.tag = tag
        self._remaining = 0
        self._envelopes: List[Envelope] = []
        self._consumed = False

    # -- progress ----------------------------------------------------------

    def _recv_done(self, envelope: Envelope) -> None:
        # The matched envelope is the copy: it names the sender replica,
        # and a digest copy travels under the shifted tag.
        self._envelopes.append(envelope)
        self._remaining -= 1
        if not self._remaining:
            self.succeed_inline(self._envelopes)

    def member_withdrawn(self) -> None:
        """A member's sender replica died: its posted receive was withdrawn.

        A receive that already matched still completes: its message was
        delivered.  A set left with no member and no copy stays pending:
        every source replica died before sending, so the sphere tracker
        has declared (or will declare) the job failed.
        """
        self._remaining -= 1
        if not self._remaining and self._envelopes:
            self.succeed_inline(self._envelopes)

    # -- application API -----------------------------------------------------

    def wait(self):
        """Generator: block until the set completes; returns the value."""
        raw = yield self
        return self._finalize(raw)

    def _finalize(self, raw: Any) -> Any:
        if self._consumed:
            raise RedundancyError("request set waited on twice")
        self._consumed = True
        if self.kind == "send":
            return None
        tag = self.tag
        winner = vote(raw, tag, self.runtime.counters)
        # The winner's wire size is its payload's size plus the envelope;
        # the ``Status`` is built as the runtime builds an ``Envelope``.
        return winner.payload, tuple.__new__(
            Status, (self.virtual_peer, tag, winner.nbytes - ENVELOPE_OVERHEAD)
        )


def is_member(done: Completion) -> bool:
    """Is a posted receive's completion a receive set's member?

    Every member of a set is posted with the set's bound ``_recv_done``;
    a plain receive (a :class:`~repro.mpi.Request`'s ``succeed_inline``)
    is not a member.
    """
    return getattr(done, "__func__", None) is _RECV_DONE


_RECV_DONE = RedRequest._recv_done
