"""Request sets: the application-level handles over replica requests.

Section 3 of the paper: an interposed receive posts one member receive
per live replica of the source sphere, and the application's wait
completes only when every member has completed.  A member whose sender
replica dies first is withdrawn by the attempt's one death watcher
(:class:`~repro.redundancy.sphere.SphereTracker`), which picks the
members out of the runtime's posted receives with :func:`is_member`.

A set is its own kernel event, so a process waits on it by yielding
it.  A :class:`SendSet` carries nothing but that event: the runtime
completes it when the last copy leaves the NIC.  A :class:`RecvSet`
counts its members down and completes itself, in place, when the last
one matches: one call per copy, with no ``succeed_inline`` behind it.
Both set the ``Event`` fields in their own ``__init__``, one call per
set.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List

from ..errors import RedundancyError
from ..mpi.datatypes import ENVELOPE_OVERHEAD
from ..mpi.matching import Completion, Envelope
from ..mpi.status import Status
from ..simkit.events import PENDING, PROCESSED, Event
from .voting import vote

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..mpi.runtime import SimMPI
    from ..simkit.env import Environment


class _RequestSet(Event):
    """What both kinds of set share: ``wait``, and the flag that refuses a second."""

    __slots__ = ("_consumed",)

    def wait(self):
        """Generator: block until the set completes; returns the value."""
        raw = yield self
        return self._finalize(raw)


class SendSet(_RequestSet):
    """A send request set: done when its last copy leaves the NIC.

    The runtime calls its ``succeed_inline`` then.  A send has no value,
    so the set keeps nothing but its event state.
    """

    __slots__ = ()

    kind = "send"

    def __init__(self, env: "Environment") -> None:
        # ``Event.__init__`` inline: one call less per set.
        self.env = env
        self.callbacks = []
        self._state = PENDING
        self._ok = True
        self._value = None
        self._consumed = False

    def _finalize(self, raw: Any) -> None:
        if self._consumed:
            raise RedundancyError("request set waited on twice")
        self._consumed = True


class RecvSet(_RequestSet):
    """A receive request set: a countdown over its replica members.

    The runtime completes a member by calling the set's
    ``_recv_done(envelope)`` (bound once per set; no member builds an
    event); a member whose sender replica dies is withdrawn from the
    count (:meth:`member_withdrawn`).  The set keeps the envelopes its
    members matched; its completion triggers the vote over them and
    yields ``(payload, Status)`` with the *virtual* source rank.  It
    holds the runtime, not its ``RedComm``: no cycle keeps a finished
    world alive.
    """

    __slots__ = ("runtime", "virtual_peer", "tag", "_remaining", "_envelopes")

    kind = "recv"

    def __init__(self, runtime: "SimMPI", virtual_peer: int, tag: int) -> None:
        # ``Event.__init__`` inline: one call less per set.
        self.env = runtime.env
        self.callbacks = []
        self._state = PENDING
        self._ok = True
        self._value = None
        self._consumed = False
        self.runtime = runtime
        self.virtual_peer = virtual_peer
        self.tag = tag
        self._remaining = 0
        self._envelopes: List[Envelope] = []

    # -- progress ----------------------------------------------------------

    def _recv_done(self, envelope: Envelope) -> None:
        # The matched envelope is the copy: it names the sender replica,
        # and a digest copy travels under the shifted tag.
        envelopes = self._envelopes
        envelopes.append(envelope)
        self._remaining -= 1
        if not self._remaining:
            # ``succeed_inline`` inline: this runs once per message.  The
            # count reaches 0 once, so the set is still pending here.
            self._value = envelopes
            self._state = PROCESSED
            callbacks, self.callbacks = self.callbacks, []
            for callback in callbacks:
                callback(self)

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

    def _finalize(self, raw: Any) -> Any:
        if self._consumed:
            raise RedundancyError("request set waited on twice")
        self._consumed = True
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


_RECV_DONE = RecvSet._recv_done
