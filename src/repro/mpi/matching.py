"""Per-rank message matching: posted receives and the unexpected queue.

This is the core of MPI semantics.  Each rank owns a
:class:`MatchingEngine`; incoming envelopes either complete a
previously *posted* receive (matched in post order) or join the
*unexpected-message queue* (in arrival order) until a matching receive
is posted.

Matching follows MPI's rules: a posted ``(source, tag)`` pattern
matches an envelope when each field is equal or the pattern field is a
wildcard (:data:`~repro.mpi.status.ANY_SOURCE` /
:data:`~repro.mpi.status.ANY_TAG`).  Non-overtaking holds because the
runtime delivers messages of one (source, destination) pair in send
order: a sender's NIC injects them first in, first out, and every
message of a pair pays the same wire latency.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List, Tuple

from ..errors import MPIError
from ..simkit.events import Event
from .status import ANY_SOURCE, ANY_TAG


class Envelope:
    """One message in flight (or queued): addressing + payload.

    ``cid`` is the communicator context id: messages only ever match
    receives posted on the same communicator, exactly as in MPI.
    ``seq`` is the global send sequence number (diagnostics and
    determinism checks).  Treat an envelope as immutable.
    """

    __slots__ = ("source", "dest", "tag", "payload", "nbytes", "cid", "seq")

    def __init__(
        self,
        source: int,
        dest: int,
        tag: int,
        payload: Any,
        nbytes: int,
        cid: int = 0,
        seq: int = 0,
    ) -> None:
        self.source = source
        self.dest = dest
        self.tag = tag
        self.payload = payload
        self.nbytes = nbytes
        self.cid = cid
        self.seq = seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Envelope(source={self.source}, dest={self.dest}, tag={self.tag}, "
            f"nbytes={self.nbytes}, cid={self.cid}, seq={self.seq})"
        )


#: A posted receive: (source, tag, cid, completion event).
_PostedReceive = Tuple[int, int, int, Event]


def _pattern_matches(source: int, tag: int, cid: int, envelope: Envelope) -> bool:
    if cid != envelope.cid:
        return False
    source_ok = source == ANY_SOURCE or source == envelope.source
    tag_ok = tag == ANY_TAG or tag == envelope.tag
    return source_ok and tag_ok


class MatchingEngine:
    """The receive-side matching state of one rank."""

    def __init__(self, rank: int) -> None:
        self.rank = rank
        self._posted: List[_PostedReceive] = []
        self._unexpected: Deque[Envelope] = deque()
        self._closed = False

    # -- receive side -----------------------------------------------------

    def post(self, env_factory, source: int, tag: int, cid: int = 0) -> Event:
        """Post a receive; returns an event that fires with the Envelope.

        ``env_factory`` is the simulation environment (used to mint the
        completion event).  If an unexpected message already matches,
        the event fires immediately.
        """
        if self._closed:
            raise MPIError(f"rank {self.rank} matching engine is closed")
        event = Event(env_factory)
        for index, envelope in enumerate(self._unexpected):
            if _pattern_matches(source, tag, cid, envelope):
                del self._unexpected[index]
                event.succeed(envelope)
                return event
        self._posted.append((source, tag, cid, event))
        return event

    def cancel(self, event: Event) -> bool:
        """Withdraw a posted receive identified by its event.

        Returns True if it was still pending (and is now cancelled).
        """
        for index, posted in enumerate(self._posted):
            if posted[3] is event:
                del self._posted[index]
                return True
        return False

    # -- delivery side -----------------------------------------------------

    def deliver(self, envelope: Envelope) -> None:
        """Hand an arriving envelope to matching (or queue it).

        A matched receive completes inline: its callbacks run now.
        """
        if self._closed:
            return  # rank died; fail-stop networks drop its traffic
        for index, (source, tag, cid, event) in enumerate(self._posted):
            if _pattern_matches(source, tag, cid, envelope):
                del self._posted[index]
                event.succeed_inline(envelope)
                return
        self._unexpected.append(envelope)

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Shut down on rank death: drop queues, never complete receives."""
        self._closed = True
        self._posted.clear()
        self._unexpected.clear()

    @property
    def closed(self) -> bool:
        """True once the owning rank has died."""
        return self._closed

    @property
    def pending_receives(self) -> int:
        """Number of posted-but-unmatched receives."""
        return len(self._posted)

    @property
    def unexpected_messages(self) -> int:
        """Number of queued unexpected messages."""
        return len(self._unexpected)
