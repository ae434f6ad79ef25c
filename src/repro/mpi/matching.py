"""Per-rank message matching: posted receives and the unexpected queue.

This is the core of MPI semantics.  Each rank owns a
:class:`MatchingEngine`; incoming envelopes either complete a
previously *posted* receive (matched in post order) or join the
*unexpected-message queue* (in arrival order) until a matching receive
is posted.

A posted receive completes by calling its ``done`` with the matched
:class:`Envelope`: a plain request's ``succeed_inline``, or a request
set's countdown, so a replica member builds no event of its own.  The
envelope itself is what the receiver keeps: a request set collects the
envelopes its members matched and votes over them.

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
from typing import Any, Callable, Deque, List, NamedTuple, Tuple

from ..errors import MPIError
from .status import ANY_SOURCE, ANY_TAG


class Envelope(NamedTuple):
    """One message in flight (or queued): addressing + payload.

    A tuple, so the runtime builds one per copy with a single
    allocation (``tuple.__new__``).  ``nbytes`` is the wire size
    (payload plus :data:`~repro.mpi.datatypes.ENVELOPE_OVERHEAD`).
    """

    source: int
    dest: int
    tag: int
    payload: Any
    nbytes: int


#: A receive's completion: called once with the matched envelope.
Completion = Callable[[Envelope], None]

#: A posted receive: (source, tag, completion).
_PostedReceive = Tuple[int, int, Completion]


def _pattern_matches(source: int, tag: int, envelope: Envelope) -> bool:
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

    def post(self, env, source: int, tag: int, done: Completion) -> None:
        """Post a receive; ``done(envelope)`` runs when it matches.

        If an unexpected message already matches, ``done`` is queued on
        ``env`` for the current instant: one heap step, behind entries
        already queued for it.  A later arrival calls ``done`` inline.
        """
        if self._closed:
            raise MPIError(f"rank {self.rank} matching engine is closed")
        for index, envelope in enumerate(self._unexpected):
            if _pattern_matches(source, tag, envelope):
                del self._unexpected[index]
                env._schedule_call_at(env.now, done, envelope)
                return
        self._posted.append((source, tag, done))

    def cancel(self, source: int, done: Completion) -> bool:
        """Withdraw the posted receive from ``source`` completing via ``done``.

        Returns True if it was still pending (and is now cancelled).
        """
        for index, posted in enumerate(self._posted):
            if posted[0] == source and posted[2] == done:
                del self._posted[index]
                return True
        return False

    # -- delivery side -----------------------------------------------------

    def deliver(self, envelope: Envelope) -> None:
        """Hand an arriving envelope to matching (or queue it).

        A matched receive completes inline: its ``done`` runs now.
        """
        if self._closed:
            return  # rank died; fail-stop networks drop its traffic
        # ``_pattern_matches`` inline: this runs once per arriving message.
        sender = envelope.source
        sent_tag = envelope.tag
        for index, (source, tag, done) in enumerate(self._posted):
            if (source == sender or source == ANY_SOURCE) and (
                tag == sent_tag or tag == ANY_TAG
            ):
                del self._posted[index]
                done(envelope)
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
