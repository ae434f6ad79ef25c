"""Request handles for non-blocking operations (mirrors MPI_Request).

A request wraps the kernel event that completes the operation plus the
logic to turn the event's raw value into what the caller expects (the
payload and a :class:`~repro.mpi.status.Status` for receives, ``None``
for sends).  Blocking calls are ``yield from request.wait()``.
"""

from __future__ import annotations

from typing import Any, List

from ..errors import RequestError
from ..simkit.events import AllOf, Event
from .datatypes import ENVELOPE_OVERHEAD
from .matching import Envelope
from .status import Status

#: Request kinds (for diagnostics).
SEND = "send"
RECV = "recv"


class Request:
    """Handle to an in-flight non-blocking operation."""

    __slots__ = ("kind", "_event", "_consumed")

    def __init__(self, kind: str, event: Event) -> None:
        if kind not in (SEND, RECV):
            raise RequestError(f"unknown request kind {kind!r}")
        self.kind = kind
        self._event = event
        self._consumed = False

    @property
    def event(self) -> Event:
        """The underlying kernel event (advanced use / request sets)."""
        return self._event

    def _finalize(self, raw: Any) -> Any:
        if self._consumed:
            raise RequestError("request waited on twice")
        self._consumed = True
        if self.kind != RECV:
            return None
        envelope: Envelope = raw
        # The envelope carries the wire size; a Status reports the payload.
        nbytes = envelope.nbytes - ENVELOPE_OVERHEAD
        return envelope.payload, Status(envelope.source, envelope.tag, nbytes)

    def wait(self):
        """Generator: block the calling process until completion.

        Receives return ``(payload, Status)``; sends return ``None``.
        """
        raw = yield self._event
        return self._finalize(raw)


def waitall(env, requests: List[Request]):
    """Generator: wait for every request; returns their values in order.

    This is the primitive the redundancy layer's *request sets* build
    on — one application-level ``MPI_Wait`` maps to ``waitall`` over
    the per-replica requests (Section 3 of the paper).
    """
    if not requests:
        return []
    raw_values = yield AllOf(env, [request.event for request in requests])
    return [request._finalize(raw) for request, raw in zip(requests, raw_values)]

