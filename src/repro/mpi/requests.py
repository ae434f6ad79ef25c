"""Request handles for non-blocking operations (mirrors MPI_Request).

A request *is* the kernel event that completes the operation, plus the
logic to turn the event's raw value into what the caller expects (the
payload and a :class:`~repro.mpi.status.Status` for receives, ``None``
for sends).  A process waits on it by yielding it; ``yield from
request.wait()`` does that and finalizes in one call.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List

from ..errors import RequestError
from ..simkit.events import AllOf, Event
from .datatypes import ENVELOPE_OVERHEAD
from .matching import Envelope
from .status import Status

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simkit.env import Environment

#: Request kinds (for diagnostics).
SEND = "send"
RECV = "recv"


class Request(Event):
    """Handle to an in-flight non-blocking operation: its own event.

    The runtime completes it by calling its ``succeed_inline``: a send
    with ``None`` when the message leaves the NIC, a receive with the
    matched :class:`~repro.mpi.matching.Envelope`.
    """

    __slots__ = ("kind", "_consumed")

    def __init__(self, env: "Environment", kind: str) -> None:
        if kind not in (SEND, RECV):
            raise RequestError(f"unknown request kind {kind!r}")
        super().__init__(env)
        self.kind = kind
        self._consumed = False

    def _finalize(self, raw: Any) -> Any:
        if self._consumed:
            raise RequestError("request waited on twice")
        self._consumed = True
        if self.kind != RECV:
            return None
        envelope: Envelope = raw
        # The envelope carries the wire size; a Status reports the payload.
        # Built as the runtime builds an ``Envelope``: one allocation.
        nbytes = envelope.nbytes - ENVELOPE_OVERHEAD
        return envelope.payload, tuple.__new__(
            Status, (envelope.source, envelope.tag, nbytes)
        )

    def wait(self):
        """Generator: block the calling process until completion.

        Receives return ``(payload, Status)``; sends return ``None``.
        """
        raw = yield self
        return self._finalize(raw)


def waitall(env, requests: List[Request]):
    """Generator: wait for every request; returns their values in order.

    Requests of either layer qualify: a plain :class:`Request` or a
    redundancy request set, each an event with a ``_finalize``.
    """
    if not requests:
        return []
    raw_values = yield AllOf(env, requests)
    return [request._finalize(raw) for request, raw in zip(requests, raw_values)]
