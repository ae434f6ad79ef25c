"""The communicator: the per-rank handle for all communication.

Each simulated rank holds its own :class:`Communicator` object (as in
real MPI, where the handle is process-local).  The world is the only
communicator, so its ranks are world ranks.

Blocking operations are generators — call them with ``yield from``:

    yield from comm.send(payload, dest=3, tag=0)
    payload, status = yield from comm.recv(source=ANY_SOURCE, tag=0)

Non-blocking operations return :class:`~repro.mpi.requests.Request`
handles, each its own kernel event; complete them with ``yield from
request.wait()`` or ``yield from comm.waitall(requests)``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List

from ..errors import CommunicatorError
from . import collectives
from .datatypes import message_wire_size
from .requests import RECV, SEND, Request, waitall as _waitall
from .status import ANY_SOURCE, ANY_TAG

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .runtime import SimMPI

#: User tags must stay below this; collectives use the space above it.
USER_TAG_LIMIT = 1 << 20
_COLLECTIVE_TAG_BASE = USER_TAG_LIMIT


class CollectiveAPI:
    """Mixin providing collectives + request completion over p2p calls.

    Any class exposing ``rank``, ``size``, ``env``, ``isend``, ``irecv``
    (whose requests are events with a ``_finalize``), ``send`` and a
    ``_coll_seq`` counter gets the full collective API.  Used by both
    the plain :class:`Communicator` and the redundancy layer's
    ``RedComm`` — which is exactly how the paper justifies Eq. 1:
    collectives decompose to (interposed) point-to-point messages.
    """

    _coll_seq: int

    def _next_collective_tag(self) -> int:
        """Tag for the next collective call on this communicator.

        Relies on the MPI/SPMD rule that all ranks of a communicator
        invoke collectives in the same order.
        """
        tag = _COLLECTIVE_TAG_BASE + self._coll_seq
        self._coll_seq += 1
        return tag

    def waitall(self, requests: List[Request]):
        """Generator: complete all requests; returns values in order."""
        result = yield from _waitall(self.env, requests)
        return result

    # The collectives take the communicator as their first argument,
    # so the functions themselves are the methods.
    barrier = collectives.barrier
    bcast = collectives.bcast
    reduce = collectives.reduce
    allreduce = collectives.allreduce
    gather = collectives.gather
    allgather = collectives.allgather
    alltoall = collectives.alltoall


class Communicator(CollectiveAPI):
    """The world communication handle for one rank."""

    def __init__(self, runtime: "SimMPI", rank: int) -> None:
        self._runtime = runtime
        self.rank = rank
        self.size = runtime.size
        self._coll_seq = 0

    @property
    def env(self):
        """The simulation environment (for ``waitall`` etc.)."""
        return self._runtime.env

    # -- point to point ----------------------------------------------------

    def _check_peer(self, peer: int) -> None:
        if not 0 <= peer < self.size:
            raise CommunicatorError(
                f"rank {peer} outside communicator of size {self.size}"
            )

    @staticmethod
    def _check_user_tag(tag: int) -> None:
        # Internal tags come from ``_next_collective_tag`` and are not
        # checked.
        if tag < 0:
            raise CommunicatorError(f"tag must be >= 0, got {tag}")
        if tag >= USER_TAG_LIMIT:
            raise CommunicatorError(
                f"user tags must be < {USER_TAG_LIMIT}, got {tag}"
            )

    def isend(self, payload: Any, dest: int, tag: int = 0, _internal: bool = False) -> Request:
        """Non-blocking send; returns a request completing at injection."""
        if not _internal:
            self._check_user_tag(tag)
        self._check_peer(dest)
        runtime = self._runtime
        request = Request(runtime.env, SEND)
        runtime.post_send(
            self.rank, (dest,), tag, payload, message_wire_size(payload),
            request.succeed_inline,
        )
        return request

    def irecv(
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG, _internal: bool = False
    ) -> Request:
        """Non-blocking receive; request completes when matched."""
        if tag != ANY_TAG and not _internal:
            self._check_user_tag(tag)
        if source != ANY_SOURCE:
            self._check_peer(source)
        runtime = self._runtime
        request = Request(runtime.env, RECV)
        runtime.post_recv(self.rank, ((source, 0),), tag, request.succeed_inline)
        return request

    def send(self, payload: Any, dest: int, tag: int = 0, _internal: bool = False):
        """Blocking send (generator)."""
        # The request is never handed out, so nothing is left to finalize.
        yield self.isend(payload, dest, tag, _internal=_internal)

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG, _internal: bool = False):
        """Blocking receive (generator); returns ``(payload, Status)``."""
        request = self.irecv(source, tag, _internal=_internal)
        raw = yield request
        return request._finalize(raw)

    def sendrecv(
        self,
        payload: Any,
        dest: int,
        source: int = ANY_SOURCE,
        send_tag: int = 0,
        recv_tag: int = ANY_TAG,
    ):
        """Combined send+receive (generator); returns ``(payload, Status)``.

        Posts both before waiting, so symmetric exchanges cannot
        deadlock.
        """
        send_request = self.isend(payload, dest, send_tag)
        recv_request = self.irecv(source, recv_tag)
        # One request after the other, whichever completes last: no
        # AllOf, so no heap step of its own.  The send request is never
        # handed out, so nothing is left to finalize.
        yield send_request
        raw = yield recv_request
        return recv_request._finalize(raw)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Communicator rank={self.rank}/{self.size}>"
