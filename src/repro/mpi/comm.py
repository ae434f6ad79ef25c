"""The communicator: the per-rank handle for all communication.

Each simulated rank holds its own :class:`Communicator` object (as in
real MPI, where the handle is process-local).  A communicator is a view
onto a *group* of global ranks with a private context id, so traffic on
different communicators never cross-matches.

Blocking operations are generators — call them with ``yield from``:

    yield from comm.send(payload, dest=3, tag=0)
    payload, status = yield from comm.recv(source=ANY_SOURCE, tag=0)

Non-blocking operations return :class:`~repro.mpi.requests.Request`
handles; complete them with ``yield from request.wait()`` or
``yield from comm.waitall(requests)``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence

from ..errors import CommunicatorError
from .requests import RECV, Request, waitall as _waitall, waitany as _waitany
from .status import ANY_SOURCE, ANY_TAG

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .runtime import SimMPI

#: User tags must stay below this; collectives use the space above it.
USER_TAG_LIMIT = 1 << 20
_COLLECTIVE_TAG_BASE = USER_TAG_LIMIT


class CollectiveAPI:
    """Mixin providing collectives + request completion over p2p calls.

    Any class exposing ``rank``, ``size``, ``env``, ``isend``, ``irecv``,
    ``send``, ``recv`` and a ``_coll_seq`` counter gets the full
    collective API.  Used by both the plain :class:`Communicator` and
    the redundancy layer's ``RedComm`` — which is exactly how the paper
    justifies Eq. 1: collectives decompose to (interposed)
    point-to-point messages.
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

    def waitany(self, requests: List[Request]):
        """Generator: complete one request; returns ``(index, value)``."""
        result = yield from _waitany(self.env, requests)
        return result

    def barrier(self):
        """Generator: dissemination barrier."""
        from . import collectives

        yield from collectives.barrier(self)

    def bcast(self, value: Any, root: int = 0):
        """Generator: binomial-tree broadcast; returns the value everywhere."""
        from . import collectives

        result = yield from collectives.bcast(self, value, root)
        return result

    def reduce(self, value: Any, op, root: int = 0):
        """Generator: binomial-tree reduce; returns result at root else None."""
        from . import collectives

        result = yield from collectives.reduce(self, value, op, root)
        return result

    def allreduce(self, value: Any, op):
        """Generator: reduce-to-root + broadcast; returns result everywhere."""
        from . import collectives

        result = yield from collectives.allreduce(self, value, op)
        return result

    def gather(self, value: Any, root: int = 0):
        """Generator: gather values; returns the list at root else None."""
        from . import collectives

        result = yield from collectives.gather(self, value, root)
        return result

    def allgather(self, value: Any):
        """Generator: gather + broadcast; returns the list everywhere."""
        from . import collectives

        result = yield from collectives.allgather(self, value)
        return result

    def scatter(self, values: Optional[List[Any]], root: int = 0):
        """Generator: scatter ``values`` from root; returns this rank's item."""
        from . import collectives

        result = yield from collectives.scatter(self, values, root)
        return result

    def alltoall(self, values: List[Any]):
        """Generator: personalised all-to-all; returns the received list."""
        from . import collectives

        result = yield from collectives.alltoall(self, values)
        return result

    def scan(self, value: Any, op):
        """Generator: inclusive prefix reduction; rank k gets op(v_0..v_k)."""
        from . import collectives

        result = yield from collectives.scan(self, value, op)
        return result


class Communicator(CollectiveAPI):
    """A group-scoped communication handle for one rank."""

    def __init__(
        self,
        runtime: "SimMPI",
        group: Sequence[int],
        local_rank: int,
        cid: int,
        name: str = "comm",
    ) -> None:
        if local_rank < 0 or local_rank >= len(group):
            raise CommunicatorError(
                f"local rank {local_rank} outside group of size {len(group)}"
            )
        self._runtime = runtime
        self._group: List[int] = list(group)
        self._local_rank = local_rank
        self._cid = cid
        self.name = name
        self._global_of: Dict[int, int] = dict(enumerate(self._group))
        self._local_of: Dict[int, int] = {g: l for l, g in self._global_of.items()}
        self._coll_seq = 0

    # -- identity ---------------------------------------------------------

    @property
    def rank(self) -> int:
        """This process's rank within the communicator."""
        return self._local_rank

    @property
    def size(self) -> int:
        """Number of ranks in the communicator."""
        return len(self._group)

    @property
    def env(self):
        """The simulation environment (for ``waitall`` etc.)."""
        return self._runtime.env

    @property
    def cid(self) -> int:
        """Context id separating this communicator's traffic."""
        return self._cid

    def global_rank(self, local: int) -> int:
        """Translate a communicator rank to the world rank."""
        try:
            return self._global_of[local]
        except KeyError as exc:
            raise CommunicatorError(f"no local rank {local} in {self.name}") from exc

    def local_rank_of(self, global_rank: int) -> int:
        """Translate a world rank back into this communicator."""
        try:
            return self._local_of[global_rank]
        except KeyError as exc:
            raise CommunicatorError(
                f"world rank {global_rank} not in communicator {self.name}"
            ) from exc

    def peer_alive(self, local: int) -> bool:
        """Liveness of a peer (used by the redundancy layer)."""
        return self._runtime.is_alive(self.global_rank(local))

    # -- point to point ----------------------------------------------------

    def _check_tag(self, tag: int, internal: bool) -> None:
        if tag < 0:
            raise CommunicatorError(f"tag must be >= 0, got {tag}")
        if not internal and tag >= USER_TAG_LIMIT:
            raise CommunicatorError(
                f"user tags must be < {USER_TAG_LIMIT}, got {tag}"
            )

    def isend(self, payload: Any, dest: int, tag: int = 0, _internal: bool = False) -> Request:
        """Non-blocking send; returns a request completing at injection."""
        self._check_tag(tag, _internal)
        global_dest = self.global_rank(dest)
        event = self._runtime.post_send(
            src=self.global_rank(self._local_rank),
            dst=global_dest,
            tag=tag,
            payload=payload,
            cid=self._cid,
        )
        return Request(kind="send", event=event, peer=dest, tag=tag)

    def irecv(
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG, _internal: bool = True
    ) -> Request:
        """Non-blocking receive; request completes when matched."""
        if tag != ANY_TAG:
            self._check_tag(tag, _internal)
        global_source = source if source == ANY_SOURCE else self.global_rank(source)
        my_global = self.global_rank(self._local_rank)
        event = self._runtime.post_recv(
            rank=my_global, source=global_source, tag=tag, cid=self._cid
        )
        return Request(
            kind=RECV,
            event=event,
            peer=source,
            tag=tag,
            source_map=self.local_rank_of,
        )

    def send(self, payload: Any, dest: int, tag: int = 0, _internal: bool = False):
        """Blocking send (generator)."""
        request = self.isend(payload, dest, tag, _internal=_internal)
        yield from request.wait()

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Blocking receive (generator); returns ``(payload, Status)``."""
        request = self.irecv(source, tag)
        result = yield from request.wait()
        return result

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
        results = yield from _waitall(self.env, [send_request, recv_request])
        return results[1]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Communicator {self.name} rank={self.rank}/{self.size}>"
