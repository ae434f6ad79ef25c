"""RedComm: the PMPI-style interposition layer (paper Section 3).

``RedComm`` exposes the same interface as
:class:`repro.mpi.Communicator` but speaks in *virtual* ranks.  Under
the hood every application call fans out to the physical replicas, in
one runtime call per request set, not one per copy:

* ``isend(payload, dest)`` → one copy per live replica of the
  destination sphere (Figure 1(a)).  When every copy is the full
  message, one ``SimMPI.post_send`` call takes all the receivers; in
  Msg-PlusHash mode, where all but the designated carrier ship only a
  digest, or with a corruptor, each receiver gets a call of its own;
* ``irecv(source)`` → one member receive per live replica of the
  source sphere, all posted by one ``SimMPI.post_recv`` call that
  ``irecv`` makes itself; the returned
  :class:`~repro.redundancy.request.RecvSet` is the paper's *request
  set*: the application-level wait completes only when every member
  has completed (Section 3's MPI_Wait semantics);
* the receivers and members come from routes the attempt's
  :class:`~repro.redundancy.sphere.SphereTracker` reads off
  :func:`~repro.redundancy.voting.plan_copies` once per peer sphere.
  The tracker hands each ``RedComm`` its route tables, keyed by peer
  sphere, and at the first notice of each rank death drops in place
  the routes that death changes: a route that was built is one dict
  lookup, with no call;
* a request set is its own kernel event, so a process waits on it by
  yielding it.  A send set (:class:`~repro.redundancy.request.SendSet`)
  is that event alone; a receive set keeps the envelopes its members
  matched, completes itself when the last one matches, and votes over
  them when it is finalized (:mod:`repro.redundancy.voting`);
* a user tag is checked only when it is out of range, by one
  comparison per call;
* a world has one death watcher, the tracker's: a death withdraws the
  members that wait on the dead replica from the runtime's posted
  receives, so surviving copies still complete the application-level
  request — this is how a sphere keeps the job running after losing
  members (Figure 7).  A death costs one watcher call and one pass
  over the posted receives, not a call per ``RedComm``.

Tag spaces: user tags ``[0, 2^20)``; collective tags ``[2^20, 2^24)``;
digest copies are shipped at ``tag + 2^24``; the wildcard-protocol
control messages use ``[2^28, ...)`` (see
:mod:`repro.redundancy.anysource`).
"""

from __future__ import annotations

from itertools import repeat
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Tuple

from ..errors import RedundancyError
from ..mpi.comm import USER_TAG_LIMIT, CollectiveAPI
from ..mpi.datatypes import message_wire_size, payload_digest
from ..mpi.matching import Envelope
from ..mpi.status import ANY_SOURCE, ANY_TAG
from .mapping import ReplicaMap
from .request import RecvSet, SendSet
from .sphere import SphereTracker
from .voting import ALL_TO_ALL, HASH_TAG_OFFSET, MODES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..mpi.runtime import RankContext

#: A corruptor: maps (sender_physical, receiver_physical, payload) to the
#: payload actually shipped.  Used to inject Byzantine replicas in tests.
Corruptor = Callable[[int, int, Any], Any]


def _shipment(copy_kind: str, tag: int, payload: Any) -> Tuple[int, Any, int]:
    """``(tag, payload, wire bytes)`` of one copy: the message or its digest."""
    if copy_kind == "full":
        return tag, payload, message_wire_size(payload)
    digest = payload_digest(payload)
    return tag + HASH_TAG_OFFSET, digest, message_wire_size(digest)


class RedComm(CollectiveAPI):
    """Virtual-rank communicator with transparent replication."""

    def __init__(
        self,
        ctx: "RankContext",
        replica_map: ReplicaMap,
        tracker: SphereTracker,
        mode: str = ALL_TO_ALL,
        corruptor: Optional[Corruptor] = None,
    ) -> None:
        if mode not in MODES:
            raise RedundancyError(f"unknown redundancy mode {mode!r}")
        self._world = ctx.comm
        self.runtime = ctx.runtime
        self.physical_rank = ctx.rank
        self.replica_map = replica_map
        self.tracker = tracker
        self.mode = mode
        self.corruptor = corruptor
        #: This process's *virtual* rank, and the number of virtual
        #: processes (plain attributes: the collectives read them per hop).
        self.rank = replica_map.virtual_of(ctx.rank)
        self.size = replica_map.virtual_processes
        self._coll_seq = 0
        tracker.bind(self.runtime, mode)
        self._send_routes, self._recv_routes = tracker.route_tables(ctx.rank)

    # -- identity (virtual view) ------------------------------------------

    @property
    def env(self):
        """The simulation environment."""
        return self.runtime.env

    @property
    def replica_index(self) -> int:
        """This process's position within its sphere (0 = primary)."""
        return self.replica_map.replica_index(self.physical_rank)

    # -- point to point --------------------------------------------------------

    @staticmethod
    def _tag_error(tag: int) -> RedundancyError:
        # Internal tags come from ``_next_collective_tag`` and are not
        # checked.
        if tag < 0:
            return RedundancyError(f"tag must be >= 0, got {tag}")
        return RedundancyError(f"user tags must be < {USER_TAG_LIMIT}, got {tag}")

    def isend(self, payload: Any, dest: int, tag: int = 0, _internal: bool = False) -> SendSet:
        """Fan-out send to every live replica of virtual rank ``dest``."""
        if not _internal and not 0 <= tag < USER_TAG_LIMIT:
            raise self._tag_error(tag)
        runtime = self.runtime
        me = self.physical_rank
        try:
            receivers, kinds = self._send_routes[dest]
        except KeyError:
            receivers, kinds = self.tracker.send_route(me, dest)
        request_set = SendSet(runtime.env)
        runtime.counters["app_sends"] += 1
        if not receivers:
            request_set.succeed_inline()
            return request_set
        corruptor = self.corruptor
        # The NIC is a FIFO, so the last copy leaves last: the set
        # completes with it, and the other copies complete nothing.
        if kinds is None and corruptor is None:
            # Every receiver gets the same message: one runtime call.
            runtime.post_send(
                me, receivers, tag, payload, message_wire_size(payload),
                request_set.succeed_inline,
            )
            return request_set
        # Each kind of copy is sized (and digested) once per send, unless
        # a corruptor ships something different to each receiver.
        shipments: Dict[str, Tuple[int, Any, int]] = {}
        last = receivers[-1]
        for receiver, copy_kind in zip(receivers, kinds or repeat("full")):
            shipment = shipments.get(copy_kind)
            if shipment is None or corruptor is not None:
                shipped = payload if corruptor is None else corruptor(me, receiver, payload)
                shipment = shipments[copy_kind] = _shipment(copy_kind, tag, shipped)
            shipped_tag, shipped, nbytes = shipment
            runtime.post_send(
                me, (receiver,), shipped_tag, shipped, nbytes,
                request_set.succeed_inline if receiver == last else None,
            )
        return request_set

    def irecv(
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG, _internal: bool = False
    ) -> RecvSet:
        """Fan-in receive from every live replica of virtual ``source``.

        Wildcard sources are only supported through the blocking
        :meth:`recv` (the paper's envelope-forwarding protocol is
        inherently multi-step); wildcard tags are not interposable
        (a digest copy travels under a shifted tag) and are rejected.
        """
        if source == ANY_SOURCE:
            raise RedundancyError(
                "ANY_SOURCE is only supported via blocking recv() under "
                "redundancy (envelope-forwarding protocol)"
            )
        if tag == ANY_TAG:
            raise RedundancyError("ANY_TAG is not supported under redundancy")
        if not _internal and not 0 <= tag < USER_TAG_LIMIT:
            raise self._tag_error(tag)
        runtime = self.runtime
        me = self.physical_rank
        try:
            members = self._recv_routes[source]
        except KeyError:
            members = self.tracker.recv_route(me, source)
        request_set = RecvSet(runtime, source, tag)
        runtime.counters["app_recvs"] += 1
        # No member completes inside its post (a match on an unexpected
        # copy is queued), so the count is set after.
        runtime.post_recv(me, members, tag, request_set._recv_done)
        request_set._remaining = len(members)
        return request_set

    def _post_specific_recv(self, source: int, tag: int, first_copy: Envelope) -> RecvSet:
        """Post a receive set for the rest of a message the lead has a copy of.

        The wildcard protocol's lead receive matched ``first_copy``: it
        joins the set, and its sender gets no member.
        """
        runtime = self.runtime
        me = self.physical_rank
        members = tuple(
            member
            for member in self.tracker.recv_route(me, source)
            if member[0] != first_copy.source
        )
        request_set = RecvSet(runtime, source, tag)
        runtime.counters["app_recvs"] += 1
        request_set._envelopes.append(first_copy)
        runtime.post_recv(me, members, tag, request_set._recv_done)
        request_set._remaining = len(members)
        if not members:
            # The lead's first copy was the only one left to receive.
            request_set.succeed_inline(request_set._envelopes)
        return request_set

    def send(self, payload: Any, dest: int, tag: int = 0, _internal: bool = False):
        """Blocking fan-out send (generator)."""
        # The set is never handed out, so nothing is left to finalize.
        yield self.isend(payload, dest, tag, _internal=_internal)

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG, _internal: bool = False):
        """Blocking fan-in receive (generator) → ``(payload, Status)``.

        With ``source=ANY_SOURCE`` runs the Section 3 wildcard
        protocol so all replicas of this sphere receive from the same
        virtual sender.
        """
        if source == ANY_SOURCE:
            if not _internal and not 0 <= tag < USER_TAG_LIMIT:
                raise self._tag_error(tag)
            from .anysource import anysource_recv

            result = yield from anysource_recv(self, tag)
            return result
        request_set = self.irecv(source, tag, _internal)
        raw = yield request_set
        return request_set._finalize(raw)

    def sendrecv(
        self,
        payload: Any,
        dest: int,
        source: int = ANY_SOURCE,
        send_tag: int = 0,
        recv_tag: int = ANY_TAG,
    ):
        """Combined send+receive (generator); posts both before waiting."""
        if source == ANY_SOURCE or recv_tag == ANY_TAG:
            raise RedundancyError(
                "sendrecv wildcards are not supported under redundancy"
            )
        send_set = self.isend(payload, dest, send_tag)
        recv_set = self.irecv(source, recv_tag)
        # One set after the other, whichever completes last: no AllOf,
        # so no heap step of its own.  The send set is never handed out,
        # so nothing is left to finalize.
        yield send_set
        raw = yield recv_set
        return recv_set._finalize(raw)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<RedComm virtual={self.rank}/{self.size} "
            f"physical={self.physical_rank} mode={self.mode}>"
        )
