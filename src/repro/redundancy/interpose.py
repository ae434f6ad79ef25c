"""RedComm: the PMPI-style interposition layer (paper Section 3).

``RedComm`` exposes the same interface as
:class:`repro.mpi.Communicator` but speaks in *virtual* ranks.  Under
the hood every application call fans out to the physical replicas:

* ``isend(payload, dest)`` → one world send per live replica of the
  destination sphere (Figure 1(a)); in Msg-PlusHash mode all but the
  designated carrier ship only a digest;
* ``irecv(source)`` → one world receive per live replica of the source
  sphere; the returned :class:`RedRequest` is the paper's *request
  set*: the application-level wait completes only when every member
  request has completed (Section 3's MPI_Wait semantics);
* arriving copies are compared/voted (:mod:`repro.redundancy.voting`);
* receives pending on a replica that dies are cancelled, so surviving
  copies still complete the application-level request — this is how a
  sphere keeps the job running after losing members (Figure 7).

Tag spaces: user tags ``[0, 2^20)``; collective tags ``[2^20, 2^24)``;
digest copies are shipped at ``tag + 2^24``; the wildcard-protocol
control messages use ``[2^28, ...)`` (see
:mod:`repro.redundancy.anysource`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

from ..errors import RedundancyError
from ..mpi.comm import USER_TAG_LIMIT, CollectiveAPI
from ..mpi.datatypes import payload_digest, payload_nbytes
from ..mpi.requests import Request
from ..mpi.status import ANY_SOURCE, ANY_TAG, Status
from ..simkit.events import Event
from .mapping import ReplicaMap
from .sphere import SphereTracker
from .voting import ALL_TO_ALL, MODES, ReplicaCopy, plan_copies, vote

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..mpi.runtime import RankContext

#: Digest copies of a message tagged ``t`` travel at ``t + HASH_TAG_OFFSET``.
HASH_TAG_OFFSET = 1 << 24

#: A corruptor: maps (sender_physical, receiver_physical, payload) to the
#: payload actually shipped.  Used to inject Byzantine replicas in tests.
Corruptor = Callable[[int, int, Any], Any]


class RedRequest:
    """A request *set*: the application-level handle over replica requests.

    Completes when every live member completes; members whose peer
    replica dies are dropped from the set.  For receives, completion
    triggers the vote and yields ``(payload, Status)`` with the
    *virtual* source rank.
    """

    def __init__(self, comm: "RedComm", kind: str, virtual_peer: int, tag: int) -> None:
        self.comm = comm
        self.kind = kind
        self.virtual_peer = virtual_peer
        self.tag = tag
        self.event = Event(comm.env)
        self._pending: Dict[int, Request] = {}  # id -> member request
        self._sender_of: Dict[int, int] = {}
        self._copy_kind: Dict[int, str] = {}
        self._copies: List[ReplicaCopy] = []
        self._armed = False
        self._consumed = False

    # -- construction (layer-internal) -----------------------------------

    def add_member(self, request: Request, sender_physical: int, copy_kind: str) -> None:
        """Register one per-replica request into the set."""
        key = id(request)
        self._pending[key] = request
        self._sender_of[key] = sender_physical
        self._copy_kind[key] = copy_kind
        request.event.add_callback(lambda _event, key=key: self._member_done(key))

    def arm(self) -> None:
        """All members registered; complete immediately if set is empty."""
        self._armed = True
        self._maybe_complete()

    # -- progress ----------------------------------------------------------

    def _member_done(self, key: int) -> None:
        request = self._pending.pop(key, None)
        if request is None:
            return  # dropped by a death notification before arrival
        if self.kind == "recv":
            envelope = request.event.value
            sender = self._sender_of[key]
            if self._copy_kind[key] == "full":
                self._copies.append(ReplicaCopy.full(sender, envelope.payload))
            else:
                self._copies.append(
                    ReplicaCopy.hash_only(sender, envelope.payload)
                )
        self._maybe_complete()

    def _maybe_complete(self) -> None:
        if not self._armed or self.event.triggered or self._pending:
            return
        if self.kind == "recv" and not self._copies:
            # Every source replica died before sending: the request can
            # never be satisfied.  Leave it pending — the sphere tracker
            # has (or will) declare the job failed and force a rollback.
            return
        self.event.succeed(list(self._copies) if self.kind == "recv" else None)

    def drop_sender(self, dead_physical: int) -> None:
        """A peer replica died: withdraw its still-pending member requests."""
        if self.kind != "recv" or self.event.triggered:
            return
        doomed = [
            key
            for key, sender in self._sender_of.items()
            if sender == dead_physical and key in self._pending
        ]
        for key in doomed:
            request = self._pending[key]
            if request.event.triggered:
                continue  # message already matched; let it finish
            if self.comm.runtime.cancel_recv(self.comm.physical_rank, request.event):
                del self._pending[key]
        self._maybe_complete()

    # -- application API -----------------------------------------------------

    @property
    def done(self) -> bool:
        """True once the whole set has completed."""
        return self.event.processed

    def wait(self):
        """Generator: block until the set completes; returns the value."""
        raw = yield self.event
        return self._finalize(raw)

    def test(self):
        """Non-blocking check: ``(False, None)`` or ``(True, value)``."""
        if not self.event.processed:
            return False, None
        return True, self._finalize(self.event.value)

    def _finalize(self, raw: Any) -> Any:
        if self._consumed:
            raise RedundancyError("request set waited on twice")
        self._consumed = True
        if self.kind == "send":
            return None
        outcome = vote(raw)
        if not outcome.unanimous:
            counters = self.comm.runtime.counters
            counters["votes_not_unanimous"] += 1
            counters["corrupt_copies_voted_out"] += len(outcome.corrupt_senders)
        status = Status(
            source=self.virtual_peer,
            tag=self.tag,
            nbytes=payload_nbytes(outcome.payload),
        )
        return outcome.payload, status


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
        self._virtual_rank = replica_map.virtual_of(ctx.rank)
        self._coll_seq = 0
        self._active_recvs: List[RedRequest] = []
        self.runtime.on_rank_death(self._on_rank_death)

    # -- identity (virtual view) ------------------------------------------

    @property
    def rank(self) -> int:
        """This process's *virtual* rank."""
        return self._virtual_rank

    @property
    def size(self) -> int:
        """Number of virtual processes."""
        return self.replica_map.virtual_processes

    @property
    def env(self):
        """The simulation environment."""
        return self.runtime.env

    @property
    def replica_index(self) -> int:
        """This process's position within its sphere (0 = primary)."""
        return self.replica_map.replica_index(self.physical_rank)

    def peer_alive(self, virtual: int) -> bool:
        """True while the peer sphere has at least one live replica."""
        return bool(self.tracker.alive_replicas(virtual))

    def _alive_sphere(self, virtual: int) -> List[int]:
        """Live replicas of a sphere, consulting both tracker and runtime."""
        return [
            rank
            for rank in self.replica_map.replicas_of(virtual)
            if not self.tracker.is_dead(rank) and self.runtime.is_alive(rank)
        ]

    # -- death plumbing -----------------------------------------------------

    def _on_rank_death(self, dead_physical: int) -> None:
        self.tracker.notice_death(dead_physical)
        still_active = []
        for request in self._active_recvs:
            request.drop_sender(dead_physical)
            if not request.event.triggered:
                still_active.append(request)
        self._active_recvs = still_active

    # -- point to point --------------------------------------------------------

    def _check_tag(self, tag: int, internal: bool) -> None:
        if tag < 0:
            raise RedundancyError(f"tag must be >= 0, got {tag}")
        if not internal and tag >= USER_TAG_LIMIT:
            raise RedundancyError(f"user tags must be < {USER_TAG_LIMIT}, got {tag}")

    def isend(self, payload: Any, dest: int, tag: int = 0, _internal: bool = False) -> RedRequest:
        """Fan-out send to every live replica of virtual rank ``dest``."""
        self._check_tag(tag, _internal)
        # Plans are computed over *live* replicas on both ends so sender
        # and receiver agree on who carries the full payload in
        # Msg-PlusHash mode even after replica deaths.
        my_sphere = self._alive_sphere(self._virtual_rank)
        dest_replicas = self._alive_sphere(dest)
        plan = plan_copies(my_sphere, dest_replicas, self.mode)
        request_set = RedRequest(self, kind="send", virtual_peer=dest, tag=tag)
        self.runtime.counters["app_sends"] += 1
        for receiver in dest_replicas:
            shipped = payload
            if self.corruptor is not None:
                shipped = self.corruptor(self.physical_rank, receiver, payload)
            what = plan[(self.physical_rank, receiver)]
            if what == "full":
                member = self._world.isend(shipped, receiver, tag, _internal=True)
            else:
                member = self._world.isend(
                    payload_digest(shipped), receiver, tag + HASH_TAG_OFFSET,
                    _internal=True,
                )
            request_set.add_member(member, self.physical_rank, what)
        request_set.arm()
        return request_set

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG, _internal: bool = True) -> RedRequest:
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
        self._check_tag(tag, _internal)
        return self._post_specific_recv(source, tag)

    def _post_specific_recv(
        self,
        source: int,
        tag: int,
        already_have: Optional[ReplicaCopy] = None,
        skip_sender: Optional[int] = None,
    ) -> RedRequest:
        source_replicas = self._alive_sphere(source)
        my_sphere = self._alive_sphere(self._virtual_rank)
        plan = plan_copies(source_replicas, my_sphere, self.mode)
        request_set = RedRequest(self, kind="recv", virtual_peer=source, tag=tag)
        if already_have is not None:
            request_set._copies.append(already_have)
        self.runtime.counters["app_recvs"] += 1
        for sender in source_replicas:
            if sender == skip_sender:
                continue
            what = plan[(sender, self.physical_rank)]
            if what == "full":
                member = self._world.irecv(sender, tag)
            else:
                member = self._world.irecv(sender, tag + HASH_TAG_OFFSET)
            request_set.add_member(member, sender, what)
        request_set.arm()
        if len(self._active_recvs) > 64:
            self._active_recvs = [
                pending
                for pending in self._active_recvs
                if not pending.event.triggered
            ]
        self._active_recvs.append(request_set)
        return request_set

    def send(self, payload: Any, dest: int, tag: int = 0, _internal: bool = False):
        """Blocking fan-out send (generator)."""
        request_set = self.isend(payload, dest, tag, _internal=_internal)
        yield from request_set.wait()

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Blocking fan-in receive (generator) → ``(payload, Status)``.

        With ``source=ANY_SOURCE`` runs the Section 3 wildcard
        protocol so all replicas of this sphere receive from the same
        virtual sender.
        """
        if source == ANY_SOURCE:
            from .anysource import anysource_recv

            result = yield from anysource_recv(self, tag)
            return result
        if tag == ANY_TAG:
            raise RedundancyError("ANY_TAG is not supported under redundancy")
        request_set = self.irecv(source, tag)
        result = yield from request_set.wait()
        return result

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
        results = yield from self.waitall([send_set, recv_set])
        return results[1]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<RedComm virtual={self._virtual_rank}/{self.size} "
            f"physical={self.physical_rank} mode={self.mode}>"
        )
