"""Replica-sphere liveness, and the routes between live replicas.

Figure 7 of the paper: a physical-process failure does *not* imply an
application failure — the job only fails (and a rollback is triggered)
when **all** replicas of some virtual process are dead.  The tracker
is the world's one death watcher: it hears each rank death from the
runtime, fires a callback at the first sphere exhaustion, and
withdraws the request-set members that wait on the dead replica, so
their sets complete with the surviving copies.  A death is one
watcher call, whatever the number of ``RedComm`` objects.

The tracker also owns the routes every ``RedComm`` of the attempt
reads: each sphere's live replicas, and the receivers of a send to a
sphere and the members of a receive from one.  A route is built on
first use and shared.  Each ``RedComm`` holds its route tables, keyed
by peer sphere, and looks a route up there itself; the tracker decides
which ranks share a table and empties every table in place at the
first notice of each death, before any rank's process can run again.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set, Tuple

from ..errors import RedundancyError
from .mapping import ReplicaMap
from .request import is_member
from .voting import ALL_TO_ALL, HASH_TAG_OFFSET, plan_copies

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..mpi.runtime import SimMPI

#: A send's route: the receiver replicas, and each copy's kind
#: (``"full"``/``"hash"``) or ``None`` when every copy is full.
SendRoute = Tuple[Tuple[int, ...], Optional[Tuple[str, ...]]]

#: A receive's route: ``(sender replica, tag offset)`` per member.
RecvRoute = Tuple[Tuple[int, int], ...]

#: One rank's route tables, keyed by peer sphere: sends, then receives.
RouteTables = Tuple[Dict[int, SendRoute], Dict[int, RecvRoute]]


class SphereTracker:
    """Liveness bookkeeping and routes for every replica sphere of a job attempt."""

    def __init__(self, replica_map: ReplicaMap) -> None:
        self.replica_map = replica_map
        self._dead: Set[int] = set()
        self._exhausted: Optional[int] = None
        self._watchers: List[Callable[[int], None]] = []
        # The world and mode routes are built for (see ``bind``).
        self._runtime: Optional["SimMPI"] = None
        self._mode = ALL_TO_ALL
        # Live replicas per sphere, and the route tables.  In All-to-all
        # mode a route is the same for every replica of a sphere, so
        # every rank shares one pair of tables (key ``None``); in
        # Msg-PlusHash mode each replica's copy kinds differ, so each
        # rank has its own pair (key: its physical rank).
        self._live: Dict[int, Tuple[int, ...]] = {}
        self._tables: Dict[Optional[int], RouteTables] = {}

    # -- event input -------------------------------------------------------

    def notice_death(self, physical_rank: int) -> None:
        """Record a physical-rank death; fire watcher on sphere exhaustion.

        The first notice of a death empties every route table in place.
        """
        if physical_rank in self._dead:
            return
        self._dead.add(physical_rank)
        self._live.clear()
        for send_routes, recv_routes in self._tables.values():
            send_routes.clear()
            recv_routes.clear()
        virtual = self.replica_map.virtual_of(physical_rank)
        if self._exhausted is None and not self.alive_replicas(virtual):
            self._exhausted = virtual
            for watcher in list(self._watchers):
                watcher(virtual)

    def on_sphere_exhausted(self, watcher: Callable[[int], None]) -> None:
        """Register a callback fired with the first exhausted virtual rank."""
        self._watchers.append(watcher)

    # -- queries -----------------------------------------------------------

    def alive_replicas(self, virtual_rank: int) -> List[int]:
        """Physical replicas of a sphere still alive, primary first."""
        return [
            rank
            for rank in self.replica_map.replicas_of(virtual_rank)
            if rank not in self._dead
        ]

    def lead_replica(self, virtual_rank: int) -> int:
        """Lowest-index live replica (the wildcard-protocol leader).

        Raises
        ------
        RedundancyError
            When the sphere is exhausted.
        """
        alive = self.alive_replicas(virtual_rank)
        if not alive:
            raise RedundancyError(f"sphere of virtual rank {virtual_rank} exhausted")
        return alive[0]

    # -- routes ------------------------------------------------------------

    def bind(self, runtime: "SimMPI", mode: str) -> None:
        """Set the world and the redundancy mode the routes are built for.

        Every ``RedComm`` of the attempt binds the same pair; the first
        bind registers the tracker as the world's death watcher.

        Raises
        ------
        RedundancyError
            When a second world or mode is bound.
        """
        if self._runtime is None:
            self._runtime, self._mode = runtime, mode
            runtime.on_rank_death(self._on_rank_death)
        elif runtime is not self._runtime or mode != self._mode:
            raise RedundancyError("a sphere tracker serves one world in one mode")

    def _on_rank_death(self, physical_rank: int) -> None:
        """The world's death watcher: notice the death, then withdraw members.

        The routes are dropped first, before any rank's process can run
        again.  Then every posted request-set member whose sender is the
        dead replica is withdrawn, in rank order and then post order.  A
        set that completes here resumes its process inline, so this
        order fixes what the simulation does next; the receives that
        process posts come from the new routes, so none waits on the
        dead replica.  Plain receives that name it stay posted (the
        wildcard protocol's envelope receive from the lead replica), as
        a copy it sent before dying may still arrive.
        """
        self.notice_death(physical_rank)
        for done in self._runtime.withdraw_recvs(physical_rank, is_member):
            done.__self__.member_withdrawn()

    def _live_replicas(self, virtual_rank: int) -> Tuple[int, ...]:
        """Replicas of a sphere alive by both the tracker and the runtime."""
        live = self._live.get(virtual_rank)
        if live is None:
            is_alive = self._runtime.is_alive
            live = self._live[virtual_rank] = tuple(
                rank
                for rank in self.replica_map.replicas_of(virtual_rank)
                if rank not in self._dead and is_alive(rank)
            )
        return live

    def route_tables(self, rank: int) -> RouteTables:
        """``rank``'s route tables: its send and receive routes by peer sphere.

        A ``RedComm`` looks its routes up in them and, on a miss, asks
        :meth:`send_route` or :meth:`recv_route`, which fill them.  The
        tables stay the same objects for the whole attempt: a death
        empties them in place.  Call after :meth:`bind`.
        """
        key = None if self._mode == ALL_TO_ALL else rank
        tables = self._tables.get(key)
        if tables is None:
            tables = self._tables[key] = ({}, {})
        return tables

    def send_route(self, sender: int, dest: int) -> SendRoute:
        """The route of a send from ``sender`` to sphere ``dest``.

        The copy kinds come from :func:`plan_copies` over the two
        spheres' live replicas, so sender and receiver agree on who
        carries the full payload even after replica deaths; they are
        ``None`` when every copy is full.  Built on first use and kept
        in ``sender``'s table.
        """
        send_routes = self.route_tables(sender)[0]
        route = send_routes.get(dest)
        if route is None:
            receivers = self._live_replicas(dest)
            senders = self._live_replicas(self.replica_map.virtual_of(sender))
            plan = plan_copies(senders, receivers, self._mode)
            kinds = tuple(plan[(sender, receiver)] for receiver in receivers)
            route = send_routes[dest] = (
                receivers, None if all(kind == "full" for kind in kinds) else kinds
            )
        return route

    def recv_route(self, receiver: int, source: int) -> RecvRoute:
        """The members of a receive on ``receiver`` from sphere ``source``.

        One ``(sender replica, tag offset)`` per live replica; a member
        that gets a digest copy listens at ``tag + HASH_TAG_OFFSET``.
        Built on first use and kept in ``receiver``'s table.
        """
        recv_routes = self.route_tables(receiver)[1]
        route = recv_routes.get(source)
        if route is None:
            senders = self._live_replicas(source)
            receivers = self._live_replicas(self.replica_map.virtual_of(receiver))
            plan = plan_copies(senders, receivers, self._mode)
            route = recv_routes[source] = tuple(
                (sender, 0 if plan[(sender, receiver)] == "full" else HASH_TAG_OFFSET)
                for sender in senders
            )
        return route
