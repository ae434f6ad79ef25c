"""SimMPI: the simulated MPI runtime.

Owns the world — rank processes, each rank's receive matching, the
rank→node placement, liveness, and the in-flight count the checkpoint
coordinator's bookmark protocol reads.  Programs are callables taking
a :class:`RankContext` and returning a generator.

Matching follows MPI's rules: each rank keeps its *posted* receives
in post order and its *unexpected* envelopes in arrival order.  A
``(source, tag)`` pattern matches an envelope when each field is equal
or the pattern's is a wildcard (``ANY_SOURCE`` / ``ANY_TAG``).  An
arriving envelope completes the first posted receive it matches,
inline, or joins the unexpected list; a posted receive first takes the
oldest matching unexpected envelope.  So a message's arrival is one
heap entry that runs ``_arrive`` and, through it, the receive's
completion.  Non-overtaking holds because the messages of one
(source, destination) pair leave the sender's NIC first in, first out
and pay the same wire latency.

>>> from repro.simkit import Environment
>>> from repro.mpi import SimMPI
>>> env = Environment()
>>> world = SimMPI(env, size=4)
>>> def program(ctx):
...     total = yield from ctx.comm.allreduce(ctx.rank, ops.SUM)
...     return total
>>> from repro.mpi import ops
>>> world.spawn(program)
>>> world.run()
>>> [world.result_of(r) for r in range(4)]
[6, 6, 6, 6]
"""

from __future__ import annotations

from collections import defaultdict
from heapq import heappush
from typing import (
    Any, Callable, DefaultDict, Dict, Iterator, List, Optional, Sequence, Set, Tuple,
)

from ..errors import MPIError
from ..netsim import Network
from ..simkit import Environment
from ..simkit.env import NORMAL
from ..simkit.events import AllOf
from ..simkit.process import Process
from .comm import Communicator
from .matching import Completion, Envelope
from .status import ANY_SOURCE, ANY_TAG

#: A posted receive: (source, tag, completion).
_PostedReceive = Tuple[int, int, Completion]

class RankContext:
    """Everything a rank's program sees: its identity, comm and clock."""

    def __init__(self, runtime: "SimMPI", rank: int, comm: Communicator) -> None:
        self.runtime = runtime
        self.rank = rank
        self.comm = comm

    @property
    def env(self) -> Environment:
        """The simulation environment."""
        return self.runtime.env

    @property
    def size(self) -> int:
        """World size."""
        return self.runtime.size

    def compute(self, seconds: float):
        """Event representing ``seconds`` of local computation.

        Yield it from the program.
        """
        return self.env.timeout(seconds)


class SimMPI:
    """The simulated MPI world.

    Parameters
    ----------
    env:
        simkit environment.
    size:
        Number of world ranks to run.
    network:
        Per-message cost model; defaults to QDR-like.
    placement:
        Mapping rank→node index; defaults to one rank per node,
        ``{rank: rank}`` (the paper's assumption 2).
    """

    def __init__(
        self,
        env: Environment,
        size: int,
        network: Optional[Network] = None,
        placement: Optional[Dict[int, int]] = None,
    ) -> None:
        if size < 1:
            raise MPIError(f"world size must be >= 1, got {size}")
        self.env = env
        self.size = size
        self.network = network or Network()
        self.placement = placement or {rank: rank for rank in range(size)}
        if not set(self.placement).issuperset(range(size)):
            raise MPIError("placement must cover every rank")
        #: Named float counters (messages, bytes, drops, kills, votes).
        self.counters: DefaultDict[str, float] = defaultdict(float)
        # Per-rank matching state: posted receives in post order, and
        # envelopes that arrived before a receive matched them, in
        # arrival order.
        self._posted: List[List[_PostedReceive]] = [[] for _ in range(size)]
        self._unexpected: List[List[Envelope]] = [[] for _ in range(size)]
        # Per-rank NIC FIFO: a rank can only push one message into the
        # network at a time (the LogP overhead/gap), which is what makes
        # the redundancy layer's r-fold fan-out cost r times the sender
        # time (Eq. 1).  Each entry is the time the rank's last posted
        # send leaves its NIC.
        self._nic_free: List[float] = [0.0] * size
        self._alive: Set[int] = set(range(size))
        self._processes: Dict[int, Process] = {}
        self._death_watchers: List[Callable[[int], None]] = []
        #: Messages between live ranks not yet arrived — the bookmark
        #: state the checkpoint coordinator waits on.  Each is a queued
        #: ``_arrive`` entry whose two ends are alive.
        self._in_flight = 0
        # The NIC busy time of an off-node copy, per wire size, and the
        # two wire latencies: the network model is fixed for a world.
        self._busy: Dict[int, float] = {}
        self._latency = self.network.wire_latency(False)
        self._loopback = self.network.wire_latency(True)

    # -- liveness ----------------------------------------------------------

    def is_alive(self, rank: int) -> bool:
        """Fail-stop liveness of a rank."""
        return rank in self._alive

    @property
    def alive_ranks(self) -> Set[int]:
        """Snapshot of the currently live ranks."""
        return set(self._alive)

    # -- traffic -----------------------------------------------------------------

    def post_send(
        self,
        src: int,
        dests: Sequence[int],
        tag: int,
        payload: Any,
        nbytes: int,
        done: Optional[Callable[[Any], None]] = None,
    ) -> None:
        """Inject one copy of a message to each of ``dests``, in order.

        ``done(None)`` runs when the last copy leaves the NIC.  A plain
        send passes one destination; the redundancy layer passes every
        replica of the destination sphere when they all get the same
        copy.  ``nbytes`` is ``message_wire_size(payload)``, from the
        caller so a fan-out sizes its payload once.  The NIC is a FIFO
        whose busy times are known at post, so each copy's exit time is
        computed here and its wire arrival queued at once, then ``done``
        after the last arrival, at absolute times: the same heap entries,
        in the same order, as one call per copy would push.  Fail-stop
        semantics: sends to dead ranks complete locally (the sender
        cannot know) but the message is dropped — here if the
        destination is already dead, at arrival if it dies later.  A
        sender killed meanwhile still drains its NIC.

        Raises
        ------
        MPIError
            When ``src`` is dead, or a destination has no placement;
            either is raised before any state changes.
        """
        alive = self._alive
        if src not in alive:
            raise MPIError(f"dead rank {src} attempted a send")
        placement = self.placement
        # Every live rank is placed, so only a dead one is looked up.
        for dst in dests:
            if dst not in alive and dst not in placement:
                raise MPIError(f"no placement for rank {dst}")
        env = self.env
        now = env._now
        free = self._nic_free[src]
        # Busy times summed from the instant the NIC last went idle,
        # exactly as a timer per send would sum them.  The off-node
        # cost is memoised per wire size; a co-located copy pays
        # loopback.
        finish = free if free > now else now
        try:
            busy = self._busy[nbytes]
        except KeyError:
            busy = self._busy[nbytes] = self.network.sender_busy_time(nbytes, False)
        latency = self._latency
        count = len(dests)
        counters = self.counters
        counters["p2p_messages"] += count
        counters["p2p_bytes"] += nbytes * count
        queue = env._queue
        arrive = self._arrive
        node = placement[src]
        # The count and the sequence are written back after the loop:
        # nothing in it reads them.
        in_flight = self._in_flight
        sequence = env._sequence
        for dst in dests:
            if placement[dst] == node:
                finish += self.network.sender_busy_time(nbytes, True)
                wire = self._loopback
            else:
                finish += busy
                wire = latency
            if dst in alive:
                in_flight += 1
                # ``env._schedule_call_at`` inline: the arrival is not
                # in the past, as ``finish >= now``.
                sequence += 1
                heappush(
                    queue,
                    (finish + wire, NORMAL, sequence, arrive,
                     tuple.__new__(Envelope, (src, dst, tag, payload, nbytes))),
                )
            else:
                counters["p2p_dropped"] += 1
        self._in_flight = in_flight
        self._nic_free[src] = finish
        if done is not None:
            sequence += 1
            heappush(queue, (finish, NORMAL, sequence, done, None))
        env._sequence = sequence

    def _arrive(self, envelope: Envelope) -> None:
        """A copy reaches its destination: complete a posted receive or queue it.

        The first posted receive whose pattern matches completes inline.
        """
        source, dest, sent_tag, _payload, _nbytes = envelope
        alive = self._alive
        if dest not in alive:
            self.counters["p2p_dropped"] += 1  # fail-stop: the rank is gone
            return
        if source in alive:
            self._in_flight -= 1
        posted = self._posted[dest]
        for index, (wanted, tag, done) in enumerate(posted):
            if (wanted == source or wanted == ANY_SOURCE) and (
                tag == sent_tag or tag == ANY_TAG
            ):
                del posted[index]
                done(envelope)
                return
        self._unexpected[dest].append(envelope)

    def post_recv(
        self, rank: int, members: Sequence[Tuple[int, int]], tag: int, done: Completion
    ) -> None:
        """Post one receive per ``(source, tag offset)`` member on ``rank``.

        A member matches ``source`` at ``tag + offset``; ``done(envelope)``
        runs once per member that matches.  A plain receive passes one
        member; a request set passes one per live sender replica.

        A member that matches an envelope already in the unexpected list
        (the oldest one it matches) takes it, and its ``done`` is queued
        for the current instant: one heap step, behind entries already
        queued for it.  A later arrival calls ``done`` inline.
        """
        if rank not in self._alive:
            raise MPIError(f"dead rank {rank} attempted a receive")
        unexpected = self._unexpected[rank]
        posted = self._posted[rank]
        for source, offset in members:
            member_tag = tag + offset
            for index, envelope in enumerate(unexpected):
                if (source == ANY_SOURCE or source == envelope.source) and (
                    member_tag == ANY_TAG or member_tag == envelope.tag
                ):
                    del unexpected[index]
                    env = self.env
                    env._schedule_call_at(env._now, done, envelope)
                    break
            else:
                posted.append((source, member_tag, done))

    def withdraw_recvs(
        self, source: int, select: Callable[[Completion], bool]
    ) -> Iterator[Completion]:
        """Withdraw the posted receives from ``source`` that ``select`` picks.

        A generator: each receive whose pattern names ``source`` and
        whose completion ``select`` accepts leaves its rank's list, and
        then its completion is yielded.  The walk goes in rank order,
        then post order, and reads each rank's list when its turn comes,
        so receives the caller's work posts meanwhile are seen.
        Wildcard receives and those ``select`` declines stay posted.
        """
        for posted in self._posted:
            index = 0
            while index < len(posted):
                wanted, _tag, done = posted[index]
                if wanted == source and select(done):
                    del posted[index]
                    yield done
                else:
                    index += 1

    def channels_quiet(self) -> bool:
        """True when every sent message has arrived (bookmarks equal).

        This is the condition the OpenMPI-style coordinated-checkpoint
        protocol waits for before processes capture their images.
        Traffic from or to dead ranks is excluded (it is dropped, or no
        longer anyone's bookmark).  Reads the running count of messages
        between live ranks that have not arrived yet.
        """
        return self._in_flight == 0

    # -- lifecycle -----------------------------------------------------------------

    def spawn(
        self,
        program: Callable[[RankContext], Any],
        ranks: Optional[Sequence[int]] = None,
    ) -> None:
        """Start ``program(ctx)`` as a process on each rank.

        ``program`` is called once per rank with that rank's context
        and must return a generator.
        """
        for rank in ranks if ranks is not None else range(self.size):
            if rank in self._processes:
                raise MPIError(f"rank {rank} already spawned")
            context = RankContext(self, rank, Communicator(self, rank))
            self._processes[rank] = self.env.process(
                program(context), name=f"rank{rank}"
            )

    def kill_rank(self, rank: int, cause: Any = None) -> None:
        """Fail-stop a rank: drop its receives and queued messages, interrupt it.

        No-op when the rank is already dead.
        """
        alive = self._alive
        if rank not in alive:
            return
        # The dead rank's channels leave the in-flight count: every
        # unarrived message is a queued ``_arrive`` entry, so subtract
        # those between the rank and a live peer.
        arrive = self._arrive
        lost = 0
        for entry in self.env._queue:
            if entry[3] == arrive:
                envelope = entry[4]
                source = envelope[0]
                dest = envelope[1]
                if (source == rank or dest == rank) and source in alive and dest in alive:
                    lost += 1
        self._in_flight -= lost
        alive.discard(rank)
        self._posted[rank].clear()
        self._unexpected[rank].clear()
        process = self._processes.get(rank)
        if process is not None:
            process.interrupt(cause)
        self.counters["ranks_killed"] += 1
        for watcher in list(self._death_watchers):
            watcher(rank)

    def on_rank_death(self, watcher: Callable[[int], None]) -> None:
        """Register a callback for rank deaths (redundancy spheres)."""
        self._death_watchers.append(watcher)

    def run(self, until: Optional[float] = None) -> None:
        """Drive the simulation until all spawned ranks finish.

        With ``until`` set, stops at that simulation time instead
        (whether or not ranks finished).
        """
        if not self._processes:
            raise MPIError("run() before spawn()")
        if until is not None:
            self.env.run(until=until)
            return
        everyone = AllOf(self.env, list(self._processes.values()))
        self.env.run(until=everyone)

    def dispose(self) -> None:
        """Drop the watchers, processes and receive lists of a finished world.

        Each can point back at the world, which would then wait for a
        cyclic garbage collection instead of being freed by refcount.
        """
        self._death_watchers.clear()
        self._processes.clear()
        self._posted.clear()
        self._unexpected.clear()

    def result_of(self, rank: int) -> Any:
        """Return value of a finished rank's program."""
        process = self._processes.get(rank)
        if process is None:
            raise MPIError(f"rank {rank} was never spawned")
        if not process.triggered:
            raise MPIError(f"rank {rank} has not finished")
        return process.value

    def process_of(self, rank: int) -> Process:
        """The simkit process running ``rank`` (for interrupt plumbing)."""
        try:
            return self._processes[rank]
        except KeyError as exc:
            raise MPIError(f"rank {rank} was never spawned") from exc
