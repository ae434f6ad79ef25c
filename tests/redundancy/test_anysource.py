"""Focused tests for the ANY_SOURCE envelope-forwarding protocol."""

import pytest

from repro.errors import RedundancyError
from repro.mpi import ANY_SOURCE, SimMPI
from repro.orchestration import JobConfig, ResilientJob
from repro.redundancy import RedComm, ReplicaMap, SphereTracker
from repro.redundancy.anysource import CONTROL_TAG_BASE, anysource_recv
from repro.simkit import Environment
from repro.workloads import Workload

TASK_TAG = 31
RESULT_TAG = 32


class MasterWorker(Workload):
    """Rank 0 hands each worker a task per step and takes the results
    back with wildcard receives, whoever finishes first: the master/
    worker pattern the Section 3 protocol exists for.

    Tasks take uneven time, so results arrive out of rank order.  The
    answer weights each result by the source its status reports, so it
    is independent of arrival order but not of who sent what.
    """

    def __init__(self, steps=12):
        self.steps = steps

    def configure(self, rank, size):
        self.rank = rank
        self.size = size
        self.total = 0

    @property
    def total_steps(self):
        return self.steps

    def step(self, shell, index):
        comm = shell.comm
        if self.rank != 0:
            task, _status = yield from comm.recv(source=0, tag=TASK_TAG)
            yield shell.compute(0.01 * (1 + (task * 7) % 5))
            yield from comm.send(task * task, 0, RESULT_TAG)
            return
        for worker in range(1, self.size):
            yield from comm.send(index * self.size + worker, worker, TASK_TAG)
        for _ in range(1, self.size):
            result, status = yield from comm.recv(source=ANY_SOURCE, tag=RESULT_TAG)
            self.total += status.source * result

    def finalize(self, shell):
        total = yield from shell.comm.bcast(self.total, root=0)
        return total

    def state(self):
        return {"total": self.total}

    def load(self, state):
        self.total = state["total"]


def run_world(n, r, body, kill_plan=()):
    env = Environment()
    rmap = ReplicaMap(n, r)
    tracker = SphereTracker(rmap)
    exhausted = []
    tracker.on_sphere_exhausted(exhausted.append)
    world = SimMPI(env, size=rmap.total_physical)
    results = {}

    def program(ctx):
        red = RedComm(ctx, rmap, tracker)
        value = yield from body(red)
        results[ctx.rank] = value
        return value

    world.spawn(program)
    for delay, rank in kill_plan:
        def killer(env, delay=delay, rank=rank):
            yield env.timeout(delay)
            world.kill_rank(rank)

        env.process(killer(env))
    world.run()
    return world, rmap, exhausted, results


class TestProtocol:
    def test_payload_and_virtual_source(self):
        def body(red):
            if red.rank == 0:
                payload, status = yield from red.recv(source=ANY_SOURCE, tag=3)
                return payload, status.source
            if red.rank == 2:
                yield from red.send("from-two", 0, tag=3)
            return None

        _, rmap, _, results = run_world(3, 2.0, body)
        for physical in rmap.replicas_of(0):
            assert results[physical] == ("from-two", 2)

    def test_interleaved_wildcards_and_specific_recvs(self):
        def body(red):
            if red.rank == 0:
                wild, wild_status = yield from red.recv(source=ANY_SOURCE, tag=1)
                specific, _ = yield from red.recv(source=1, tag=2)
                return wild_status.source, specific
            if red.rank == 1:
                yield from red.send("wild", 0, tag=1)
                yield from red.send("specific", 0, tag=2)
            return None

        _, rmap, _, results = run_world(2, 2.0, body)
        for physical in rmap.replicas_of(0):
            assert results[physical] == (1, "specific")

    def test_sequential_wildcards_consume_distinct_messages(self):
        def body(red):
            if red.rank == 0:
                sources = []
                for _ in range(red.size - 1):
                    _, status = yield from red.recv(source=ANY_SOURCE, tag=5)
                    sources.append(status.source)
                return sorted(sources)
            yield from red.send(red.rank, 0, tag=5)
            return None

        _, rmap, _, results = run_world(4, 2.0, body)
        for physical in rmap.replicas_of(0):
            assert results[physical] == [1, 2, 3]

    def test_works_from_unreplicated_receiver(self):
        # Partial redundancy: the receiver has one replica (trivial
        # protocol), senders have two.
        def body(red):
            if red.rank == 1:  # odd rank: unreplicated under 1.5x
                payload, status = yield from red.recv(source=ANY_SOURCE, tag=4)
                return payload, status.source
            if red.rank == 0:
                yield from red.send("dup", 1, tag=4)
            return None

        _, rmap, _, results = run_world(4, 1.5, body)
        assert rmap.replicas_of(1) == [1]
        assert results[1] == ("dup", 0)

    def test_lead_failover_before_call(self):
        # Kill virtual 0's primary *before* the wildcard call: the
        # shadow becomes the lead and runs the protocol alone.
        def body(red):
            if red.rank == 0:
                yield red.env.timeout(0.01)  # after the kill
                payload, status = yield from red.recv(source=ANY_SOURCE, tag=6)
                return payload, status.source
            if red.rank == 1:
                yield red.env.timeout(0.02)
                yield from red.send("late", 0, tag=6)
            return None

        _, rmap, exhausted, results = run_world(
            2, 2.0, body, kill_plan=[(0.001, 0)]  # primary of virtual 0
        )
        shadow = rmap.replicas_of(0)[1]
        assert results[shadow] == ("late", 1)
        assert exhausted == []

    def test_tag_range_validation(self):
        def body(red):
            with pytest.raises(RedundancyError):
                yield from anysource_recv(red, CONTROL_TAG_BASE)

        run_world(2, 2.0, body)

    def test_wildcard_counter(self):
        def body(red):
            if red.rank == 0:
                yield from red.recv(source=ANY_SOURCE, tag=7)
            else:
                yield from red.send(1, 0, tag=7)
            return None

        world, rmap, _, _ = run_world(2, 2.0, body)
        # Each physical replica of virtual 0 counts one wildcard recv.
        assert world.counters["wildcard_recvs"] == len(rmap.replicas_of(0))


class TestUnderTheFullStack:
    def plain_total(self):
        report = ResilientJob(
            JobConfig(workload_factory=MasterWorker, virtual_processes=4,
                      checkpointing=False)
        ).run()
        return report.result

    def test_redundant_run_matches_plain(self):
        redundant = ResilientJob(
            JobConfig(workload_factory=MasterWorker, virtual_processes=4,
                      redundancy=2.0, checkpointing=False)
        ).run()
        assert redundant.counters["wildcard_recvs"] > 0
        assert redundant.result == self.plain_total()

    def test_survives_failures_with_rollbacks(self):
        config = dict(
            workload_factory=MasterWorker,
            virtual_processes=4,
            redundancy=1.5,  # the master's sphere has two replicas
            checkpoint_interval=0.2,
            checkpoint_cost=0.02,
            restart_cost=0.1,
            seed=23,
        )
        clean = ResilientJob(JobConfig(**config)).run()
        faulty = ResilientJob(JobConfig(node_mtbf=1.0, **config)).run()
        assert clean.failures_injected == 0
        assert faulty.completed
        assert faulty.failures_injected > 0
        assert faulty.rollbacks > 0
        assert faulty.result == clean.result == self.plain_total()
