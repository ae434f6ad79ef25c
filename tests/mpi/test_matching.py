"""Tests for message matching in the runtime (the heart of MPI semantics).

Each test posts receives on rank 1 with ``SimMPI.post_recv`` and sends
to it with ``SimMPI.post_send``; a message is delivered when the
environment runs its arrival.
"""

import pytest

from repro.errors import MPIError
from repro.mpi import ANY_SOURCE, ANY_TAG, SimMPI
from repro.mpi.datatypes import message_wire_size


@pytest.fixture
def world(env):
    return SimMPI(env, size=6)


def post(world, source=ANY_SOURCE, tag=0, done=None):
    """Post one receive on rank 1."""
    world.post_recv(1, [(source, 0)], tag, done)


def deliver(world, source=0, tag=0, payload=b""):
    """Send one message to rank 1 and run until it has arrived."""
    world.post_send(source, (1,), tag, payload, message_wire_size(payload))
    world.env.run()


class Inbox:
    """A receive's completion callable that records what it matched."""

    def __init__(self):
        self.envelopes = []

    def __call__(self, envelope):
        self.envelopes.append(envelope)

    @property
    def payloads(self):
        return [envelope.payload for envelope in self.envelopes]


class TestPostThenDeliver:
    def test_exact_match(self, world):
        inbox = Inbox()
        post(world, source=0, tag=7, done=inbox)
        deliver(world, source=0, tag=7, payload=b"hi")
        assert inbox.payloads == [b"hi"]

    def test_source_mismatch_queues(self, world):
        inbox = Inbox()
        post(world, source=0, tag=7, done=inbox)
        deliver(world, source=2, tag=7)
        assert inbox.envelopes == []
        assert len(world._unexpected[1]) == 1

    def test_tag_mismatch_queues(self, world):
        inbox = Inbox()
        post(world, source=0, tag=7, done=inbox)
        deliver(world, source=0, tag=8)
        assert inbox.envelopes == []

    def test_wildcard_source(self, world):
        inbox = Inbox()
        post(world, source=ANY_SOURCE, tag=7, done=inbox)
        deliver(world, source=5, tag=7)
        assert inbox.envelopes[0].source == 5

    def test_wildcard_tag(self, world):
        inbox = Inbox()
        post(world, source=0, tag=ANY_TAG, done=inbox)
        deliver(world, source=0, tag=123)
        assert inbox.envelopes[0].tag == 123

    def test_posted_receives_matched_in_post_order(self, world):
        first, second = Inbox(), Inbox()
        post(world, source=ANY_SOURCE, tag=ANY_TAG, done=first)
        post(world, source=ANY_SOURCE, tag=ANY_TAG, done=second)
        deliver(world, payload=b"1")
        deliver(world, payload=b"2")
        assert first.payloads == [b"1"]
        assert second.payloads == [b"2"]


class TestDeliverThenPost:
    def test_unexpected_consumed_fifo(self, world):
        deliver(world, payload=b"old")
        deliver(world, payload=b"new")
        inbox = Inbox()
        post(world, source=0, tag=0, done=inbox)
        world.env.run()
        assert inbox.payloads == [b"old"]
        assert len(world._unexpected[1]) == 1

    def test_skips_non_matching_unexpected(self, world):
        deliver(world, tag=9)
        deliver(world, tag=4, payload=b"mine")
        inbox = Inbox()
        post(world, source=0, tag=4, done=inbox)
        world.env.run()
        assert inbox.payloads == [b"mine"]

    def test_completes_at_next_step_behind_queued_entries(self, world):
        # A receive matching a message already queued is one heap step
        # at the current instant: not inline, and after what is already
        # queued for that instant.
        env = world.env
        order = []
        deliver(world, payload=b"early")
        arrived_at = env.now
        env.timeout(0.0).add_callback(lambda _event: order.append("queued first"))
        post(world, source=0, tag=0, done=lambda envelope: order.append(envelope.payload))
        assert order == []
        env.step()
        assert order == ["queued first"]
        env.step()
        assert order == ["queued first", b"early"]
        assert env.now == arrived_at


def withdraw(world, source, done):
    """Withdraw rank 1's posted receives from ``source`` completing ``done``."""
    return list(world.withdraw_recvs(source, lambda posted: posted is done))


class TestCancel:
    def test_cancel_pending(self, world):
        inbox = Inbox()
        post(world, source=0, tag=1, done=inbox)
        assert withdraw(world, 0, inbox) == [inbox]
        deliver(world, tag=1)
        assert inbox.envelopes == []
        assert len(world._unexpected[1]) == 1

    def test_cancel_unknown_returns_false(self, world):
        assert withdraw(world, 0, Inbox()) == []

    def test_cancel_needs_the_posted_source(self, world):
        inbox = Inbox()
        post(world, source=0, tag=1, done=inbox)
        assert withdraw(world, 2, inbox) == []
        assert len(world._posted[1]) == 1

    def test_cancel_withdraws_only_the_named_receive(self, world):
        kept, withdrawn = Inbox(), Inbox()
        post(world, source=0, tag=1, done=kept)
        post(world, source=0, tag=1, done=withdrawn)
        assert withdraw(world, 0, withdrawn) == [withdrawn]
        deliver(world, tag=1, payload=b"x")
        assert kept.payloads == [b"x"]
        assert withdrawn.envelopes == []

    def test_cancel_recv_through_the_runtime(self, world):
        inbox = Inbox()
        world.post_recv(1, [(0, 0)], tag=3, done=inbox)
        assert withdraw(world, 0, inbox) == [inbox]
        assert withdraw(world, 0, inbox) == []

    def test_withdrawal_walks_ranks_then_posts_and_keeps_wildcards(self, world):
        """Every rank's receives from the source, rank order then post
        order; a wildcard receive and a declined one stay posted."""
        picked = [Inbox() for _ in range(3)]
        world.post_recv(3, [(0, 0)], 0, picked[1])
        world.post_recv(1, [(ANY_SOURCE, 0)], 0, Inbox())
        world.post_recv(1, [(0, 0)], 0, picked[0])
        declined = Inbox()
        world.post_recv(3, [(0, 0), (2, 0)], 0, declined)
        world.post_recv(3, [(0, 5)], 0, picked[2])
        withdrawn = list(world.withdraw_recvs(0, lambda done: done is not declined))
        assert withdrawn == picked
        assert [source for source, _tag, _done in world._posted[1]] == [ANY_SOURCE]
        assert [source for source, _tag, _done in world._posted[3]] == [0, 2]

    def test_withdrawal_sees_receives_posted_meanwhile(self, world):
        first, later = Inbox(), Inbox()
        world.post_recv(1, [(0, 0)], 0, first)
        seen = []
        for done in world.withdraw_recvs(0, lambda done: True):
            seen.append(done)
            if done is first:
                world.post_recv(1, [(0, 0)], 1, later)
        assert seen == [first, later]


class TestLifecycle:
    def test_closed_engine_drops_deliveries(self, world):
        # A message already on the wire when its destination dies.
        world.post_send(0, (1,), 0, b"", message_wire_size(b""))
        world.kill_rank(1)
        world.env.run()
        assert len(world._unexpected[1]) == 0
        assert world.counters["p2p_dropped"] == 1

    def test_closed_engine_rejects_posts(self, world):
        world.kill_rank(1)
        with pytest.raises(MPIError):
            post(world, source=0, tag=0, done=Inbox())

    def test_close_clears_state(self, world):
        inbox = Inbox()
        post(world, source=0, tag=0, done=inbox)
        deliver(world, tag=5)
        world.kill_rank(1)
        assert len(world._posted[1]) == 0
        assert len(world._unexpected[1]) == 0
        assert not world.is_alive(1)
        assert withdraw(world, 0, inbox) == []
