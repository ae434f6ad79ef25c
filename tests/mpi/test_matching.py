"""Tests for the matching engine (the heart of MPI semantics)."""

import pytest

from repro.errors import MPIError
from repro.mpi import ANY_SOURCE, ANY_TAG, SimMPI
from repro.mpi.matching import Envelope, MatchingEngine


def make_envelope(source=0, dest=1, tag=0, payload=b""):
    return Envelope(source=source, dest=dest, tag=tag, payload=payload, nbytes=len(payload))


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
    def test_exact_match(self, env):
        engine = MatchingEngine(rank=1)
        inbox = Inbox()
        engine.post(env, source=0, tag=7, done=inbox)
        engine.deliver(make_envelope(source=0, tag=7, payload=b"hi"))
        assert inbox.payloads == [b"hi"]

    def test_source_mismatch_queues(self, env):
        engine = MatchingEngine(rank=1)
        inbox = Inbox()
        engine.post(env, source=0, tag=7, done=inbox)
        engine.deliver(make_envelope(source=2, tag=7))
        assert inbox.envelopes == []
        assert len(engine._unexpected) == 1

    def test_tag_mismatch_queues(self, env):
        engine = MatchingEngine(rank=1)
        inbox = Inbox()
        engine.post(env, source=0, tag=7, done=inbox)
        engine.deliver(make_envelope(source=0, tag=8))
        assert inbox.envelopes == []

    def test_wildcard_source(self, env):
        engine = MatchingEngine(rank=1)
        inbox = Inbox()
        engine.post(env, source=ANY_SOURCE, tag=7, done=inbox)
        engine.deliver(make_envelope(source=5, tag=7))
        assert inbox.envelopes[0].source == 5

    def test_wildcard_tag(self, env):
        engine = MatchingEngine(rank=1)
        inbox = Inbox()
        engine.post(env, source=0, tag=ANY_TAG, done=inbox)
        engine.deliver(make_envelope(source=0, tag=123))
        assert inbox.envelopes[0].tag == 123

    def test_posted_receives_matched_in_post_order(self, env):
        engine = MatchingEngine(rank=1)
        first, second = Inbox(), Inbox()
        engine.post(env, source=ANY_SOURCE, tag=ANY_TAG, done=first)
        engine.post(env, source=ANY_SOURCE, tag=ANY_TAG, done=second)
        engine.deliver(make_envelope(payload=b"1"))
        engine.deliver(make_envelope(payload=b"2"))
        assert first.payloads == [b"1"]
        assert second.payloads == [b"2"]


class TestDeliverThenPost:
    def test_unexpected_consumed_fifo(self, env):
        engine = MatchingEngine(rank=1)
        engine.deliver(make_envelope(payload=b"old"))
        engine.deliver(make_envelope(payload=b"new"))
        inbox = Inbox()
        engine.post(env, source=0, tag=0, done=inbox)
        env.run()
        assert inbox.payloads == [b"old"]
        assert len(engine._unexpected) == 1

    def test_skips_non_matching_unexpected(self, env):
        engine = MatchingEngine(rank=1)
        engine.deliver(make_envelope(tag=9))
        engine.deliver(make_envelope(tag=4, payload=b"mine"))
        inbox = Inbox()
        engine.post(env, source=0, tag=4, done=inbox)
        env.run()
        assert inbox.payloads == [b"mine"]

    def test_completes_at_next_step_behind_queued_entries(self, env):
        # A receive matching a message already queued is one heap step
        # at the current instant: not inline, and after what is already
        # queued for that instant.
        engine = MatchingEngine(rank=1)
        order = []
        engine.deliver(make_envelope(payload=b"early"))
        env.timeout(0.0).add_callback(lambda _event: order.append("queued first"))
        engine.post(env, source=0, tag=0, done=lambda envelope: order.append(envelope.payload))
        assert order == []
        env.step()
        assert order == ["queued first"]
        env.step()
        assert order == ["queued first", b"early"]
        assert env.now == 0.0


class TestCancel:
    def test_cancel_pending(self, env):
        engine = MatchingEngine(rank=1)
        inbox = Inbox()
        engine.post(env, source=0, tag=1, done=inbox)
        assert engine.cancel(0, inbox)
        engine.deliver(make_envelope(tag=1))
        assert inbox.envelopes == []
        assert len(engine._unexpected) == 1

    def test_cancel_unknown_returns_false(self, env):
        engine = MatchingEngine(rank=1)
        assert not engine.cancel(0, Inbox())

    def test_cancel_needs_the_posted_source(self, env):
        engine = MatchingEngine(rank=1)
        inbox = Inbox()
        engine.post(env, source=0, tag=1, done=inbox)
        assert not engine.cancel(2, inbox)
        assert len(engine._posted) == 1

    def test_cancel_withdraws_only_the_named_receive(self, env):
        engine = MatchingEngine(rank=1)
        kept, withdrawn = Inbox(), Inbox()
        engine.post(env, source=0, tag=1, done=kept)
        engine.post(env, source=0, tag=1, done=withdrawn)
        assert engine.cancel(0, withdrawn)
        engine.deliver(make_envelope(tag=1, payload=b"x"))
        assert kept.payloads == [b"x"]
        assert withdrawn.envelopes == []

    def test_cancel_recv_through_the_runtime(self, env):
        world = SimMPI(env, size=2)
        inbox = Inbox()
        world.post_recv(1, [(0, 0)], tag=3, done=inbox)
        assert world.cancel_recv(1, 0, inbox)
        assert not world.cancel_recv(1, 0, inbox)


class TestLifecycle:
    def test_closed_engine_drops_deliveries(self, env):
        engine = MatchingEngine(rank=1)
        engine.close()
        engine.deliver(make_envelope())
        assert len(engine._unexpected) == 0

    def test_closed_engine_rejects_posts(self, env):
        engine = MatchingEngine(rank=1)
        engine.close()
        with pytest.raises(MPIError):
            engine.post(env, source=0, tag=0, done=Inbox())

    def test_close_clears_state(self, env):
        engine = MatchingEngine(rank=1)
        engine.post(env, source=0, tag=0, done=Inbox())
        engine.deliver(make_envelope(tag=5))
        engine.close()
        assert len(engine._posted) == 0
        assert len(engine._unexpected) == 0
        assert engine.closed
