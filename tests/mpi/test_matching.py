"""Tests for the matching engine (the heart of MPI semantics)."""

import pytest

from repro.errors import MPIError
from repro.mpi import ANY_SOURCE, ANY_TAG
from repro.mpi.matching import Envelope, MatchingEngine


def make_envelope(source=0, dest=1, tag=0, payload=b"", cid=0, seq=0):
    return Envelope(
        source=source, dest=dest, tag=tag, payload=payload, nbytes=len(payload),
        cid=cid, seq=seq,
    )


class TestPostThenDeliver:
    def test_exact_match(self, env):
        engine = MatchingEngine(rank=1)
        event = engine.post(env, source=0, tag=7)
        engine.deliver(make_envelope(source=0, tag=7, payload=b"hi"))
        env.run()
        assert event.value.payload == b"hi"

    def test_source_mismatch_queues(self, env):
        engine = MatchingEngine(rank=1)
        event = engine.post(env, source=0, tag=7)
        engine.deliver(make_envelope(source=2, tag=7))
        assert not event.triggered
        assert engine.unexpected_messages == 1

    def test_tag_mismatch_queues(self, env):
        engine = MatchingEngine(rank=1)
        event = engine.post(env, source=0, tag=7)
        engine.deliver(make_envelope(source=0, tag=8))
        assert not event.triggered

    def test_cid_separates_communicators(self, env):
        engine = MatchingEngine(rank=1)
        event = engine.post(env, source=0, tag=7, cid=1)
        engine.deliver(make_envelope(source=0, tag=7, cid=2))
        assert not event.triggered
        engine.deliver(make_envelope(source=0, tag=7, cid=1))
        assert event.triggered

    def test_wildcard_source(self, env):
        engine = MatchingEngine(rank=1)
        event = engine.post(env, source=ANY_SOURCE, tag=7)
        engine.deliver(make_envelope(source=5, tag=7))
        env.run()
        assert event.value.source == 5

    def test_wildcard_tag(self, env):
        engine = MatchingEngine(rank=1)
        event = engine.post(env, source=0, tag=ANY_TAG)
        engine.deliver(make_envelope(source=0, tag=123))
        assert event.triggered

    def test_posted_receives_matched_in_post_order(self, env):
        engine = MatchingEngine(rank=1)
        first = engine.post(env, source=ANY_SOURCE, tag=ANY_TAG)
        second = engine.post(env, source=ANY_SOURCE, tag=ANY_TAG)
        engine.deliver(make_envelope(payload=b"1"))
        engine.deliver(make_envelope(payload=b"2"))
        env.run()
        assert first.value.payload == b"1"
        assert second.value.payload == b"2"


class TestDeliverThenPost:
    def test_unexpected_consumed_fifo(self, env):
        engine = MatchingEngine(rank=1)
        engine.deliver(make_envelope(payload=b"old", seq=1))
        engine.deliver(make_envelope(payload=b"new", seq=2))
        event = engine.post(env, source=0, tag=0)
        env.run()
        assert event.value.payload == b"old"
        assert engine.unexpected_messages == 1

    def test_skips_non_matching_unexpected(self, env):
        engine = MatchingEngine(rank=1)
        engine.deliver(make_envelope(tag=9))
        engine.deliver(make_envelope(tag=4, payload=b"mine"))
        event = engine.post(env, source=0, tag=4)
        env.run()
        assert event.value.payload == b"mine"


class TestProbeAndCancel:
    def test_cancel_pending(self, env):
        engine = MatchingEngine(rank=1)
        event = engine.post(env, source=0, tag=1)
        assert engine.cancel(event)
        engine.deliver(make_envelope(tag=1))
        assert not event.triggered
        assert engine.unexpected_messages == 1

    def test_cancel_unknown_returns_false(self, env):
        engine = MatchingEngine(rank=1)
        assert not engine.cancel(env.event())


class TestLifecycle:
    def test_closed_engine_drops_deliveries(self, env):
        engine = MatchingEngine(rank=1)
        engine.close()
        engine.deliver(make_envelope())
        assert engine.unexpected_messages == 0

    def test_closed_engine_rejects_posts(self, env):
        engine = MatchingEngine(rank=1)
        engine.close()
        with pytest.raises(MPIError):
            engine.post(env, source=0, tag=0)

    def test_close_clears_state(self, env):
        engine = MatchingEngine(rank=1)
        engine.post(env, source=0, tag=0)
        engine.deliver(make_envelope(tag=5))
        engine.close()
        assert engine.pending_receives == 0
        assert engine.unexpected_messages == 0
        assert engine.closed
