"""Tests for the bookmark coordinator."""

from repro.checkpoint import BookmarkCoordinator
from repro.mpi import SimMPI


class TestQuiesce:
    def test_quiet_world_returns_immediately(self, env):
        world = SimMPI(env, size=2)
        coordinator = BookmarkCoordinator(world)

        def program(ctx):
            if ctx.rank == 0:
                yield from coordinator.quiesce()
                return env.now
            yield ctx.compute(0.0)

        world.spawn(program)
        world.run()
        assert world.result_of(0) == 0.0

    def test_waits_for_in_flight_message(self, env):
        world = SimMPI(env, size=2)
        coordinator = BookmarkCoordinator(world)

        def program(ctx):
            if ctx.rank == 0:
                request = ctx.comm.isend(b"x" * 100_000, dest=1)
                yield from request.wait()
                # Sender done, but the wire may still carry the message.
                yield from coordinator.quiesce()
                assert world.channels_quiet()
                return "quiet"
            payload, _ = yield from ctx.comm.recv(source=0)
            return len(payload)

        world.spawn(program)
        world.run()
        assert world.result_of(0) == "quiet"


class TestBookmarkExchange:
    def test_exchange_runs_alltoall(self, env):
        world = SimMPI(env, size=3)
        coordinator = BookmarkCoordinator(world)

        def program(ctx):
            totals = yield from coordinator.exchange_bookmarks(ctx.comm)
            return len(totals)

        world.spawn(program)
        before = world.counters["p2p_messages"]
        world.run()
        assert all(world.result_of(r) == 3 for r in range(3))
        assert world.counters["p2p_messages"] > before
