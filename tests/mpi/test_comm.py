"""Tests for point-to-point communication through the Communicator."""

import pytest

from repro.errors import CommunicatorError
from repro.mpi import ANY_SOURCE, SimMPI, Status
from repro.mpi.comm import USER_TAG_LIMIT, Communicator
from repro.simkit import Environment


def run_world(size, program, **kwargs):
    env = Environment()
    world = SimMPI(env, size=size, **kwargs)
    world.spawn(program)
    world.run()
    return env, world


def record_completions(comm, order):
    """Append "send" or "recv" to ``order`` as each request ``comm`` posts completes."""
    for name in ("isend", "irecv"):

        def post(*args, _post=getattr(comm, name), _kind=name[1:], **kwargs):
            request = _post(*args, **kwargs)
            request.add_callback(lambda _event: order.append(_kind))
            return request

        setattr(comm, name, post)


class TestStatus:
    def test_status_is_a_light_immutable_record(self):
        status = Status(source=3, tag=7, nbytes=64)
        assert (status.source, status.tag, status.nbytes) == (3, 7, 64)
        assert status == Status(3, 7, 64)
        assert status != Status(3, 7, 65)
        assert hash(status) == hash(Status(3, 7, 64))
        assert len({status, Status(3, 7, 64), Status(4, 7, 64)}) == 2
        with pytest.raises(AttributeError):
            status.source = 4
        assert not hasattr(status, "__dict__")


class TestBlocking:
    def test_send_recv_payload_and_status(self):
        out = {}

        def program(ctx):
            if ctx.rank == 0:
                yield from ctx.comm.send({"k": 1}, dest=1, tag=9)
            else:
                payload, status = yield from ctx.comm.recv(source=0, tag=9)
                out["payload"] = payload
                out["status"] = (status.source, status.tag)

        run_world(2, program)
        assert out["payload"] == {"k": 1}
        assert out["status"] == (0, 9)

    def test_messages_not_overtaken_same_channel(self):
        received = []

        def program(ctx):
            if ctx.rank == 0:
                for index in range(5):
                    yield from ctx.comm.send(index, dest=1, tag=2)
            else:
                for _ in range(5):
                    payload, _ = yield from ctx.comm.recv(source=0, tag=2)
                    received.append(payload)

        run_world(2, program)
        assert received == [0, 1, 2, 3, 4]

    def test_self_send(self):
        out = {}

        def program(ctx):
            request = ctx.comm.isend("loop", dest=ctx.rank, tag=1)
            payload, _ = yield from ctx.comm.recv(source=ctx.rank, tag=1)
            yield from request.wait()
            out[ctx.rank] = payload

        run_world(1, program)
        assert out[0] == "loop"

    def test_sendrecv_no_deadlock(self):
        out = {}

        def program(ctx):
            partner = 1 - ctx.rank
            payload, _ = yield from ctx.comm.sendrecv(
                f"from{ctx.rank}", partner, source=partner
            )
            out[ctx.rank] = payload

        run_world(2, program)
        assert out == {0: "from1", 1: "from0"}

    @pytest.mark.parametrize("nbytes, last", [(8, "recv"), (128 * 1024, "send")])
    def test_sendrecv_whichever_request_finishes_last(self, nbytes, last):
        """Rank 0 sends ``nbytes`` and gets 8 bytes back.  A rendezvous
        payload (> 64 KB) keeps its NIC busy past the reply's arrival,
        so the send finishes last; at 8 bytes the receive does."""
        out = {}

        def program(ctx):
            order = []
            record_completions(ctx.comm, order)
            partner = 1 - ctx.rank
            payload = bytes(nbytes) if ctx.rank == 0 else b"8 bytes!"
            got, status = yield from ctx.comm.sendrecv(
                payload, partner, source=partner, send_tag=3, recv_tag=3
            )
            # A copy: both requests must be complete when sendrecv returns.
            out[ctx.rank] = got, status, list(order)

        run_world(2, program)
        got, status, order = out[0]
        assert sorted(order) == ["recv", "send"] and order[-1] == last
        # A status counts payload bytes, as a RedComm receive's does.
        assert got == b"8 bytes!"
        assert status == Status(source=1, tag=3, nbytes=8)
        got, status, _ = out[1]
        assert got == bytes(nbytes)
        assert status == Status(source=0, tag=3, nbytes=nbytes)

    def test_wildcard_source_reports_actual(self):
        sources = []

        def program(ctx):
            if ctx.rank == 0:
                for _ in range(2):
                    _, status = yield from ctx.comm.recv(source=ANY_SOURCE, tag=1)
                    sources.append(status.source)
            else:
                yield from ctx.comm.send(b"", dest=0, tag=1)

        run_world(3, program)
        assert sorted(sources) == [1, 2]


class TestNonBlocking:
    def test_irecv_before_send(self):
        out = {}

        def program(ctx):
            if ctx.rank == 1:
                request = ctx.comm.irecv(source=0, tag=5)
                yield from ctx.comm.send(b"unrelated", dest=0, tag=6)
                payload, _ = yield from request.wait()
                out["got"] = payload
            else:
                yield from ctx.comm.recv(source=1, tag=6)
                yield from ctx.comm.send(b"finally", dest=1, tag=5)

        run_world(2, program)
        assert out["got"] == b"finally"

    def test_waitall_returns_in_request_order(self):
        out = {}

        def program(ctx):
            if ctx.rank == 0:
                requests = [
                    ctx.comm.irecv(source=1, tag=1),
                    ctx.comm.irecv(source=1, tag=2),
                ]
                results = yield from ctx.comm.waitall(requests)
                out["values"] = [payload for payload, _ in results]
            else:
                yield from ctx.comm.send("second", dest=0, tag=2)
                yield from ctx.comm.send("first", dest=0, tag=1)

        run_world(2, program)
        assert out["values"] == ["first", "second"]


class TestValidation:
    def test_user_tag_limit(self):
        def program(ctx):
            with pytest.raises(CommunicatorError):
                ctx.comm.isend(b"", dest=0, tag=USER_TAG_LIMIT)
            yield ctx.env.timeout(0)

        run_world(1, program)

    def test_user_receive_at_collective_tags_rejected_before_any_step(self):
        env = Environment()
        comm = Communicator(SimMPI(env, size=2), 0)
        with pytest.raises(CommunicatorError):
            comm.irecv(0, tag=USER_TAG_LIMIT)
        with pytest.raises(CommunicatorError):
            next(comm.recv(0, tag=USER_TAG_LIMIT))
        assert not env._queue and env.now == 0.0

    def test_user_receive_cannot_take_collective_traffic(self):
        def program(ctx):
            if ctx.rank == 1:
                with pytest.raises(CommunicatorError):
                    ctx.comm.irecv(0, tag=USER_TAG_LIMIT)
            value = yield from ctx.comm.bcast(41.0 if ctx.rank == 0 else None)
            return value

        _, world = run_world(2, program)
        assert [world.result_of(rank) for rank in range(2)] == [41.0, 41.0]

    def test_negative_tag_rejected(self):
        def program(ctx):
            with pytest.raises(CommunicatorError):
                ctx.comm.isend(b"", dest=0, tag=-1)
            yield ctx.env.timeout(0)

        run_world(1, program)

    def test_bad_dest_rejected(self):
        def program(ctx):
            with pytest.raises(CommunicatorError):
                ctx.comm.isend(b"", dest=99)
            yield ctx.env.timeout(0)

        run_world(1, program)


class TestTiming:
    def test_communication_takes_simulated_time(self):
        env, _ = run_world(2, _pingpong_program)
        assert env.now > 0.0

    def test_larger_messages_take_longer(self):
        def make(nbytes):
            def program(ctx):
                if ctx.rank == 0:
                    yield from ctx.comm.send(b"x" * nbytes, dest=1)
                else:
                    yield from ctx.comm.recv(source=0)

            return program

        env_small, _ = run_world(2, make(10))
        env_big, _ = run_world(2, make(10**6))
        assert env_big.now > env_small.now


def _pingpong_program(ctx):
    if ctx.rank == 0:
        yield from ctx.comm.send(b"ping", dest=1)
        yield from ctx.comm.recv(source=1)
    else:
        yield from ctx.comm.recv(source=0)
        yield from ctx.comm.send(b"pong", dest=0)
