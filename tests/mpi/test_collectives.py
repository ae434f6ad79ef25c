"""Tests for collectives at many sizes (incl. non-powers of two)."""

import numpy as np
import pytest

from repro.errors import CommunicatorError
from repro.mpi import SimMPI, ops
from repro.simkit import Environment

SIZES = [1, 2, 3, 4, 5, 7, 8, 12]


def run_collective(size, program):
    env = Environment()
    world = SimMPI(env, size=size)
    world.spawn(program)
    world.run()
    return world


@pytest.mark.parametrize("size", SIZES)
class TestEachCollective:
    def test_allreduce_sum(self, size):
        def program(ctx):
            total = yield from ctx.comm.allreduce(ctx.rank + 1, ops.SUM)
            return total

        world = run_collective(size, program)
        expected = size * (size + 1) // 2
        assert all(world.result_of(r) == expected for r in range(size))

    def test_bcast_from_every_root(self, size):
        def program(ctx):
            values = []
            for root in range(ctx.size):
                value = f"root{root}" if ctx.rank == root else None
                got = yield from ctx.comm.bcast(value, root)
                values.append(got)
            return values

        world = run_collective(size, program)
        expected = [f"root{r}" for r in range(size)]
        assert all(world.result_of(r) == expected for r in range(size))

    def test_reduce_max_at_root(self, size):
        def program(ctx):
            # Any commutative callable is an op, not only repro.mpi.ops.
            result = yield from ctx.comm.reduce(ctx.rank * 10, max, root=0)
            return result

        world = run_collective(size, program)
        assert world.result_of(0) == (size - 1) * 10
        assert all(world.result_of(r) is None for r in range(1, size))

    def test_gather(self, size):
        def program(ctx):
            result = yield from ctx.comm.gather(ctx.rank**2, root=size - 1)
            return result

        world = run_collective(size, program)
        assert world.result_of(size - 1) == [r**2 for r in range(size)]

    def test_allgather(self, size):
        def program(ctx):
            result = yield from ctx.comm.allgather(chr(ord("a") + ctx.rank))
            return result

        world = run_collective(size, program)
        expected = [chr(ord("a") + r) for r in range(size)]
        assert all(world.result_of(r) == expected for r in range(size))

    def test_alltoall(self, size):
        def program(ctx):
            outbox = [ctx.rank * 100 + dest for dest in range(ctx.size)]
            result = yield from ctx.comm.alltoall(outbox)
            return result

        world = run_collective(size, program)
        for rank in range(size):
            assert world.result_of(rank) == [s * 100 + rank for s in range(size)]

    def test_barrier_synchronises(self, size):
        log = []

        def program(ctx):
            yield ctx.compute(float(ctx.rank))  # stagger arrivals
            log.append(("before", ctx.rank, ctx.env.now))
            yield from ctx.comm.barrier()
            log.append(("after", ctx.rank, ctx.env.now))

        run_collective(size, program)
        last_before = max(t for phase, _, t in log if phase == "before")
        first_after = min(t for phase, _, t in log if phase == "after")
        assert first_after >= last_before


class TestNumericsAndValidation:
    def test_allreduce_numpy_array(self):
        def program(ctx):
            local = np.full(4, float(ctx.rank))
            total = yield from ctx.comm.allreduce(local, ops.SUM)
            return total

        world = run_collective(4, program)
        assert np.array_equal(world.result_of(0), np.full(4, 6.0))

    def test_reduce_min(self):
        def program(ctx):
            result = yield from ctx.comm.reduce(-ctx.rank, min, root=0)
            return result

        world = run_collective(5, program)
        assert world.result_of(0) == -4

    def test_logical_ops(self):
        def program(ctx):
            any_true = yield from ctx.comm.allreduce(ctx.rank == 2, ops.LOR)
            none_true = yield from ctx.comm.allreduce(ctx.rank >= 10, ops.LOR)
            return any_true, none_true

        world = run_collective(4, program)
        assert world.result_of(0) == (True, False)

    def test_bad_root_rejected(self):
        def program(ctx):
            with pytest.raises(CommunicatorError):
                yield from ctx.comm.bcast("x", root=5)

        run_collective(2, program)

    def test_alltoall_wrong_length_rejected(self):
        def program(ctx):
            with pytest.raises(CommunicatorError):
                yield from ctx.comm.alltoall([1])
            yield ctx.env.timeout(0)

        run_collective(3, program)

    def test_back_to_back_collectives_do_not_cross_match(self):
        def program(ctx):
            first = yield from ctx.comm.allreduce(1, ops.SUM)
            second = yield from ctx.comm.allreduce(10, ops.SUM)
            third = yield from ctx.comm.allgather(ctx.rank)
            return first, second, third

        world = run_collective(6, program)
        assert world.result_of(3) == (6, 60, list(range(6)))
