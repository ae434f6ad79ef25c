"""Tests for the synthetic alpha-tunable workload."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.checkpoint import capture_image, restore_image
from repro.errors import ConfigurationError
from repro.mpi import SimMPI
from repro.simkit import Environment
from repro.workloads import SyntheticWorkload, WorkShell
from repro.workloads.synthetic import PAYLOAD_MEMO_SIZE, ring_payload


def run_synthetic(size, **kwargs):
    env = Environment()
    world = SimMPI(env, size=size)

    def program(ctx):
        workload = SyntheticWorkload(**kwargs)
        workload.configure(ctx.rank, ctx.size)
        shell = WorkShell(ctx, ctx.comm)
        for step in range(workload.total_steps):
            yield from workload.step(shell, step)
        result = yield from workload.finalize(shell)
        return result

    world.spawn(program)
    world.run()
    return env, world


class TestStructure:
    def test_compute_share_dominates_for_big_compute(self):
        env, _ = run_synthetic(2, total_steps=10, compute_seconds=1.0, message_bytes=64)
        assert env.now == pytest.approx(10.0, rel=0.01)

    def test_message_size_increases_time(self):
        env_small, _ = run_synthetic(
            4, total_steps=10, compute_seconds=0.0, message_bytes=64
        )
        env_big, _ = run_synthetic(
            4, total_steps=10, compute_seconds=0.0, message_bytes=10**6
        )
        assert env_big.now > env_small.now

    def test_single_rank_skips_ring(self):
        env, world = run_synthetic(1, total_steps=5, compute_seconds=0.1)
        assert world.result_of(0)["iterations"] == 5

    def test_results_consistent_across_ranks(self):
        _, world = run_synthetic(4, total_steps=20, allreduce_every=5)
        tokens = {world.result_of(r)["token_sum"] for r in range(4)}
        assert len(tokens) == 1

    def test_deterministic(self):
        _, world_a = run_synthetic(3, total_steps=15)
        _, world_b = run_synthetic(3, total_steps=15)
        assert world_a.result_of(0) == world_b.result_of(0)


class TestCheckpointContract:
    def test_state_roundtrip(self):
        workload = SyntheticWorkload(total_steps=5)
        workload.configure(1, 3)
        workload.token = 123.0
        state = workload.state()
        clone = SyntheticWorkload(total_steps=5)
        clone.configure(1, 3)
        clone.load(state)
        assert clone.token == 123.0
        assert np.array_equal(clone.payload, workload.payload)


def configured(rank, size=4, **kwargs):
    workload = SyntheticWorkload(**kwargs)
    workload.configure(rank, size)
    return workload


class TestSharedPayload:
    def test_one_read_only_payload_per_rank(self):
        first, second = configured(2), configured(2)
        assert first.payload is second.payload
        assert not first.payload.flags.writeable
        assert configured(3).payload is not first.payload

    def test_writing_into_the_payload_raises(self):
        workload = configured(1)
        with pytest.raises(ValueError):
            workload.payload[0] = 5.0
        assert workload.payload[0] == 1.0

    def test_state_holds_the_payload_itself(self):
        workload = configured(1)
        assert workload.state()["payload"] is workload.payload

    @given(
        rank_and_size=st.integers(1, 64).flatmap(
            lambda size: st.tuples(st.integers(0, size - 1), st.just(size))
        ),
        message_bytes=st.integers(8, 4096),
    )
    def test_image_roundtrip_is_bit_identical_and_read_only(
        self, rank_and_size, message_bytes
    ):
        rank, size = rank_and_size
        workload = configured(rank, size, message_bytes=message_bytes)
        image = capture_image(workload.state())
        clone = configured(0, size, message_bytes=message_bytes)
        clone.load(restore_image(image.data, image.buffers))
        assert np.shares_memory(clone.payload, workload.payload)
        assert clone.payload.tobytes() == workload.payload.tobytes()
        assert clone.payload.dtype == np.float64
        assert not clone.payload.flags.writeable
        assert clone.token == workload.token

    def test_memo_is_bounded(self):
        assert PAYLOAD_MEMO_SIZE == 64
        assert ring_payload.cache_info().maxsize == PAYLOAD_MEMO_SIZE
        for rank in range(2 * PAYLOAD_MEMO_SIZE):
            configured(rank, 2 * PAYLOAD_MEMO_SIZE, message_bytes=64)
        assert ring_payload.cache_info().currsize == PAYLOAD_MEMO_SIZE


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"total_steps": 0},
            {"compute_seconds": -1.0},
            {"message_bytes": 4},
            {"allreduce_every": 0},
        ],
    )
    def test_bad_parameters(self, kwargs):
        with pytest.raises(ConfigurationError):
            SyntheticWorkload(**kwargs)

    def test_step_before_configure(self):
        with pytest.raises(ConfigurationError):
            next(SyntheticWorkload().step(None, 0))
