"""Tests for the coordinated checkpoint service and the restore it feeds."""

import pytest

from repro.checkpoint import CheckpointService, StableStorage
from repro.errors import NoCheckpointError
from repro.mpi import SimMPI
from repro.simkit import Environment
from repro.workloads import SyntheticWorkload, WorkShell


def run_with_service(size, steps, compute_seconds=0.05, **service_kwargs):
    """Run a synthetic workload under a service built from ``service_kwargs``."""
    env = Environment()
    world = SimMPI(env, size=size)
    storage = StableStorage(env)
    service = CheckpointService(world, storage, **service_kwargs)

    def program(ctx):
        workload = SyntheticWorkload(
            total_steps=steps, compute_seconds=compute_seconds, message_bytes=256
        )
        workload.configure(ctx.rank, ctx.size)
        shell = WorkShell(ctx, ctx.comm)
        for step in range(steps):
            yield from workload.step(shell, step)
            yield from service.at_step_boundary(ctx.comm, workload, step)

    world.spawn(program)
    world.run()
    return env, world, storage, service


class TestConfig:
    # JobConfig is the one validation point for interval and cost
    # (tests/orchestration/test_job.py); the service only requires them.
    def test_fixed_cost_required(self, env):
        with pytest.raises(TypeError):
            CheckpointService(SimMPI(env, size=1), StableStorage(env), interval=1.0)


class TestCheckpointPath:
    def test_commits_at_interval(self):
        _, _, storage, _ = run_with_service(2, 20, interval=0.2, fixed_cost=0.01)
        assert storage.commits >= 3

    def test_fixed_cost_charged(self):
        env_cheap, *_ = run_with_service(2, 20, interval=0.2, fixed_cost=0.0)
        env_costly, *_ = run_with_service(2, 20, interval=0.2, fixed_cost=0.5)
        assert env_costly.now > env_cheap.now

    def test_recovery_line_matches_states(self):
        _, _, storage, _ = run_with_service(2, 20, interval=0.2, fixed_cost=0.0)
        line, depth, images = storage.restore([0, 1])
        assert (line, depth) == (storage.line, 1)
        assert 0 < line.step <= 20
        for rank in (0, 1):
            assert images[rank]["step"] == line.step

    def test_no_checkpoint_before_interval(self):
        _, _, storage, _ = run_with_service(2, 5, interval=1e9, fixed_cost=0.0)
        assert storage.commits == 0
        assert storage.line is None
        with pytest.raises(NoCheckpointError):
            storage.restore([0, 1])

    def test_bookmark_exchange_adds_traffic(self):
        _, world_plain, *_ = run_with_service(3, 10, interval=0.2, fixed_cost=0.0)
        _, world_marked, *_ = run_with_service(
            3, 10, interval=0.2, fixed_cost=0.0, bookmark_exchange=True
        )
        assert (
            world_marked.counters["p2p_messages"]
            > world_plain.counters["p2p_messages"]
        )
