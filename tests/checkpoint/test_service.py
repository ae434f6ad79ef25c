"""Tests for the coordinated checkpoint service and restart manager."""

import pytest

from repro.checkpoint import (
    CheckpointConfig,
    CheckpointService,
    RestartManager,
    StableStorage,
)
from repro.errors import ConfigurationError, NoCheckpointError
from repro.mpi import SimMPI
from repro.simkit import Environment
from repro.workloads import SyntheticWorkload, WorkShell


def run_with_service(size, steps, config, compute_seconds=0.05):
    env = Environment()
    world = SimMPI(env, size=size)
    storage = StableStorage(env)
    manager = RestartManager(storage)
    service = CheckpointService(world, storage, manager, config)
    states = {}

    def program(ctx):
        workload = SyntheticWorkload(
            total_steps=steps, compute_seconds=compute_seconds, message_bytes=256
        )
        import numpy as np

        workload.configure(ctx.rank, ctx.size, np.random.default_rng(0))
        shell = WorkShell(ctx, ctx.comm)
        for step in range(steps):
            yield from workload.step(shell, step)
            yield from service.at_step_boundary(ctx.comm, workload, step)
        states[ctx.rank] = workload.state()

    world.spawn(program)
    world.run()
    return env, world, storage, manager, service, states


class TestConfig:
    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ConfigurationError):
            CheckpointConfig(interval=0.0, fixed_cost=0.0)

    def test_rejects_negative_fixed_cost(self):
        with pytest.raises(ConfigurationError):
            CheckpointConfig(interval=1.0, fixed_cost=-1.0)

    @pytest.mark.parametrize("cost", [float("nan"), None])
    def test_rejects_nan_or_missing_fixed_cost(self, cost):
        with pytest.raises(ConfigurationError):
            CheckpointConfig(interval=1.0, fixed_cost=cost)

    def test_fixed_cost_required(self):
        with pytest.raises(TypeError):
            CheckpointConfig(interval=1.0)


class TestCheckpointPath:
    def test_checkpoints_taken_at_interval(self):
        config = CheckpointConfig(interval=0.2, fixed_cost=0.01)
        env, _, _, manager, service, _ = run_with_service(2, 20, config)
        assert manager.commits >= 3
        assert service.checkpoints_taken == manager.commits

    def test_fixed_cost_charged(self):
        cheap = CheckpointConfig(interval=0.2, fixed_cost=0.0)
        costly = CheckpointConfig(interval=0.2, fixed_cost=0.5)
        env_cheap, *_ = run_with_service(2, 20, cheap)
        env_costly, *_ = run_with_service(2, 20, costly)
        assert env_costly.now > env_cheap.now

    def test_recovery_line_matches_states(self):
        config = CheckpointConfig(interval=0.2, fixed_cost=0.0)
        _, _, _, manager, _, final_states = run_with_service(2, 20, config)
        line = manager.line
        assert 0 < line.step <= 20
        _, images = manager.restore_states([0, 1])
        for rank in (0, 1):
            assert images[rank]["step"] == line.step

    def test_no_checkpoint_before_interval(self):
        config = CheckpointConfig(interval=1e9, fixed_cost=0.0)
        _, _, _, manager, _, _ = run_with_service(2, 5, config)
        assert manager.commits == 0
        assert not manager.has_checkpoint
        with pytest.raises(NoCheckpointError):
            manager.line

    def test_bookmark_exchange_adds_traffic(self):
        plain = CheckpointConfig(interval=0.2, fixed_cost=0.0)
        with_bookmarks = CheckpointConfig(
            interval=0.2, fixed_cost=0.0, bookmark_exchange=True
        )
        _, world_plain, *_ = run_with_service(3, 10, plain)
        _, world_marked, *_ = run_with_service(3, 10, with_bookmarks)
        assert (
            world_marked.counters["p2p_messages"]
            > world_plain.counters["p2p_messages"]
        )


class TestRestartManager:
    def test_rollback_counter(self, env):
        manager = RestartManager(StableStorage(env))
        manager.note_rollback()
        manager.note_rollback()
        assert manager.rollbacks == 2
