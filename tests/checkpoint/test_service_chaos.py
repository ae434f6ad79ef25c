"""Tests for checkpoint retry/skip under injected write failures."""

import pytest

from repro.checkpoint import CheckpointService, StableStorage
from repro.checkpoint import service as service_module
from repro.checkpoint.service import RETRY_BACKOFF
from repro.checkpoint.storage import RECOVERY_LINES
from repro.mpi import SimMPI
from repro.simkit import Environment
from repro.workloads import SyntheticWorkload, WorkShell

from .test_storage_chaos import ScriptedFaults, WriteVerdict


def run_chaos_service(size, steps, faults=None, compute_seconds=0.05):
    """The test_service harness, with an optional fault model attached."""
    env = Environment()
    world = SimMPI(env, size=size)
    storage = StableStorage(env, faults=faults)
    service = CheckpointService(world, storage, interval=0.2, fixed_cost=0.01)

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
    return env, storage, service


def failing_writes(count):
    """A script that fails the first ``count`` writes, then succeeds."""
    return [WriteVerdict(fail=True)] * count


class TestRetrySuccess:
    def test_transient_failure_retried_and_committed(self):
        # One rank's first persist fails once; its retry succeeds.
        faults = ScriptedFaults(writes=failing_writes(1))
        env, storage, service = run_chaos_service(2, 20, faults)
        assert service.checkpoint_write_failures == 1
        assert service.checkpoint_retries == 1
        assert service.checkpoints_skipped == 0
        assert storage.commits >= 3
        # The retry delays the job by one more fixed cost plus the first
        # backoff (to within the interleaving of the ranks' messages).
        plain_env, *_ = run_chaos_service(2, 20)
        assert env.now - plain_env.now == pytest.approx(0.01 + RETRY_BACKOFF, abs=5e-4)


class TestRetryExhaustion:
    def test_exhausted_rank_skips_the_interval(self, monkeypatch):
        monkeypatch.setattr(service_module, "WRITE_RETRIES", 1)
        # Both ranks exhaust every attempt of the first interval:
        # 2 ranks x (1 + WRITE_RETRIES) attempts = 4 scripted failures.
        faults = ScriptedFaults(writes=failing_writes(4))
        env, storage, service = run_chaos_service(2, 20, faults)
        assert service.checkpoints_skipped == 1
        assert service.checkpoint_write_failures == 4
        # Later intervals checkpoint normally; the job degrades gracefully.
        assert storage.commits >= 1
        # The abandoned set never became a recovery line.
        lines = storage.recovery_lines()
        assert len(lines) == min(storage.commits, RECOVERY_LINES)
        assert "step1" not in {line.set_id for line in lines}

    def test_single_exhausted_rank_condemns_the_set(self, monkeypatch):
        monkeypatch.setattr(service_module, "WRITE_RETRIES", 0)
        # Only one rank fails (once, with zero retries allowed) — the
        # collective verdict must still abandon the whole set.
        faults = ScriptedFaults(writes=failing_writes(1))
        _, storage, service = run_chaos_service(2, 20, faults)
        assert service.checkpoints_skipped == 1
        assert service.checkpoint_retries == 0
        assert storage.commits >= 1


class TestFaultFreeNoOp:
    def test_zero_prob_model_keeps_timeline_identical(self):
        """The acceptance criterion at the service level: an attached but
        all-zero fault model must not change the simulated clock at all."""
        from repro.faults import StorageFaultConfig, StorageFaultModel

        plain_env, plain_storage, plain_service = run_chaos_service(
            2, 20, faults=None
        )
        chaos_env, chaos_storage, chaos_service = run_chaos_service(
            2, 20, faults=StorageFaultModel(StorageFaultConfig())
        )
        assert chaos_env.now == plain_env.now
        assert chaos_storage.commits == plain_storage.commits
        assert (
            chaos_service.checkpoint_union_time == plain_service.checkpoint_union_time
        )
