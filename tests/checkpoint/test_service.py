"""Tests for the coordinated checkpoint service and the restore it feeds."""

from collections import Counter

import pytest

from repro.checkpoint import CheckpointService, StableStorage
from repro.checkpoint import service as service_module
from repro.errors import NoCheckpointError
from repro.faults import StorageFaultConfig, StorageFaultModel
from repro.mpi import SimMPI
from repro.redundancy import RedComm, ReplicaMap, SphereTracker
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


def run_replicated(n, r, steps, faults=None, kill=None):
    """The harness above on ``RedComm``s at degree ``r``.

    ``kill``, a ``(time, physical rank)`` pair, kills that replica then.
    Returns the storage, the replica map and the killed ranks.
    """
    env = Environment()
    rmap = ReplicaMap(n, r)
    tracker = SphereTracker(rmap)
    world = SimMPI(env, size=rmap.total_physical)
    storage = StableStorage(env, faults=faults)
    service = CheckpointService(world, storage, interval=0.2, fixed_cost=0.01)

    def program(ctx):
        red = RedComm(ctx, rmap, tracker)
        workload = SyntheticWorkload(
            total_steps=steps, compute_seconds=0.05, message_bytes=256
        )
        workload.configure(red.rank, red.size)
        shell = WorkShell(ctx, red)
        for step in range(steps):
            yield from workload.step(shell, step)
            yield from service.at_step_boundary(red, workload, step)

    world.spawn(program)
    killed = set()
    if kill is not None:
        when, rank = kill

        def killer():
            yield env.timeout(when)
            world.kill_rank(rank, cause="test kill")
            killed.add(rank)

        env.process(killer())
    world.run()
    return storage, rmap, killed


class TestOneImagePerSphere:
    """The replicas of a sphere share one image per set, and each stages it."""

    @pytest.mark.parametrize(
        "r, faults, kill",
        [
            (1.5, False, None),
            (2.0, False, None),
            (3.0, False, None),
            (2.0, True, None),
            (3.0, True, None),
            # Replica 1 of virtual rank 0 dies before the first set.
            (2.0, False, (0.07, 1)),
        ],
    )
    def test_capture_once_per_virtual_rank_stage_once_per_replica(
        self, monkeypatch, r, faults, kill
    ):
        captured = Counter()
        original_capture = service_module.capture_image

        def counting_capture(state):
            captured[state["step"]] += 1
            return original_capture(state)

        monkeypatch.setattr(service_module, "capture_image", counting_capture)
        staged = Counter()
        original_stage = StableStorage.stage_untimed

        def counting_stage(self, set_id, key, image):
            staged[set_id] += 1
            return original_stage(self, set_id, key, image)

        monkeypatch.setattr(StableStorage, "stage_untimed", counting_stage)
        model = None
        draws = []
        if faults:
            # Enabled, but no write fails (a failure would re-stage).
            model = StorageFaultModel(StorageFaultConfig(corrupt_prob=0.2), seed=3)
            original_on_write = model.on_write

            def counting_on_write():
                draws.append(None)
                return original_on_write()

            model.on_write = counting_on_write

        n = 4
        storage, rmap, killed = run_replicated(n, r, 12, faults=model, kill=kill)
        live = rmap.total_physical - len(killed)
        assert storage.commits >= 2
        assert set(captured) == {int(set_id[len("step"):]) for set_id in staged}
        assert set(captured.values()) == {n}
        assert set(staged.values()) == {live}
        assert len(draws) == (sum(staged.values()) if faults else 0)
        # Every sphere restores from the one image its replicas staged.
        line, _, images = storage.restore(range(n))
        assert all(image["step"] == line.step for image in images.values())
