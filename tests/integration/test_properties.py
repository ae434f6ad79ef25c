"""Property-based stress tests across subsystem boundaries."""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.mpi import SimMPI, ops
from repro.redundancy import RedComm, ReplicaMap, SphereTracker
from repro.simkit import Environment


class TestMessageConservation:
    @given(
        st.integers(min_value=2, max_value=6),
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=5),  # sender
                st.integers(min_value=0, max_value=5),  # receiver
                st.integers(min_value=0, max_value=7),  # tag
            ),
            min_size=1,
            max_size=20,
        ),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_every_sent_message_is_received_exactly_once(self, size, plan, seed):
        """Random traffic plans: matching neither loses nor duplicates."""
        plan = [(s % size, d % size, t) for s, d, t in plan]
        env = Environment()
        world = SimMPI(env, size=size)
        sends_by_rank = {}
        recvs_by_rank = {}
        for index, (sender, dest, tag) in enumerate(plan):
            sends_by_rank.setdefault(sender, []).append((dest, tag, index))
            recvs_by_rank.setdefault(dest, []).append((sender, tag))
        received = []

        def program(ctx):
            requests = []
            for sender, tag in recvs_by_rank.get(ctx.rank, []):
                requests.append(ctx.comm.irecv(source=sender, tag=tag))
            for dest, tag, index in sends_by_rank.get(ctx.rank, []):
                yield from ctx.comm.send(index, dest, tag)
            results = yield from ctx.comm.waitall(requests)
            for payload, _status in results:
                received.append(payload)

        world.spawn(program)
        world.run()
        assert sorted(received) == list(range(len(plan)))

    @given(st.integers(min_value=1, max_value=12))
    @settings(max_examples=20, deadline=None)
    def test_allreduce_equals_local_sum_any_size(self, size):
        env = Environment()
        world = SimMPI(env, size=size)

        def program(ctx):
            value = yield from ctx.comm.allreduce(ctx.rank * 3 + 1, ops.SUM)
            return value

        world.spawn(program)
        world.run()
        expected = sum(rank * 3 + 1 for rank in range(size))
        assert all(world.result_of(rank) == expected for rank in range(size))


class TestRedundancyInvariants:
    @given(
        st.integers(min_value=2, max_value=5),
        st.floats(min_value=1.0, max_value=3.0),
        st.data(),
    )
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_random_replica_kills_never_corrupt_survivors(self, n, r, data):
        """Kill random non-critical replicas mid-run: every surviving
        rank must still compute the exact collective results."""
        rmap = ReplicaMap(n, r)
        tracker = SphereTracker(rmap)
        exhausted = []
        tracker.on_sphere_exhausted(exhausted.append)
        # Choose victims that never exhaust a sphere: at most
        # (replicas - 1) per virtual rank.
        victims = []
        for virtual in range(n):
            replicas = rmap.replicas_of(virtual)
            spare = len(replicas) - 1
            if spare > 0 and data.draw(st.booleans()):
                victims.append(replicas[-1])
        env = Environment()
        world = SimMPI(env, size=rmap.total_physical)
        results = {}

        def program(ctx):
            red = RedComm(ctx, rmap, tracker)
            total = 0
            for step in range(25):
                total += yield from red.allreduce(red.rank + step, ops.SUM)
            results[ctx.rank] = total
            return total

        world.spawn(program)
        for index, victim in enumerate(victims):
            def killer(env, victim=victim, delay=1e-4 * (index + 1)):
                yield env.timeout(delay)
                world.kill_rank(victim)

            env.process(killer(env))
        world.run()
        assert exhausted == []
        values = set(results.values())
        assert len(values) == 1
        expected = sum(
            sum(range(n)) + n * step for step in range(25)
        )
        assert values == {expected}


class TestDeterminism:
    def test_full_stack_trace_reproducible(self):
        """Two identical fault-injected runs produce identical reports."""
        from repro.orchestration import JobConfig, ResilientJob
        from repro.workloads import SyntheticWorkload

        def build():
            return JobConfig(
                workload_factory=lambda: SyntheticWorkload(
                    total_steps=30, compute_seconds=0.03, message_bytes=4096
                ),
                virtual_processes=4,
                redundancy=1.5,
                node_mtbf=4.0,
                checkpoint_interval=0.3,
                checkpoint_cost=0.03,
                restart_cost=0.15,
                seed=99,
            )

        first = ResilientJob(build()).run()
        second = ResilientJob(build()).run()
        assert first.total_time == second.total_time
        assert first.failures_injected == second.failures_injected
        assert first.rollbacks == second.rollbacks
        assert first.counters == second.counters
