"""Tests for the simulation environment / scheduler."""

import pytest

from repro.errors import SimulationDeadlock, SimulationError
from repro.simkit import Environment
from repro.simkit.env import URGENT


class TestClock:
    def test_starts_at_zero(self):
        assert Environment().now == 0.0

    def test_custom_initial_time(self):
        assert Environment(initial_time=10.0).now == 10.0

    def test_run_to_horizon_advances_clock(self, env):
        env.run(until=7.0)
        assert env.now == 7.0

    def test_cannot_run_to_past(self, env):
        env.run(until=5.0)
        with pytest.raises(SimulationError):
            env.run(until=1.0)


class TestScheduling:
    def test_fifo_for_simultaneous_events(self, env):
        order = []
        for tag in ("first", "second", "third"):
            event = env.timeout(1.0, value=tag)
            event.add_callback(lambda e: order.append(e.value))
        env.run()
        assert order == ["first", "second", "third"]

    def test_step_processes_single_event(self, env):
        env.timeout(1.0)
        env.timeout(2.0)
        env.step()
        assert env.now == 1.0

    def test_step_on_empty_queue_raises(self, env):
        with pytest.raises(SimulationDeadlock):
            env.step()

    def test_negative_delay_rejected(self, env):
        event = env.event()
        with pytest.raises(SimulationError):
            env._schedule(event, delay=-1.0)


class TestBareEntries:
    def test_bare_entries_and_events_interleave_by_time_priority_insertion(self, env):
        order = []

        def record(label):
            order.append((env.now, label))

        def on_event(event):
            record(event.value)

        env.timeout(2.0, value="event@2").add_callback(on_event)
        env._schedule_call_at(1.0, record, "bare@1")
        env._schedule_call_at(2.0, record, "bare@2")
        env.timeout(1.0, value="event@1").add_callback(on_event)
        env.timeout(0.0, value="event@0").add_callback(on_event)
        env._schedule_call_at(0.0, record, "bare@0")
        urgent = env.event()
        urgent.add_callback(lambda _event: record("urgent@1"))
        env._schedule(urgent, 1.0, priority=URGENT)
        env.run()
        assert order == [
            (0.0, "event@0"),
            (0.0, "bare@0"),
            (1.0, "urgent@1"),
            (1.0, "bare@1"),
            (1.0, "event@1"),
            (2.0, "event@2"),
            (2.0, "bare@2"),
        ]

    def test_a_bare_entry_is_one_step(self, env):
        calls = []
        env._schedule_call_at(3.0, calls.append, "ran")
        assert env._queue[0][0] == 3.0
        env.step()
        assert calls == ["ran"] and env.now == 3.0
        with pytest.raises(SimulationDeadlock):
            env.step()

    def test_bare_entry_rejects_negative_delay(self, env):
        with pytest.raises(SimulationError):
            env._schedule_call_at(-1.0, print, None)

    def test_run_until_horizon_processes_bare_entries_up_to_it(self, env):
        calls = []
        env._schedule_call_at(1.0, calls.append, 1)
        env._schedule_call_at(5.0, calls.append, 5)
        env.run(until=2.0)
        assert calls == [1] and env.now == 2.0
        env.run()
        assert calls == [1, 5]


class TestRunUntilEvent:
    def test_returns_event_value(self, env):
        target = env.timeout(2.0, value=99)
        assert env.run(until=target) == 99

    def test_raises_event_failure(self, env):
        target = env.event().fail(ValueError("bad"))
        with pytest.raises(ValueError):
            env.run(until=target)

    def test_deadlock_detected(self, env):
        pending = env.event()  # never triggered
        with pytest.raises(SimulationDeadlock):
            env.run(until=pending)

    def test_events_after_target_stay_queued(self, env):
        target = env.timeout(1.0)
        later = env.timeout(10.0)
        env.run(until=target)
        assert env.now == 1.0
        assert not later.processed


class TestDeterminism:
    def test_identical_runs_identical_traces(self):
        def trace():
            env = Environment()
            log = []

            def worker(env, name):
                for _ in range(3):
                    yield env.timeout(1.0)
                    log.append((env.now, name))

            for name in ("a", "b", "c"):
                env.process(worker(env, name))
            env.run()
            return log

        assert trace() == trace()
