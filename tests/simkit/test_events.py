"""Tests for simkit event primitives."""

import pytest

from repro.errors import SimulationError
from repro.simkit import AllOf, AnyOf, Environment, Timeout


class TestEvent:
    def test_initial_state(self, env):
        event = env.event()
        assert not event.triggered
        assert not event.processed

    def test_succeed_schedules(self, env):
        event = env.event().succeed("payload")
        assert event.triggered
        assert not event.processed
        env.run()
        assert event.processed
        assert event.value == "payload"

    def test_value_before_trigger_raises(self, env):
        with pytest.raises(SimulationError):
            env.event().value

    def test_double_succeed_raises(self, env):
        event = env.event().succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_fail_requires_exception(self, env):
        with pytest.raises(SimulationError):
            env.event().fail("not an exception")

    def test_fail_carries_exception(self, env):
        boom = RuntimeError("boom")
        event = env.event().fail(boom)
        env.run()
        assert not event.ok
        assert event.value is boom

    def test_delayed_succeed(self, env):
        event = env.event().succeed(delay=5.0)
        env.run()
        assert env.now == 5.0

    def test_callback_ordering(self, env):
        order = []
        event = env.event()
        event.add_callback(lambda _e: order.append(1))
        event.add_callback(lambda _e: order.append(2))
        event.succeed()
        env.run()
        assert order == [1, 2]

    def test_callback_on_processed_runs_immediately(self, env):
        event = env.event().succeed()
        env.run()
        seen = []
        event.add_callback(lambda e: seen.append(e.value))
        assert seen == [None]

    def test_discard_callback(self, env):
        seen = []
        event = env.event()
        callback = lambda _e: seen.append(1)  # noqa: E731
        event.add_callback(callback)
        event.discard_callback(callback)
        event.succeed()
        env.run()
        assert seen == []


class TestSucceedInline:
    def test_runs_callbacks_once_and_immediately(self, env):
        seen = []
        event = env.event()
        event.add_callback(lambda e: seen.append(("first", e.value, env.now)))
        event.add_callback(lambda e: seen.append(("second", e.value, env.now)))
        env.run(until=4.0)
        assert event.succeed_inline("v") is event
        assert seen == [("first", "v", 4.0), ("second", "v", 4.0)]
        assert event.triggered and event.processed and event.ok
        assert event.value == "v"
        env.run()
        assert len(seen) == 2

    def test_leaves_nothing_queued(self, env):
        env.event().succeed_inline()
        assert not env._queue

    def test_late_callback_runs_at_once(self, env):
        event = env.event().succeed_inline(3)
        seen = []
        event.add_callback(lambda e: seen.append(e.value))
        assert seen == [3]

    @pytest.mark.parametrize("first", ["succeed", "succeed_inline", "fail"])
    @pytest.mark.parametrize("second", ["succeed", "succeed_inline", "fail"])
    def test_second_trigger_raises(self, env, first, second):
        def trigger(event, how):
            if how == "fail":
                event.fail(ValueError("x"))
            else:
                getattr(event, how)()

        event = env.event()
        trigger(event, first)
        with pytest.raises(SimulationError):
            trigger(event, second)

    def test_resumes_a_waiting_process_inline(self, env):
        gate = env.event()
        log = []

        def waiter():
            value = yield gate
            log.append((value, env.now))
            yield env.timeout(1.0)
            log.append(("after", env.now))

        process = env.process(waiter())
        env.run(until=2.0)
        assert log == []
        gate.succeed_inline("go")
        assert log == [("go", 2.0)]
        env.run()
        assert log == [("go", 2.0), ("after", 3.0)]
        assert process.processed


class TestTimeout:
    def test_fires_at_delay(self, env):
        Timeout(env, 2.5)
        env.run()
        assert env.now == 2.5

    def test_carries_value(self, env):
        timeout = env.timeout(1.0, value="tick")
        env.run()
        assert timeout.value == "tick"

    def test_rejects_negative_delay(self, env):
        with pytest.raises(SimulationError):
            env.timeout(-1.0)

    def test_zero_delay_ok(self, env):
        timeout = env.timeout(0.0)
        env.run()
        assert timeout.processed


class TestConditions:
    def test_allof_value_order(self, env):
        a = env.timeout(2.0, value="a")
        b = env.timeout(1.0, value="b")
        both = AllOf(env, [a, b])
        env.run()
        assert both.value == ["a", "b"]  # declaration order, not fire order

    def test_allof_empty_fires_immediately(self, env):
        both = AllOf(env, [])
        env.run()
        assert both.processed and both.value == []

    def test_allof_fails_on_child_failure(self, env):
        good = env.timeout(1.0)
        bad = env.event().fail(ValueError("x"))
        both = AllOf(env, [good, bad])
        env.run()
        assert not both.ok
        assert isinstance(both.value, ValueError)

    def test_anyof_first_wins(self, env):
        slow = env.timeout(5.0, value="slow")
        fast = env.timeout(1.0, value="fast")
        either = AnyOf(env, [slow, fast])
        env.run()
        assert either.value == (1, "fast")
        assert env.now == 5.0  # other event still fires

    def test_anyof_failure_propagates(self, env):
        bad = env.event().fail(RuntimeError("no"))
        either = AnyOf(env, [env.timeout(9.0), bad])
        env.run()
        assert not either.ok

    def test_mixed_environment_rejected(self, env):
        other = Environment()
        with pytest.raises(SimulationError):
            AllOf(env, [env.timeout(1), other.timeout(1)])

    def test_allof_with_already_processed_first_child(self, env):
        # Regression: an already-processed first child must not complete
        # the condition before the remaining children are counted.
        done = env.timeout(0.0, value="done")
        env.run(until=0.5)
        pending = env.timeout(1.0, value="late")
        both = AllOf(env, [done, pending])
        assert not both.triggered
        env.run()
        assert both.value == ["done", "late"]

    def test_allof_with_all_children_processed(self, env):
        first = env.timeout(0.0, value=1)
        second = env.timeout(0.0, value=2)
        env.run(until=0.5)
        both = AllOf(env, [first, second])
        env.run()
        assert both.value == [1, 2]

    def test_anyof_with_already_processed_child(self, env):
        done = env.timeout(0.0, value="x")
        env.run(until=0.5)
        either = AnyOf(env, [done, env.timeout(10.0)])
        env.run()
        assert either.value == (0, "x")

    @pytest.mark.parametrize("already_processed", [False, True])
    def test_decided_conditions_let_go_of_pending_children(self, env, already_processed):
        """No pending child keeps a decided condition alive."""
        first = env.timeout(0.0)
        if already_processed:
            env.run(until=0.5)
        never = env.event()
        either = AnyOf(env, [first, never])
        doomed = AllOf(env, [never, env.event().fail(ValueError("x"))])
        env.run()
        assert either.ok and not doomed.ok
        assert never.callbacks == []
