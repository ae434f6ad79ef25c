"""Tests for generator-based processes."""

import pytest

from repro.errors import ProcessInterrupted, SimulationError


class TestBasics:
    def test_process_returns_value(self, env, run_process):
        def body(env):
            yield env.timeout(1.0)
            return "done"

        assert run_process(env, body(env)) == "done"

    def test_yield_value_passes_through(self, env, run_process):
        def body(env):
            got = yield env.timeout(1.0, value=42)
            return got

        assert run_process(env, body(env)) == 42

    def test_processes_interleave_by_time(self, env):
        log = []

        def body(env, name, delay):
            yield env.timeout(delay)
            log.append(name)

        env.process(body(env, "late", 2.0))
        env.process(body(env, "early", 1.0))
        env.run()
        assert log == ["early", "late"]

    def test_waiting_on_another_process(self, env, run_process):
        def child(env):
            yield env.timeout(3.0)
            return "child-result"

        def parent(env):
            result = yield env.process(child(env))
            return result

        assert run_process(env, parent(env)) == "child-result"

    def test_non_generator_rejected(self, env):
        with pytest.raises(SimulationError):
            env.process(lambda: None)

    def test_yield_non_event_raises(self, env):
        def body(env):
            yield 42

        process = env.process(body(env))
        with pytest.raises(SimulationError):
            env.run()
        assert process is not None

    def test_already_processed_event_resumes_immediately(self, env, run_process):
        fired = env.timeout(0.0)
        env.run(until=1.0)  # fire it

        def body(env):
            yield fired
            return env.now

        # Resumes without advancing time further.
        assert run_process(env, body(env)) == 1.0

    def test_exception_in_waited_process_propagates(self, env):
        def child(env):
            yield env.timeout(1.0)
            raise KeyError("inner")

        def parent(env):
            yield env.process(child(env))

        env.process(parent(env))
        with pytest.raises(KeyError):
            env.run()

    def test_unobserved_crash_raises_out_of_run(self, env):
        def body(env):
            yield env.timeout(1.0)
            raise RuntimeError("unhandled")

        env.process(body(env))
        with pytest.raises(RuntimeError):
            env.run()


class TestInterrupt:
    def test_interrupt_delivers_cause(self, env):
        seen = {}

        def victim(env):
            try:
                yield env.timeout(100.0)
            except ProcessInterrupted as interrupt:
                seen["cause"] = interrupt.cause
                seen["time"] = env.now

        target = env.process(victim(env))

        def killer(env):
            yield env.timeout(2.0)
            target.interrupt("node-down")

        env.process(killer(env))
        env.run()
        assert seen == {"cause": "node-down", "time": 2.0}

    def test_interrupted_process_can_continue(self, env, run_process):
        def victim(env):
            try:
                yield env.timeout(100.0)
            except ProcessInterrupted:
                pass
            yield env.timeout(1.0)
            return "recovered"

        target = env.process(victim(env))

        def killer(env):
            yield env.timeout(1.0)
            target.interrupt()

        env.process(killer(env))
        env.run()
        assert target.value == "recovered"

    def test_uncaught_interrupt_ends_process_cleanly(self, env):
        def victim(env):
            yield env.timeout(100.0)
            return "never"

        target = env.process(victim(env))

        def killer(env):
            yield env.timeout(1.0)
            target.interrupt()

        env.process(killer(env))
        env.run()
        assert target.triggered and target.ok
        assert target.value is None

    def test_interrupting_finished_process_is_noop(self, env):
        def quick(env):
            yield env.timeout(0.5)

        target = env.process(quick(env))
        env.run()
        target.interrupt()  # must not raise

    def test_interrupted_event_still_fires_for_others(self, env):
        shared = env.timeout(5.0, value="shared")
        results = []

        def victim(env):
            try:
                yield shared
            except ProcessInterrupted:
                results.append("interrupted")

        def bystander(env):
            value = yield shared
            results.append(value)

        target = env.process(victim(env))
        env.process(bystander(env))

        def killer(env):
            yield env.timeout(1.0)
            target.interrupt()

        env.process(killer(env))
        env.run()
        assert sorted(results) == ["interrupted", "shared"]

    def test_is_alive_lifecycle(self, env):
        def body(env):
            yield env.timeout(1.0)

        process = env.process(body(env))
        assert process.is_alive
        env.run()
        assert not process.is_alive


class TestHalt:
    def test_halt_queues_nothing_and_takes_its_timer_off_the_queue(self, env):
        closed = []

        def daemon(env):
            try:
                while True:
                    yield env.timeout(1.0)
            finally:
                closed.append(env.now)

        process = env.process(daemon(env))
        env.run(until=2.5)
        assert len(env._queue) == 1  # the daemon's next timer
        process.halt()
        assert env._queue == []
        assert closed == [2.5]
        assert not process.is_alive
        assert process.value is None

    def test_a_timer_someone_else_waits_on_stays_queued(self, env):
        shared = env.timeout(1.0)
        fired = []
        shared.add_callback(lambda _event: fired.append(env.now))

        def daemon(env):
            yield shared

        process = env.process(daemon(env))
        env.step()  # start the daemon
        process.halt()
        env.run()
        assert fired == [1.0]

    def test_halt_before_start_and_after_finish(self, env):
        def body(env):
            yield env.timeout(1.0)

        unstarted = env.process(body(env))
        unstarted.halt()
        assert env._queue == []
        finished = env.process(body(env))
        env.run()
        finished.halt()
        assert finished.processed

    def test_a_waited_on_process_cannot_be_halted(self, env):
        def body(env):
            yield env.timeout(1.0)

        process = env.process(body(env))
        process.add_callback(lambda _event: None)
        with pytest.raises(SimulationError):
            process.halt()
