"""Tests for the Poisson failure injector."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.faults import Exponential, FailureInjector
from repro.obs import Tracer
from repro.simkit import Environment


def make_injector(env, slots=4, mtbf=1.0, kill=None, **kwargs):
    return FailureInjector(
        env,
        slots=slots,
        distribution=Exponential(mtbf),
        rng=np.random.default_rng(3),
        kill=kill or (lambda slot: None),
        **kwargs,
    )


class TestRates:
    def test_failure_rate_matches_mtbf(self, env):
        kills = []
        injector = make_injector(env, slots=10, mtbf=5.0, kill=kills.append)
        injector.start()
        env.run(until=1000.0)
        expected = 10 * 1000.0 / 5.0
        assert len(kills) == pytest.approx(expected, rel=0.1)

    def test_all_slots_fail_eventually(self, env):
        kills = []
        injector = make_injector(env, slots=5, mtbf=1.0, kill=kills.append)
        injector.start()
        env.run(until=100.0)
        assert set(kills) == {0, 1, 2, 3, 4}

    def test_deterministic_given_seed(self):
        def trace():
            env = Environment()
            kills = []
            injector = make_injector(env, kill=lambda s: kills.append((env.now, s)))
            injector.start()
            env.run(until=10.0)
            return kills

        assert trace() == trace()

    def test_records_match_kills(self, env):
        kills = []
        tracer = Tracer()
        injector = make_injector(env, kill=kills.append, tracer=tracer)
        injector.start()
        env.run(until=20.0)
        injected = [
            (record["t"], record["slot"])
            for record in tracer.records
            if record["name"] == "failure_injected"
        ]
        assert kills
        assert [slot for _, slot in injected] == kills
        times = [time for time, _ in injected]
        assert times == sorted(times)


def suppressed(tracer):
    """Failures the injector dropped inside a C/R window."""
    return sum(record["name"] == "failure_suppressed" for record in tracer.records)


class TestSuppression:
    def test_cr_window_drops_failures(self, env):
        window = {"open": False}
        kills = []
        tracer = Tracer()
        injector = make_injector(
            env, slots=8, mtbf=0.5, kill=kills.append,
            cr_active=lambda: window["open"], suppress_during_cr=True,
            tracer=tracer,
        )
        injector.start()
        env.run(until=10.0)
        before = len(kills)
        window["open"] = True
        env.run(until=20.0)
        during = len(kills) - before
        assert during == 0
        assert suppressed(tracer) > 0
        window["open"] = False
        env.run(until=30.0)
        assert len(kills) > before  # failures resume

    def test_suppression_disabled_kills_anyway(self, env):
        kills = []
        tracer = Tracer()
        injector = make_injector(
            env, slots=8, mtbf=0.5, kill=kills.append,
            cr_active=lambda: True, suppress_during_cr=False, tracer=tracer,
        )
        injector.start()
        env.run(until=5.0)
        assert kills
        assert suppressed(tracer) == 0


class TestLifecycle:
    def test_stop_halts_injection(self, env):
        kills = []
        injector = make_injector(env, mtbf=0.1, kill=kills.append)
        injector.start()
        env.run(until=5.0)
        injector.stop()
        count = len(kills)
        env.run(until=50.0)
        assert len(kills) == count

    def test_double_start_rejected(self, env):
        injector = make_injector(env)
        injector.start()
        with pytest.raises(ConfigurationError):
            injector.start()

    def test_slot_validation(self, env):
        with pytest.raises(ConfigurationError):
            FailureInjector(
                env, slots=0, distribution=Exponential(1.0),
                rng=np.random.default_rng(0), kill=lambda s: None,
            )
