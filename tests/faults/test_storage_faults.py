"""Tests for the seeded storage fault model (the chaos layer's RNG core)."""

import pytest

from repro.errors import ConfigurationError
from repro.faults import StorageFaultConfig, StorageFaultModel, WriteVerdict


class TestConfig:
    @pytest.mark.parametrize("field", ["write_fail_prob", "corrupt_prob"])
    def test_probability_bounds_enforced(self, field):
        with pytest.raises(ConfigurationError):
            StorageFaultConfig(**{field: 1.5})
        with pytest.raises(ConfigurationError):
            StorageFaultConfig(**{field: -0.1})

    def test_enabled_iff_any_probability_positive(self):
        assert not StorageFaultConfig().enabled
        assert StorageFaultConfig(corrupt_prob=0.01).enabled
        assert StorageFaultConfig(write_fail_prob=0.5).enabled


class TestDisabledIsNoOp:
    def test_disabled_model_injects_nothing(self):
        model = StorageFaultModel(StorageFaultConfig())
        for _ in range(100):
            assert model.on_write() == WriteVerdict()
            model.on_read()
        assert model.counters() == {
            "storage_writes_failed": 0,
            "storage_blobs_corrupted": 0,
        }

    def test_disabled_model_draws_nothing(self):
        """The stream must not advance: disabled == strict no-op."""
        model = StorageFaultModel(StorageFaultConfig(), seed=7)
        before = model._rng.bit_generator.state
        for _ in range(10):
            model.on_write()
            model.on_read()
        assert model._rng.bit_generator.state == before


class TestDeterminism:
    def _verdicts(self, config, seed, n=50):
        model = StorageFaultModel(config, seed=seed)
        return [model.on_write() for _ in range(n)]

    def test_same_seed_same_verdicts(self):
        config = StorageFaultConfig(write_fail_prob=0.3, corrupt_prob=0.2)
        assert self._verdicts(config, 11) == self._verdicts(config, 11)

    def test_different_seed_different_verdicts(self):
        config = StorageFaultConfig(write_fail_prob=0.5)
        assert self._verdicts(config, 1) != self._verdicts(config, 2)

    def test_fixed_draws_per_operation(self):
        """Three variates per write and two per read, whatever the probabilities."""
        config = StorageFaultConfig(write_fail_prob=1.0)
        model = StorageFaultModel(config, seed=4)
        model.on_write()
        model.on_read()
        reference = StorageFaultModel(config, seed=4)._rng
        reference.random(3)
        reference.random(2)
        assert model._rng.bit_generator.state == reference.bit_generator.state

    def test_common_random_numbers_across_sweep_points(self):
        """Sweeping one probability keeps the other decisions aligned."""
        lo = StorageFaultConfig(write_fail_prob=0.4, corrupt_prob=0.0)
        hi = StorageFaultConfig(write_fail_prob=0.4, corrupt_prob=0.9)
        fails_lo = [v.fail for v in self._verdicts(lo, 5)]
        fails_hi = [v.fail for v in self._verdicts(hi, 5)]
        assert fails_lo == fails_hi
        assert any(fails_lo)


class TestDamage:
    def test_flips_exactly_one_bit(self):
        model = StorageFaultModel(StorageFaultConfig(corrupt_prob=1.0), seed=3)
        data = bytes(range(256))
        damaged = model.damage(data)
        assert damaged != data
        assert len(damaged) == len(data)
        diff = [(a ^ b) for a, b in zip(data, damaged) if a != b]
        assert len(diff) == 1
        assert bin(diff[0]).count("1") == 1

    def test_empty_payload_untouched(self):
        model = StorageFaultModel(StorageFaultConfig(corrupt_prob=1.0))
        assert model.damage(b"") == b""


class TestCounters:
    def test_counts_follow_injections(self):
        model = StorageFaultModel(StorageFaultConfig(write_fail_prob=1.0))
        for _ in range(4):
            assert model.on_write().fail
        model.on_read()  # reads never fail, whatever the probabilities
        assert model.counters() == {
            "storage_writes_failed": 4,
            "storage_blobs_corrupted": 0,
        }

    def test_fail_takes_precedence_over_corrupt(self):
        model = StorageFaultModel(
            StorageFaultConfig(write_fail_prob=1.0, corrupt_prob=1.0)
        )
        verdict = model.on_write()
        assert verdict.fail and not verdict.corrupt
