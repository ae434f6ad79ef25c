"""Tests for the named deterministic RNG streams."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.rng import StreamRegistry


class TestStreamRegistry:
    def test_same_name_same_object(self):
        registry = StreamRegistry(seed=1)
        assert registry.stream("a") is registry.stream("a")

    def test_reproducible_across_registries(self):
        first = StreamRegistry(seed=9).stream("faults").random(8)
        second = StreamRegistry(seed=9).stream("faults").random(8)
        assert np.array_equal(first, second)

    def test_streams_independent_of_draw_order(self):
        registry_a = StreamRegistry(seed=5)
        registry_a.stream("x").random(100)  # consume from another stream
        value_a = registry_a.stream("y").random()
        registry_b = StreamRegistry(seed=5)
        value_b = registry_b.stream("y").random()
        assert value_a == value_b

    def test_different_names_differ(self):
        registry = StreamRegistry(seed=3)
        assert registry.stream("a").random() != registry.stream("b").random()

    def test_different_seeds_differ(self):
        a = StreamRegistry(seed=1).stream("s").random()
        b = StreamRegistry(seed=2).stream("s").random()
        assert a != b

    def test_rejects_non_int_seed(self):
        with pytest.raises(ConfigurationError):
            StreamRegistry(seed="nope")

    def test_seed_property(self):
        assert StreamRegistry(seed=11).seed == 11
