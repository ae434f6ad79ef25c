"""Tests for process images."""

import numpy as np
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as npst

from repro.checkpoint import capture_image, restore_image


class TestRoundTrip:
    def test_dict_state(self):
        state = {"step": 3, "x": [1.0, 2.0], "name": "cg"}
        assert restore_image(capture_image(state).data) == state

    def test_numpy_state_bit_exact(self):
        state = {"x": np.linspace(0, 1, 100), "r": np.random.default_rng(0).random(50)}
        restored = restore_image(capture_image(state).data)
        assert np.array_equal(restored["x"], state["x"])
        assert np.array_equal(restored["r"], state["r"])

    def test_nbytes(self):
        image = capture_image({"k": 1})
        assert image.nbytes == len(image.data) > 0

    @given(
        npst.arrays(
            dtype=np.float64,
            shape=npst.array_shapes(max_dims=2, max_side=16),
            elements=st.floats(allow_nan=False, width=64),
        )
    )
    def test_arbitrary_arrays_roundtrip(self, array):
        restored = restore_image(capture_image({"a": array}).data)
        assert np.array_equal(restored["a"], array)
