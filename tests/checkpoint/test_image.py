"""Tests for process images."""

import pickle
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as npst

from repro.checkpoint import ProcessImage, StableStorage, capture_image, restore_image
from repro.errors import CorruptImageError
from repro.faults import StorageFaultConfig, StorageFaultModel
from repro.simkit import Environment


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


_DTYPES = st.sampled_from(["float64", "float32", "int64", "int16", "uint8", "bool", "complex128"])


@st.composite
def image_arrays(draw):
    """Arrays as workloads hold them: plain, read-only, strided or 0-d."""
    array = draw(npst.arrays(_DTYPES, npst.array_shapes(min_dims=0, max_dims=3, max_side=6)))
    how = draw(st.sampled_from(["plain", "read-only", "strided", "0-d"]))
    if how == "read-only":
        array.flags.writeable = False
    elif how == "strided":
        wide = np.zeros(array.shape + (2,), dtype=array.dtype)
        wide[..., 1] = array
        array = wide[..., 1]
    elif how == "0-d":
        array = np.array(array.reshape(-1)[0] if array.size else 0, dtype=array.dtype)
    return array


def _read_only_range(n):
    """A read-only float64 array of ``n`` items, as the ring payload is."""
    array = np.arange(float(n))
    array.flags.writeable = False
    return array


_LEAVES = st.one_of(
    image_arrays(),
    st.floats(),
    st.integers(),
    st.none(),
    st.text(max_size=8),
    st.binary(max_size=8),
    # Over 64 KiB: written past the pickler's frame, not copied into it.
    st.integers(8 * 1024 + 1, 24 * 1024).map(_read_only_range),
    st.integers(64 * 1024 + 1, 80 * 1024).map(lambda n: "é" * n),
    st.integers(64 * 1024 + 1, 80 * 1024).map(lambda n: b"\x07" * n),
)

_STATES = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=4), children, max_size=4),
    ),
    max_leaves=8,
)


class TestImageBytes:
    @settings(max_examples=150, deadline=None)
    @given(_STATES)
    def test_bytes_are_pickle_dumps_and_crc_is_theirs(self, state):
        image = capture_image(state)
        assert image.data == pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
        assert image.crc == zlib.crc32(image.data)

    def test_crc_is_computed_from_the_data_only(self):
        assert ProcessImage(b"payload").crc == zlib.crc32(b"payload")
        with pytest.raises(TypeError):
            ProcessImage(b"payload", crc=0)

    def test_damaged_blob_staged_with_image_crc_fails_verify(self):
        image = capture_image({"step": 1, "state": {"payload": np.arange(64.0)}})
        faults = StorageFaultModel(StorageFaultConfig(corrupt_prob=1.0), seed=5)
        storage = StableStorage(Environment(), faults=faults)
        storage.stage_untimed("s", "v0", image)
        storage.commit_set("s", 1)
        blob = storage.fetch("s", "v0")
        assert blob.crc == image.crc and blob.data != image.data
        with pytest.raises(CorruptImageError):
            blob.verify()
