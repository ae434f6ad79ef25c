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
        assert blob.image is image and blob.data != image.data
        with pytest.raises(CorruptImageError):
            blob.verify()


def _count_checksums(patch):
    """Count every ``image.checksum`` call, from the image or storage."""
    import repro.checkpoint.image as image_module
    import repro.checkpoint.storage as storage_module

    calls = []
    original = image_module.checksum

    def counting(data):
        calls.append(len(data))
        return original(data)

    patch.setattr(image_module, "checksum", counting)
    patch.setattr(storage_module, "checksum", counting)
    return calls


def _committed_blob(image, how):
    """Stage ``image``, commit it and return its blob, damaged as ``how`` says."""
    faults = None
    if how == "fault model":
        faults = StorageFaultModel(StorageFaultConfig(corrupt_prob=1.0), seed=5)
    storage = StableStorage(Environment(), faults=faults)
    storage.stage_untimed("s", "v0", image)
    storage.commit_set("s", 1)
    if how == "corrupt":
        storage.corrupt("v0")
    blob = storage.fetch("s", "v0")
    if how == "equal copy":
        blob.data = bytes(bytearray(blob.data))
    return blob


class TestCrcOnFirstUse:
    """An image computes its CRC the first time it is read; a blob whose
    payload is its image's own bytes object verifies without one."""

    def test_capture_computes_no_crc(self, monkeypatch):
        calls = _count_checksums(monkeypatch)
        image = capture_image({"payload": np.arange(64.0)})
        assert calls == []
        assert image.crc == zlib.crc32(image.data) and image.crc == image.crc
        assert calls == [image.nbytes]

    @settings(max_examples=60, deadline=None)
    @given(
        state=_STATES,
        how=st.sampled_from(["pristine", "equal copy", "fault model", "corrupt"]),
    )
    def test_only_bytes_that_are_not_the_image_are_checked(self, state, how):
        image = capture_image(state)
        blob = _committed_blob(image, how)
        with pytest.MonkeyPatch.context() as patch:
            calls = _count_checksums(patch)
            if how in ("fault model", "corrupt"):
                assert blob.data != image.data
                with pytest.raises(CorruptImageError):
                    blob.verify()
            else:
                assert blob.data == image.data
                blob.verify()
        # The pristine blob is its image: no CRC.  Any other payload is
        # checked by a CRC of its own and the image's, each once.
        assert len(calls) == (0 if how == "pristine" else 2)
        assert (blob.data is image.data) == (how == "pristine")

    def test_checkpointed_cell_without_restores_computes_no_crc(self, monkeypatch):
        """The 6 h row's 2.5x cell: one attempt, replica kills and a
        committed checkpoint, so its images are staged but never read."""
        from repro.experiments.table4 import ScaledSetup
        from repro.orchestration import run_redundancy_sweep

        setup = ScaledSetup(virtual_processes=8, steps=5)
        calls = _count_checksums(monkeypatch)
        (cell,) = run_redundancy_sweep(
            setup.job_config(),
            node_mtbfs=[setup.mtbf_to_sim(6.0)],
            degrees=[2.5],
            workers=1,
        )
        report = cell.report
        assert report.attempts == 1 and report.rollbacks == 0
        assert report.failures_injected > 0 and report.checkpoints_committed > 0
        assert calls == []
