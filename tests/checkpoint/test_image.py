"""Tests for process images."""

import pickle
import tracemalloc
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
    """Arrays as workloads hold them: plain, read-only, a read-only view
    of writable memory, strided or 0-d."""
    array = draw(npst.arrays(_DTYPES, npst.array_shapes(min_dims=0, max_dims=3, max_side=6)))
    how = draw(st.sampled_from(["plain", "read-only", "read-only view", "strided", "0-d"]))
    if how == "read-only":
        array.flags.writeable = False
    elif how == "read-only view":
        array = array[...]
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
    # Over 64 KiB: an out-of-band buffer, or (the str and bytes) written
    # past the pickler's frame, not copied into it.
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


def _read_only_all_the_way_down(array):
    """True when neither ``array`` nor any array below it is writable."""
    while isinstance(array, np.ndarray):
        if array.flags.writeable:
            return False
        array = array.base
    return array is None or memoryview(array).readonly


class TestImageBytes:
    @settings(max_examples=150, deadline=None)
    @given(_STATES)
    def test_bytes_are_pickle_dumps_and_crc_is_theirs(self, state):
        """The frame is ``pickle.dumps`` with the read-only buffers kept
        out of band, the image holds those buffers, and the CRC is that
        of the frame followed by each buffer."""
        expected = []

        def out_of_band(buffer):
            view = buffer.raw()
            if _read_only_all_the_way_down(view.obj):
                expected.append(view)
                return False
            return True

        image = capture_image(state)
        assert image.data == pickle.dumps(state, protocol=5, buffer_callback=out_of_band)
        assert [bytes(buffer) for buffer in image.buffers] == [
            bytes(buffer) for buffer in expected
        ]
        assert all(buffer.readonly for buffer in image.buffers)
        whole = image.data + b"".join(image.buffers)
        assert image.crc == zlib.crc32(whole)
        assert image.nbytes == len(whole)

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


@st.composite
def held_arrays(draw):
    """An array as a state holds it, and the writable memory under it.

    Read-only arrays have none; a writable array is its own, and a
    read-only view of a writable array has that array's.
    """
    array = draw(npst.arrays(_DTYPES, npst.array_shapes(min_dims=0, max_dims=3, max_side=6)))
    how = draw(st.sampled_from(["read-only", "writable", "read-only view"]))
    if how == "read-only":
        array.flags.writeable = False
        return array, None
    if how == "writable":
        return array, array
    view = array[...]
    view.flags.writeable = False
    return view, array


def _overwrite(source):
    """Flip every bit of a writable, contiguous array in place."""
    flat = source.reshape(1) if source.ndim == 0 else source
    bits = flat.view(np.uint8)
    bits ^= 0xFF


def _same_bits(restored, original):
    return (
        restored.dtype == original.dtype
        and restored.shape == original.shape
        and restored.tobytes() == original.tobytes()
    )


class TestZeroCopy:
    """Read-only arrays are held by reference; everything else is copied."""

    @settings(max_examples=120, deadline=None)
    @given(st.lists(held_arrays(), max_size=5))
    def test_restore_is_bit_identical_and_owns_every_writable_byte(self, held):
        arrays = [array for array, _ in held]
        before = [array.copy() for array in arrays]
        image = capture_image({"step": 7, "arrays": arrays})
        restored = restore_image(image.data, image.buffers)
        assert restored["step"] == 7
        assert all(_same_bits(r, a) for r, a in zip(restored["arrays"], arrays))
        for _, source in held:
            if source is not None:
                _overwrite(source)
        restored_again = restore_image(image.data, image.buffers)["arrays"]
        for state in (restored["arrays"], restored_again):
            assert all(_same_bits(r, b) for r, b in zip(state, before))

    def test_only_read_only_memory_stays_out_of_band(self):
        frozen = np.arange(16.0)
        frozen.flags.writeable = False
        writable = np.arange(16.0)
        view = writable[...]
        view.flags.writeable = False
        image = capture_image({"frozen": frozen, "writable": writable, "view": view})
        assert [bytes(buffer) for buffer in image.buffers] == [frozen.tobytes()]
        restored = restore_image(image.data, image.buffers)
        assert np.shares_memory(restored["frozen"], frozen)
        assert not restored["frozen"].flags.writeable
        assert not np.shares_memory(restored["view"], writable)
        assert not np.shares_memory(restored["writable"], writable)

    def test_a_restored_read_only_array_is_captured_by_reference_again(self):
        frozen = _read_only_range(1024)
        first = capture_image({"payload": frozen})
        restored = restore_image(first.data, first.buffers)["payload"]
        second = capture_image({"payload": restored})
        assert len(second.buffers) == 1 and second.nbytes == first.nbytes
        assert np.shares_memory(restore_image(second.data, second.buffers)["payload"], frozen)

    def test_capturing_a_read_only_ring_payload_allocates_little(self):
        """A table4 image: 160 KiB of read-only payload and a few scalars."""
        payload = np.full(160 * 1024 // 8, 3.0)
        payload.flags.writeable = False
        state = {"step": 4, "state": {"iteration": 3, "token": 3.0, "payload": payload}}
        capture_image(state)
        tracemalloc.start()
        try:
            image = capture_image(state)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert image.nbytes > 160 * 1024
        assert peak < 16 * 1024


def _count_checksums(patch):
    """Count every ``image.checksum`` call, from the image or storage."""
    import repro.checkpoint.image as image_module
    import repro.checkpoint.storage as storage_module

    calls = []
    original = image_module.checksum

    def counting(data, buffers=()):
        calls.append(len(data) + sum(len(buffer) for buffer in buffers))
        return original(data, buffers)

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

    def test_damage_inside_a_buffer_is_caught(self):
        image = capture_image({"step": 2, "payload": _read_only_range(20_000)})
        (buffer,) = image.buffers
        blob = _committed_blob(image, "fault model")
        whole = np.frombuffer(image.data + bytes(buffer), dtype=np.uint8)
        (where,) = np.flatnonzero(whole != np.frombuffer(blob.data, dtype=np.uint8))
        assert where >= len(image.data)
        with pytest.raises(CorruptImageError):
            blob.verify()

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
