"""Tests for payload sizing and digests."""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as npst

from repro.mpi.datatypes import (
    ENVELOPE_OVERHEAD,
    message_wire_size,
    payload_digest,
    payload_nbytes,
)


class TestPayloadNbytes:
    def test_numpy_exact(self):
        array = np.zeros(100, dtype=np.float64)
        assert payload_nbytes(array) == 800

    def test_bytes(self):
        assert payload_nbytes(b"abcd") == 4

    def test_str_utf8(self):
        assert payload_nbytes("héllo") == len("héllo".encode("utf-8"))

    def test_scalars(self):
        for scalar in (None, True, 7, 2.5, 1 + 2j):
            assert payload_nbytes(scalar) == 8

    def test_numpy_scalar(self):
        assert payload_nbytes(np.float32(1.5)) == 4

    def test_list_recursion(self):
        assert payload_nbytes([1, 2]) == (8 + 8) + (8 + 8)

    def test_dict_recursion(self):
        assert payload_nbytes({"k": 1}) == 1 + 8 + 8

    def test_arbitrary_object_via_pickle(self):
        assert payload_nbytes(object()) > 0
        assert payload_nbytes(frozenset({1, 2, 3})) > 0

    def test_wire_size_adds_overhead(self):
        assert message_wire_size(b"xy") == 2 + ENVELOPE_OVERHEAD

    @given(st.binary(max_size=4096))
    def test_bytes_size_exact(self, blob):
        assert payload_nbytes(blob) == len(blob)


class _TaggedArray(np.ndarray):
    """An ``ndarray`` subclass: sized as an array, not by its exact type."""


class _TaggedInt(int):
    """An ``int`` subclass: sized as a scalar, not by its exact type."""


_WIRE_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**64, max_value=2**200),
    st.floats(),
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
    st.complex_numbers(),
    npst.arrays(
        st.sampled_from(["float64", "float32", "int16", "uint8", "bool", "complex128"]),
        npst.array_shapes(min_dims=0, max_dims=3, max_side=4),
    ),
    npst.arrays("float64", npst.array_shapes(max_dims=2, max_side=4)).map(
        lambda array: array.view(_TaggedArray)
    ),
    st.binary(max_size=16),
    st.text(max_size=16),
)

_WIRE_PAYLOADS = st.recursive(
    _WIRE_LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.tuples(children, children),
        st.dictionaries(st.text(max_size=3), children, max_size=3),
    ),
    max_leaves=6,
)


class TestMessageWireSize:
    @settings(max_examples=300)
    @given(_WIRE_PAYLOADS)
    def test_payload_size_plus_envelope(self, payload):
        assert message_wire_size(payload) == payload_nbytes(payload) + ENVELOPE_OVERHEAD

    @given(
        st.one_of(
            st.booleans(),
            st.integers(),
            st.floats(),
            npst.arrays(
                st.sampled_from(["float64", "float32", "int16", "bool"]),
                npst.array_shapes(min_dims=0, max_dims=3, max_side=4),
            ),
        )
    )
    def test_exact_types_size_as_their_subclasses(self, payload):
        """The exact-type shortcut agrees with the general rules."""
        if isinstance(payload, np.ndarray):
            twin = payload.view(_TaggedArray)
        elif isinstance(payload, float):
            twin = np.float64(payload)
        else:
            twin = _TaggedInt(payload)
        assert type(twin) is not type(payload)
        assert payload_nbytes(payload) == payload_nbytes(twin)


class TestPayloadDigest:
    def test_deterministic(self):
        array = np.arange(50, dtype=np.float64)
        assert payload_digest(array) == payload_digest(array.copy())

    def test_distinguishes_values(self):
        a = np.arange(50, dtype=np.float64)
        b = a.copy()
        b[13] += 1e-12
        assert payload_digest(a) != payload_digest(b)

    def test_distinguishes_dtype(self):
        a = np.zeros(4, dtype=np.float64)
        b = np.zeros(4, dtype=np.float32)
        assert payload_digest(a) != payload_digest(b)

    def test_distinguishes_shape(self):
        a = np.zeros((2, 2))
        b = np.zeros(4)
        assert payload_digest(a) != payload_digest(b)

    def test_scalars_and_strings(self):
        assert payload_digest(42) == payload_digest(42)
        assert payload_digest("a") != payload_digest("b")

    def test_fits_64_bits(self):
        assert 0 <= payload_digest(b"anything") < 2**64

    @given(st.binary(max_size=1024))
    def test_stable_for_bytes(self, blob):
        assert payload_digest(blob) == payload_digest(bytes(blob))
