"""Tests for payload sizing and digests."""

import numpy as np
from hypothesis import given, strategies as st

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
