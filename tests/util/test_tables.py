"""Tests for table rendering."""

import pytest

from repro.errors import ConfigurationError
from repro.util import render_table


class TestRenderTable:
    def test_basic_layout(self):
        text = render_table(["a", "b"], [[1, 2.5]], title="demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "a" in lines[1] and "b" in lines[1]
        assert "-+-" in lines[2]
        assert "2.50" in lines[3]

    def test_no_title(self):
        text = render_table(["x"], [[1]])
        assert not text.startswith("\n")
        assert text.splitlines()[0].strip() == "x"

    def test_large_numbers_compact(self):
        text = render_table(["n"], [[123456.789]])
        assert "1.23e+05" in text

    def test_inf_and_nan(self):
        text = render_table(["v"], [[float("inf")], [float("nan")]])
        assert "inf" in text and "nan" in text

    def test_row_width_mismatch(self):
        with pytest.raises(ConfigurationError):
            render_table(["a", "b"], [[1]])

    def test_empty_headers_rejected(self):
        with pytest.raises(ConfigurationError):
            render_table([], [])

    def test_empty_rows_ok(self):
        text = render_table(["only", "headers"], [])
        assert "only" in text
