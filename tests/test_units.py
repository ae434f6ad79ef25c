"""Tests for repro.units."""

import pytest
from hypothesis import given, strategies as st

from repro import units
from repro.errors import ConfigurationError


class TestConversions:
    def test_minutes(self):
        assert units.minutes(2) == 120.0

    def test_hours(self):
        assert units.hours(1) == 3600.0

    def test_days(self):
        assert units.days(1) == 86400.0

    def test_years(self):
        assert units.years(1) == pytest.approx(365.25 * 86400)

    def test_seconds_identity(self):
        assert units.seconds(42) == 42.0

    def test_to_minutes_inverts_minutes(self):
        assert units.to_minutes(units.minutes(7.5)) == pytest.approx(7.5)

    def test_to_hours_inverts_hours(self):
        assert units.to_hours(units.hours(128)) == pytest.approx(128)

    def test_to_years_inverts_years(self):
        assert units.to_years(units.years(5)) == pytest.approx(5)

    @given(st.floats(min_value=0, max_value=1e12, allow_nan=False))
    def test_roundtrip_hours(self, value):
        assert units.to_hours(units.hours(value)) == pytest.approx(value)


class TestParseDuration:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("6h", 21600.0),
            ("46min", 2760.0),
            ("5y", 5 * units.SECONDS_PER_YEAR),
            ("120s", 120.0),
            ("120 sec", 120.0),
            ("1.5hr", 5400.0),
            ("2d", 172800.0),
            ("42", 42.0),
            ("3m", 180.0),
        ],
    )
    def test_examples(self, text, expected):
        assert units.parse_duration(text) == pytest.approx(expected)

    def test_rejects_garbage(self):
        with pytest.raises(ConfigurationError):
            units.parse_duration("soon")

    def test_rejects_bad_number(self):
        with pytest.raises(ConfigurationError):
            units.parse_duration("x2h")


class TestFormatting:
    def test_hours_format(self):
        assert units.fmt_duration(units.hours(128)) == "128h00m"

    def test_minutes_format(self):
        assert units.fmt_duration(150.0) == "2m30s"

    def test_seconds_format(self):
        assert units.fmt_duration(12.04) == "12.0s"

    def test_negative(self):
        assert units.fmt_duration(-60.0) == "-1m00s"

    def test_rounding_carry_minutes(self):
        # 59m59.7s rounds to the next hour without showing 60m.
        assert units.fmt_duration(3599.7) == "1h00m"
