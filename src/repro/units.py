"""Time and size unit helpers.

The paper mixes hours (job lengths, MTBFs), minutes (Table 4) and
seconds (checkpoint cost ``c`` = 120 s, restart ``R`` = 500 s).  All
``repro`` model and simulator APIs take **seconds** and **bytes**; these
helpers make call sites read like the paper.

>>> hours(128)
460800.0
>>> fmt_duration(460800.0)
'128h00m'
"""

from __future__ import annotations

from .errors import ConfigurationError

SECONDS_PER_MINUTE = 60.0
SECONDS_PER_HOUR = 3600.0
SECONDS_PER_DAY = 86400.0
SECONDS_PER_YEAR = 365.25 * SECONDS_PER_DAY


def seconds(value: float) -> float:
    """Identity helper; makes mixed-unit call sites self-documenting."""
    return float(value)


def minutes(value: float) -> float:
    """Convert minutes to seconds."""
    return float(value) * SECONDS_PER_MINUTE


def hours(value: float) -> float:
    """Convert hours to seconds."""
    return float(value) * SECONDS_PER_HOUR


def days(value: float) -> float:
    """Convert days to seconds."""
    return float(value) * SECONDS_PER_DAY


def years(value: float) -> float:
    """Convert (Julian) years to seconds."""
    return float(value) * SECONDS_PER_YEAR


def to_minutes(value_seconds: float) -> float:
    """Convert seconds to minutes (Table 4 is reported in minutes)."""
    return float(value_seconds) / SECONDS_PER_MINUTE


def to_hours(value_seconds: float) -> float:
    """Convert seconds to hours."""
    return float(value_seconds) / SECONDS_PER_HOUR


def to_years(value_seconds: float) -> float:
    """Convert seconds to years."""
    return float(value_seconds) / SECONDS_PER_YEAR


def parse_duration(text: str) -> float:
    """Parse a human duration like ``"128h"``, ``"46min"``, ``"5y"``.

    Supported suffixes: ``s``, ``sec``, ``m``, ``min``, ``h``, ``hr``,
    ``hrs``, ``d``, ``y``, ``yr``, ``yrs``.  A bare number is seconds.

    >>> parse_duration("6h")
    21600.0
    """
    text = text.strip().lower()
    suffixes = [
        ("yrs", SECONDS_PER_YEAR),
        ("yr", SECONDS_PER_YEAR),
        ("y", SECONDS_PER_YEAR),
        ("hrs", SECONDS_PER_HOUR),
        ("hr", SECONDS_PER_HOUR),
        ("h", SECONDS_PER_HOUR),
        ("min", SECONDS_PER_MINUTE),
        ("sec", 1.0),
        ("d", SECONDS_PER_DAY),
        ("m", SECONDS_PER_MINUTE),
        ("s", 1.0),
    ]
    for suffix, scale in suffixes:
        if text.endswith(suffix):
            number = text[: -len(suffix)].strip()
            try:
                return float(number) * scale
            except ValueError as exc:
                raise ConfigurationError(f"bad duration {text!r}") from exc
    try:
        return float(text)
    except ValueError as exc:
        raise ConfigurationError(f"bad duration {text!r}") from exc


def fmt_duration(value_seconds: float) -> str:
    """Render seconds as a compact ``128h00m`` / ``46m30s`` / ``12.0s``.

    Chooses the coarsest unit that keeps the leading field non-zero.
    """
    if value_seconds < 0:
        return "-" + fmt_duration(-value_seconds)
    if value_seconds >= SECONDS_PER_HOUR:
        whole_hours = int(value_seconds // SECONDS_PER_HOUR)
        rem_minutes = int(round((value_seconds - whole_hours * SECONDS_PER_HOUR) / 60))
        if rem_minutes == 60:  # rounding carried over
            whole_hours, rem_minutes = whole_hours + 1, 0
        return f"{whole_hours}h{rem_minutes:02d}m"
    if value_seconds >= SECONDS_PER_MINUTE:
        whole_minutes = int(value_seconds // SECONDS_PER_MINUTE)
        rem_seconds = int(round(value_seconds - whole_minutes * 60))
        if rem_seconds == 60:
            whole_minutes, rem_seconds = whole_minutes + 1, 0
        if whole_minutes == 60:  # rounding promoted to a full hour
            return "1h00m"
        return f"{whole_minutes}m{rem_seconds:02d}s"
    return f"{value_seconds:.1f}s"
