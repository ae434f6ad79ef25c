"""Lossless JSON codecs for stored results.

Encodes :class:`~repro.orchestration.job.JobReport` and
:class:`~repro.models.combined.CombinedResult` (and everything nested
inside them) into plain-JSON payloads and back, **bit-identically**:

* non-finite floats — diverged cells carry ``inf`` total times, empty
  histograms ``nan`` — are tagged (``{"__f": "inf"}``) because strict
  JSON cannot represent them; finite floats ride as JSON numbers, whose
  ``repr`` round-trip is exact for float64;
* tuples are tagged (``{"__t": [...]}``) so they come back as tuples,
  not lists — dataclass equality depends on it;
* registered dataclasses are tagged with their type name and rebuilt
  via their constructor (so ``__post_init__`` validation re-runs on
  decode: a payload that no longer satisfies the model's invariants
  fails loudly);
* dicts with awkward keys (non-strings, or strings colliding with the
  tag namespace) are escaped as pair lists.

Unknown object types raise :class:`~repro.errors.CodecError` at encode
time; unknown tags or type names raise it at decode time.  The payload
envelope carries a codec version so a future incompatible change can
refuse old payloads instead of mis-decoding them.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, Dict, Type

from ..errors import CodecError
from ..models.advisor import Recommendation
from ..models.combined import CombinedResult
from ..models.optimize import RedundancySweepPoint
from ..orchestration.job import JobReport

__all__ = [
    "CODEC_VERSION",
    "decode",
    "decode_payload",
    "decode_report",
    "encode",
    "encode_payload",
    "encode_report",
]

#: Bump on incompatible payload layout changes.  Version 2: ``JobReport``
#: dropped its event list and its per-rank checkpoint-time sum.  Version
#: 3: ``CombinedResult`` carries its kernel cell's values, not a nested
#: partition and time breakdown.  Version 4: ``CombinedResult`` no longer
#: echoes its ``CombinedModel`` (a sweep point carries its degree).
CODEC_VERSION = 4

#: Dataclasses the codec may embed: the stored roots (``JobReport``,
#: ``Recommendation``) and the dataclasses their fields hold.
#: Name-keyed (not module-keyed) so a payload survives module moves;
#: names must therefore stay unique.
REGISTERED_TYPES: Dict[str, Type] = {
    cls.__name__: cls
    for cls in (JobReport, CombinedResult, RedundancySweepPoint, Recommendation)
}

_TAGS = ("__f", "__t", "__dc", "__d")


def encode(value: Any) -> Any:
    """Encode ``value`` into a strict-JSON-safe structure."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        if math.isnan(value):
            return {"__f": "nan"}
        if math.isinf(value):
            return {"__f": "inf" if value > 0 else "-inf"}
        return value
    if isinstance(value, tuple):
        return {"__t": [encode(item) for item in value]}
    if isinstance(value, list):
        return [encode(item) for item in value]
    if isinstance(value, dict):
        plain = all(
            isinstance(key, str) and not key.startswith("__") for key in value
        )
        if plain:
            return {key: encode(item) for key, item in value.items()}
        return {"__d": [[encode(key), encode(item)] for key, item in value.items()]}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        name = type(value).__name__
        if name not in REGISTERED_TYPES:
            raise CodecError(
                f"dataclass {name!r} is not registered with the store codec"
            )
        return {
            "__dc": name,
            "f": {
                field.name: encode(getattr(value, field.name))
                for field in dataclasses.fields(value)
            },
        }
    # numpy scalars: normalise to the Python number they represent.
    item = getattr(value, "item", None)
    if item is not None:
        try:
            plain = item()
        except Exception:  # noqa: BLE001 - fall through to the error below
            plain = value
        if plain is not value and isinstance(plain, (bool, int, float, str)):
            return encode(plain)
    raise CodecError(
        f"cannot encode {type(value).__name__!r} value for storage: {value!r}"
    )


_NONFINITE = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf}


def decode(value: Any) -> Any:
    """Invert :func:`encode`."""
    if isinstance(value, dict):
        if "__f" in value:
            try:
                return _NONFINITE[value["__f"]]
            except (KeyError, TypeError) as exc:
                raise CodecError(f"bad non-finite float tag: {value!r}") from exc
        if "__t" in value:
            return tuple(decode(item) for item in value["__t"])
        if "__d" in value:
            return {decode(key): decode(item) for key, item in value["__d"]}
        if "__dc" in value:
            name = value["__dc"]
            cls = REGISTERED_TYPES.get(name)
            if cls is None:
                raise CodecError(f"unknown stored dataclass type {name!r}")
            fields = value.get("f", {})
            try:
                return cls(**{key: decode(item) for key, item in fields.items()})
            except TypeError as exc:
                raise CodecError(
                    f"stored {name!r} payload does not match its current "
                    f"field set: {exc}"
                ) from exc
        return {key: decode(item) for key, item in value.items()}
    if isinstance(value, list):
        return [decode(item) for item in value]
    return value


# -- envelopes ---------------------------------------------------------------


def encode_payload(obj: Any) -> Dict[str, Any]:
    """Wrap any encodable object in the versioned storage envelope."""
    return {"codec": CODEC_VERSION, "data": encode(obj)}


def decode_payload(payload: Any) -> Any:
    """Unwrap the storage envelope; refuses foreign codec versions."""
    if not isinstance(payload, dict) or "data" not in payload:
        raise CodecError(f"malformed storage payload: {payload!r}")
    version = payload.get("codec")
    if version != CODEC_VERSION:
        raise CodecError(
            f"stored payload uses codec version {version!r}; this build "
            f"reads version {CODEC_VERSION}"
        )
    return decode(payload["data"])


def encode_report(report: JobReport) -> Dict[str, Any]:
    """Envelope one :class:`~repro.orchestration.job.JobReport`."""
    if not isinstance(report, JobReport):
        raise CodecError(f"expected a JobReport, got {type(report).__name__}")
    return encode_payload(report)


def decode_report(payload: Any) -> JobReport:
    """Decode a payload that must hold a ``JobReport``."""
    report = decode_payload(payload)
    if not isinstance(report, JobReport):
        raise CodecError(
            f"stored payload decoded to {type(report).__name__}, "
            "expected JobReport"
        )
    return report
