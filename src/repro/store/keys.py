"""Canonical content-addressed cache keys for the results store.

A cache key must be *stable* (the same logical configuration always
produces the same key, across processes and sessions), *complete*
(anything that can change the result changes the key) and *exact*
(floats keyed by value, not by a lossy decimal rendering).  The
canonical form here delivers all three:

* dataclasses serialize as ``{type name: {field: value}}`` with fields
  in declaration order;
* ``functools.partial`` workload factories serialize as the target's
  ``module:qualname`` plus positional args and *sorted* keyword args,
  so two partials built with keywords in different order key
  identically;
* floats serialize via :meth:`float.hex` — exact and locale-free;
* dicts serialize as sorted ``[key, value]`` pairs;
* anything else (open files, lambdas, closures) raises
  :class:`~repro.errors.UnkeyableError` rather than silently keying on
  ``repr``.

The final key is the SHA-256 of the canonical JSON of
``{kind, schema, version, payload}`` — so bumping the package version
(or the key schema) invalidates every previously stored entry, and
:class:`~repro.store.ResultsStore` deletes other versions' blobs on
open.

What is *excluded*: :class:`~repro.orchestration.job.JobConfig`'s
``trace_label`` field, which only names a job's trace records.  Whether
a run is traced is not in the config at all: tracing never touches the
simulation clock (traced results are bit-identical to untraced ones),
so a traced re-run of a stored campaign must hit the cache.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from typing import Any, Tuple

from .._version import __version__
from ..errors import UnkeyableError

__all__ = [
    "CODE_VERSION",
    "KEY_SCHEMA",
    "JOB_KEY_EXCLUDED_FIELDS",
    "canonical",
    "fingerprint",
    "job_key",
]

#: Package version baked into every key (invalidate-by-version).
CODE_VERSION = __version__

#: Bump when the canonical form itself changes incompatibly.
KEY_SCHEMA = 1

#: JobConfig fields that cannot affect simulation results.
JOB_KEY_EXCLUDED_FIELDS: Tuple[str, ...] = ("trace_label",)


def _callable_name(func: Any) -> str:
    module = getattr(func, "__module__", None)
    qualname = getattr(func, "__qualname__", None)
    if not module or not qualname or "<locals>" in qualname or "<lambda>" in qualname:
        raise UnkeyableError(
            f"cannot key callable {func!r}: only importable module-level "
            "callables have a stable identity (lambdas/closures do not)"
        )
    return f"{module}:{qualname}"


def canonical(value: Any) -> Any:
    """Reduce ``value`` to a JSON-able canonical form (see module doc)."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return {"__float": value.hex()}
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if isinstance(value, dict):
        pairs = [[canonical(key), canonical(item)] for key, item in value.items()]
        pairs.sort(key=lambda pair: json.dumps(pair[0], sort_keys=True))
        return {"__dict": pairs}
    if isinstance(value, functools.partial):
        return {
            "__partial": _callable_name(value.func),
            "args": [canonical(item) for item in value.args],
            "kwargs": canonical(dict(value.keywords)),
        }
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            "__type": type(value).__name__,
            "fields": [
                [field.name, canonical(getattr(value, field.name))]
                for field in dataclasses.fields(value)
            ],
        }
    if callable(value):
        return {"__callable": _callable_name(value)}
    # numpy scalars (np.float64 etc.) expose item(); normalise through it
    # so a config built from array elements keys like one built from
    # Python numbers.
    item = getattr(value, "item", None)
    if item is not None:
        try:
            plain = item()
        except Exception:  # noqa: BLE001 - fall through to the error below
            plain = value
        if plain is not value and isinstance(plain, (bool, int, float, str)):
            return canonical(plain)
    raise UnkeyableError(
        f"cannot canonically serialize {type(value).__name__!r} value for a "
        f"cache key: {value!r}"
    )


def _canonical_again(form: Any) -> Any:
    """``canonical(form)`` for a ``form`` that :func:`canonical` returned.

    Such a form holds only JSON scalars, lists and tagged dicts whose
    keys are plain names, so canonicalising it again keeps the scalars
    and lists and turns each dict into its ``[key, value]`` pairs
    sorted by name (for plain names, the order of their JSON).
    """
    if isinstance(form, list):
        return [_canonical_again(item) for item in form]
    if isinstance(form, dict):
        return {"__dict": [[key, _canonical_again(form[key])] for key in sorted(form)]}
    return form


def fingerprint(kind: str, payload: Any, version: str = CODE_VERSION) -> str:
    """SHA-256 hex key of ``payload`` under ``kind`` and ``version``."""
    return _sealed(kind, canonical(payload), version)


def _sealed(kind: str, canonical_payload: Any, version: str) -> str:
    """SHA-256 hex key of a payload already in canonical form."""
    envelope = {
        "kind": kind,
        "schema": KEY_SCHEMA,
        "version": version,
        "payload": canonical_payload,
    }
    blob = json.dumps(
        envelope, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def job_key(config: Any, version: str = CODE_VERSION) -> str:
    """Cache key of one :class:`~repro.orchestration.job.JobConfig`.

    Every field participates except ``trace_label`` (which cannot
    change results); the seed is an ordinary field, so common-random-
    number sweeps key each cell separately.

    The key is ``fingerprint("job", {"config": name, "fields":
    [[field, canonical(value)], ...]})``.  That payload is built from
    canonical forms, so :func:`_canonical_again` canonicalises it in
    place of a second, general :func:`canonical`: the same JSON, so the
    same key.
    """
    fields = [
        [field.name, canonical(getattr(config, field.name))]
        for field in dataclasses.fields(config)
        if field.name not in JOB_KEY_EXCLUDED_FIELDS
    ]
    payload = {"config": type(config).__name__, "fields": fields}
    return _sealed("job", _canonical_again(payload), version)
