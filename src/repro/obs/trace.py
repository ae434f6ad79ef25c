"""Structured tracing: JSONL span/event records with sim and wall time.

Every record is one JSON object per line.  Two record types:

* ``span`` — a phase with a beginning and an end.  Simulation-time
  bounds ride in ``t0``/``t1`` (``None`` for purely wall-clock spans,
  e.g. the campaign executor's per-cell timings); wall-clock bounds in
  ``wall0``/``wall1``.
* ``event`` — a point occurrence (a failure injection, a CRC mismatch,
  a crashed cell process) with ``t`` (sim) and ``wall`` stamps.

A third type, ``manifest``/``summary``, is emitted by jobs so a trace
is self-describing: the manifest record captures the config and seed
that produced the records, the summary record the job's final report
numbers, which :mod:`repro.obs.report` reconciles against the spans.

Design constraints (the whole point of this module):

* **zero overhead when off** — code paths hold :data:`NULL_TRACER`, a
  null object whose methods are empty; nothing is allocated, formatted
  or written.  The fault-free hot path stays bit-identical.
* **never perturbs the simulation** — a tracer only *reads* ``env.now``
  passed in by the caller; it cannot advance the clock, so even a
  traced run is sim-identical to an untraced one.
* **one channel home** — a traced campaign cell never touches the file
  system: its records travel back to the parent with its result, as
  the JSONL text :func:`to_jsonl` makes (a string always pickles), and
  the parent writes the one trace file at the end.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "NULL_TRACER",
    "Span",
    "Tracer",
    "parse_jsonl",
    "read_trace",
    "to_jsonl",
    "write_jsonl",
    "write_trace",
]


class Span:
    """An open span handle; :meth:`end` seals it."""

    __slots__ = ("_record", "_clock")

    def __init__(self, record: Dict[str, Any], clock: Callable[[], float]) -> None:
        self._record = record
        self._clock = clock

    def end(self, sim_time: Optional[float] = None, **fields: Any) -> None:
        """Close the span (idempotent; later calls overwrite the end)."""
        self._record["t1"] = sim_time
        self._record["wall1"] = self._clock()
        if fields:
            self._record.update(fields)


class _NullSpan:
    """End of the null tracer's spans: does nothing."""

    __slots__ = ()

    def end(self, sim_time: Optional[float] = None, **fields: Any) -> None:
        pass


class Tracer:
    """Collects span/event records in memory; read them via :attr:`records`.

    ``common`` fields (e.g. the job label) are merged into every record
    when it is read, so per-call cost stays one small dict construction.
    """

    enabled = True

    def __init__(
        self,
        common: Optional[Dict[str, Any]] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.common = dict(common or {})
        self._clock = clock
        self._records: List[Dict[str, Any]] = []

    # -- recording ----------------------------------------------------------

    def event(self, name: str, sim_time: Optional[float] = None, **fields: Any) -> None:
        """Record a point event."""
        record: Dict[str, Any] = {
            "type": "event",
            "name": name,
            "t": sim_time,
            "wall": self._clock(),
        }
        if fields:
            record.update(fields)
        self._records.append(record)

    def begin(self, name: str, sim_time: Optional[float] = None, **fields: Any) -> Span:
        """Open a span; close it via the returned handle's ``end``."""
        record: Dict[str, Any] = {
            "type": "span",
            "name": name,
            "t0": sim_time,
            "t1": None,
            "wall0": self._clock(),
            "wall1": None,
        }
        if fields:
            record.update(fields)
        self._records.append(record)
        return Span(record, self._clock)

    def record(self, type_: str, **fields: Any) -> None:
        """Append a raw record (manifest/summary blocks)."""
        record: Dict[str, Any] = {"type": type_, "wall": self._clock()}
        record.update(fields)
        self._records.append(record)

    # -- access -------------------------------------------------------------

    @property
    def records(self) -> Tuple[Dict[str, Any], ...]:
        """Snapshot of the records collected so far (common fields merged)."""
        if not self.common:
            return tuple(self._records)
        return tuple({**self.common, **record} for record in self._records)

    def __len__(self) -> int:
        return len(self._records)


class _NullTracer:
    """The disabled tracer: every operation is a no-op."""

    enabled = False
    common: Dict[str, Any] = {}
    _NULL_SPAN = _NullSpan()

    def event(self, name: str, sim_time: Optional[float] = None, **fields: Any) -> None:
        pass

    def begin(self, name: str, sim_time: Optional[float] = None, **fields: Any) -> _NullSpan:
        return self._NULL_SPAN

    def record(self, type_: str, **fields: Any) -> None:
        pass

    @property
    def records(self) -> Tuple[Dict[str, Any], ...]:
        return ()

    def __len__(self) -> int:
        return 0


#: Shared singleton used wherever tracing is off.
NULL_TRACER = _NullTracer()


# -- text and files ---------------------------------------------------------


def to_jsonl(records: Iterable[Dict[str, Any]]) -> str:
    """``records`` as JSONL text: one JSON object per line.

    A value JSON cannot carry degrades to its ``str``, so the text (and
    anything that carries it, such as a cell's result) always pickles.
    """
    return "".join(
        json.dumps(record, sort_keys=True, default=str) + "\n" for record in records
    )


def parse_jsonl(text: str) -> List[Dict[str, Any]]:
    """The records of JSONL ``text`` (blank lines skipped)."""
    return [json.loads(line) for line in text.split("\n") if line.strip()]


def write_jsonl(path: str, records: Iterable[Dict[str, Any]]) -> int:
    """Append ``records`` to ``path``, one JSON object per line."""
    records = list(records)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(to_jsonl(records))
    return len(records)


def read_trace(path: str) -> List[Dict[str, Any]]:
    """Load a JSONL trace file (blank lines skipped)."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_jsonl(handle.read())


def _record_order(record: Dict[str, Any]) -> float:
    for key in ("wall", "wall0"):
        value = record.get(key)
        if isinstance(value, (int, float)):
            return float(value)
    return float("inf")


def write_trace(
    path: str,
    records: Iterable[Dict[str, Any]],
    head: Iterable[Dict[str, Any]] = (),
) -> int:
    """Write one trace file, replacing any file already at ``path``.

    ``head`` records (e.g. a campaign manifest) go first, then
    ``records`` ordered by wall-clock stamp (stable across equal
    stamps; unstamped records last).  Returns the record count.
    """
    ordered = list(head) + sorted(records, key=_record_order)
    if os.path.exists(path):
        os.remove(path)
    return write_jsonl(path, ordered)
