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
* **process-safe** — parallel campaign workers never share a file:
  each traced job writes its records to a uniquely-named part file
  inside a parts directory (pid + per-process sequence in the name),
  and the parent merges the parts into one JSONL trace afterwards.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "NULL_TRACER",
    "Span",
    "TraceSession",
    "Tracer",
    "merge_trace_parts",
    "read_trace",
    "write_jsonl",
]

#: Per-process part-file sequence (unique names even for same-label jobs).
_PART_SEQUENCE = itertools.count()


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
    """Collects span/event records in memory; flush with :meth:`write`.

    ``common`` fields (e.g. the job label) are merged into every record
    at write time, so per-call cost stays one small dict construction.
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

    # -- access / flush -----------------------------------------------------

    @property
    def records(self) -> Tuple[Dict[str, Any], ...]:
        """Snapshot of the records collected so far (common fields merged)."""
        return tuple(self._finalized())

    def __len__(self) -> int:
        return len(self._records)

    def _finalized(self) -> List[Dict[str, Any]]:
        if not self.common:
            return list(self._records)
        merged = []
        for record in self._records:
            out = dict(self.common)
            out.update(record)
            merged.append(out)
        return merged

    def write(self, path: str) -> int:
        """Append all records to ``path`` as JSONL; returns the count."""
        return write_jsonl(path, self._finalized())

    def write_part(self, parts_dir: str, label: str = "trace") -> Optional[str]:
        """Write records to a uniquely-named part file in ``parts_dir``.

        The name embeds the pid and a per-process sequence number, so
        concurrent workers (and repeated jobs in one worker) can never
        collide — this is what makes the sink process-safe without any
        locking.  Returns the part path (``None`` when empty).
        """
        if not self._records:
            return None
        os.makedirs(parts_dir, exist_ok=True)
        safe = "".join(ch if (ch.isalnum() or ch in "._-") else "_" for ch in label)
        part = os.path.join(
            parts_dir, f"{safe}-{os.getpid()}-{next(_PART_SEQUENCE)}.part.jsonl"
        )
        write_jsonl(part, self._finalized())
        return part


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

    def write(self, path: str) -> int:
        return 0

    def write_part(self, parts_dir: str, label: str = "trace") -> None:
        return None


#: Shared singleton used wherever tracing is off.
NULL_TRACER = _NullTracer()


# -- files ------------------------------------------------------------------


def write_jsonl(path: str, records: Iterable[Dict[str, Any]]) -> int:
    """Append ``records`` to ``path``, one JSON object per line."""
    count = 0
    with open(path, "a", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True, default=str))
            handle.write("\n")
            count += 1
    return count


def read_trace(path: str) -> List[Dict[str, Any]]:
    """Load a JSONL trace file (blank lines skipped)."""
    records = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def _record_order(record: Dict[str, Any]) -> float:
    for key in ("wall", "wall0"):
        value = record.get(key)
        if isinstance(value, (int, float)):
            return float(value)
    return float("inf")


def merge_trace_parts(
    parts_dir: str,
    out_path: str,
    head: Iterable[Dict[str, Any]] = (),
    remove_parts: bool = True,
) -> int:
    """Merge every part file under ``parts_dir`` into one JSONL trace.

    Records are ordered by wall-clock stamp (stable across equal
    stamps), ``head`` records (e.g. a campaign manifest) go first, and
    the part files are removed afterwards.  Returns the record count.
    """
    records: List[Dict[str, Any]] = []
    parts = []
    if os.path.isdir(parts_dir):
        parts = sorted(
            os.path.join(parts_dir, name)
            for name in os.listdir(parts_dir)
            if name.endswith(".part.jsonl")
        )
    for part in parts:
        records.extend(read_trace(part))
    records.sort(key=_record_order)
    merged = list(head) + records
    if os.path.exists(out_path):
        os.remove(out_path)
    count = write_jsonl(out_path, merged)
    if remove_parts:
        for part in parts:
            try:
                os.remove(part)
            except OSError:
                pass
        try:
            os.rmdir(parts_dir)
        except OSError:
            pass
    return count


class TraceSession:
    """Parent-side lifecycle of one traced run.

    Owns the final trace path, the parts directory workers write into,
    and the parent process's own :class:`Tracer` (executor events).
    ``finalize()`` merges everything into the final JSONL file.
    """

    def __init__(self, path: str) -> None:
        self.path = os.fspath(path)
        self.parts_dir = self.path + ".parts"
        os.makedirs(self.parts_dir, exist_ok=True)
        self.tracer = Tracer(common={"job": "__parent__"})

    def finalize(self, head: Iterable[Dict[str, Any]] = ()) -> int:
        """Merge worker parts + parent records into ``self.path``."""
        self.tracer.write_part(self.parts_dir, label="parent")
        return merge_trace_parts(self.parts_dir, self.path, head=head)
