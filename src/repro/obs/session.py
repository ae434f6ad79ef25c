"""ObsSession: one run's observability bundle (trace + metrics).

The CLI (and the experiment entry points) deal with exactly one object:
an :class:`ObsSession` owns the optional trace path with the parent
process's own :class:`~repro.obs.trace.Tracer`, and the optional
:class:`~repro.obs.metrics.MetricsRegistry`; it hands the right
tracer/registry (or the null objects) to whoever asks, keeps the
records each traced cell sends home, and finalizes everything — the
campaign manifest first, then every record in wall-clock order — in
one call.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional

from .manifest import RunManifest
from .metrics import MetricsRegistry
from .trace import NULL_TRACER, Tracer, parse_jsonl, write_trace

__all__ = ["ObsSession"]


class ObsSession:
    """Trace sink + metrics registry for one campaign/experiment run."""

    def __init__(
        self,
        trace_path: Optional[str] = None,
        metrics: bool = False,
    ) -> None:
        #: Where :meth:`finalize` writes the trace (``None``: no trace).
        self.trace_path: Optional[str] = (
            os.fspath(trace_path) if trace_path else None
        )
        if self.trace_path is not None:
            # The trace's directory is made now, so a bad path fails
            # before the run rather than after it.
            os.makedirs(os.path.dirname(os.path.abspath(self.trace_path)), exist_ok=True)
        #: The parent-side tracer (the null tracer when tracing is off).
        self.tracer = (
            Tracer(common={"job": "__parent__"}) if self.trace_path else NULL_TRACER
        )
        self.metrics: Optional[MetricsRegistry] = (
            MetricsRegistry() if metrics else None
        )
        self.manifest: Optional[RunManifest] = None
        self._cell_records: List[Dict[str, Any]] = []

    @property
    def enabled(self) -> bool:
        """True when anything is actually being collected."""
        return self.trace_path is not None or self.metrics is not None

    # -- lifecycle -----------------------------------------------------------

    def stamp(
        self,
        experiment: str,
        params: Optional[Dict[str, Any]] = None,
        base_seed: Optional[int] = None,
    ) -> Optional[RunManifest]:
        """Create the campaign manifest (written at finalize time)."""
        if not self.enabled:
            return None
        self.manifest = RunManifest.for_campaign(
            experiment, params=params, base_seed=base_seed
        )
        return self.manifest

    def add_records(self, jsonl: str) -> None:
        """Keep the records one traced cell sent home as JSONL text."""
        self._cell_records.extend(parse_jsonl(jsonl))

    def finalize(self, **outcome: Any) -> int:
        """Write the trace (manifest first); returns the record count."""
        if self.manifest is not None and outcome:
            self.manifest.finish(**outcome)
        if self.trace_path is None:
            return 0
        head = []
        if self.manifest is not None:
            head.append(self.manifest.as_record())
        return write_trace(
            self.trace_path, self._cell_records + list(self.tracer.records), head=head
        )
