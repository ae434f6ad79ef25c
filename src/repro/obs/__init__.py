"""Structured observability: traces, metrics, run manifests.

Three pieces, all zero-overhead when off:

* :mod:`repro.obs.trace` — JSONL span/event tracing (sim + wall time)
  with a process-safe sink for the parallel campaign executor;
* :mod:`repro.obs.metrics` — counters, gauges and fixed-bucket
  histograms with a cross-process snapshot/merge protocol;
* :mod:`repro.obs.manifest` — provenance records (config, seeds,
  versions, outcome) that make any trace self-describing.

:mod:`repro.obs.report` turns a merged trace back into the per-phase
time-breakdown table, and :mod:`repro.obs.session` bundles the lot for
the CLI.
"""

from .manifest import RunManifest, collect_versions, config_snapshot
from .metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .report import (
    JobPhases,
    TraceReport,
    build_report,
    render_report,
    report_from_file,
)
from .session import ObsSession
from .trace import (
    NULL_TRACER,
    Span,
    Tracer,
    TraceSession,
    merge_trace_parts,
    read_trace,
    write_jsonl,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "NULL_TRACER",
    "Counter",
    "Gauge",
    "Histogram",
    "JobPhases",
    "MetricsRegistry",
    "ObsSession",
    "RunManifest",
    "Span",
    "TraceReport",
    "TraceSession",
    "Tracer",
    "build_report",
    "collect_versions",
    "config_snapshot",
    "merge_trace_parts",
    "read_trace",
    "render_report",
    "report_from_file",
    "write_jsonl",
]
