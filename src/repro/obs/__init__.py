"""Structured observability: traces, metrics, run manifests.

Three pieces, all zero-overhead when off:

* :mod:`repro.obs.trace` — JSONL span/event tracing (sim + wall time)
  whose records travel home with each campaign cell's result;
* :mod:`repro.obs.metrics` — counters, gauges and fixed-bucket
  histograms with a cross-process snapshot/merge protocol;
* :mod:`repro.obs.manifest` — provenance records (config, seeds,
  versions, outcome) that make any trace self-describing.

:mod:`repro.obs.report` turns a trace file back into the per-phase
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
    parse_jsonl,
    read_trace,
    to_jsonl,
    write_jsonl,
    write_trace,
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
    "Tracer",
    "build_report",
    "collect_versions",
    "config_snapshot",
    "parse_jsonl",
    "read_trace",
    "render_report",
    "report_from_file",
    "to_jsonl",
    "write_jsonl",
    "write_trace",
]
