"""Run manifests: enough provenance to reproduce any result.

A :class:`RunManifest` captures what produced a run — the fully
resolved configuration, the seeds, the toolchain versions and (once
known) the outcome.  Jobs embed their manifest as the first record of
their trace stream; campaigns write one manifest at the head of the
trace file, so a trace is self-describing: re-running the
config in the manifest with the same seed reproduces the records below
it bit for bit.
"""

from __future__ import annotations

import dataclasses
import platform
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

__all__ = ["RunManifest", "collect_versions", "config_snapshot"]


def collect_versions() -> Dict[str, str]:
    """Toolchain versions that shape a run's numbers."""
    from .._version import __version__

    versions = {
        "repro": __version__,
        "python": platform.python_version(),
    }
    try:
        import numpy

        versions["numpy"] = numpy.__version__
    except Exception:  # pragma: no cover - numpy is a hard dependency
        pass
    return versions


def _jsonable(value: Any) -> Any:
    """Coerce one config field into something JSON can carry.

    Callables (workload factories) and other opaque objects degrade to
    their ``repr`` — still enough to reconstruct the run by hand.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    return repr(value)


def config_snapshot(config: Any) -> Dict[str, Any]:
    """A JSON-friendly dump of a (dataclass) configuration object."""
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        return {
            f.name: _jsonable(getattr(config, f.name))
            for f in dataclasses.fields(config)
        }
    if isinstance(config, dict):
        return {str(key): _jsonable(value) for key, value in config.items()}
    return {"config": repr(config)}


@dataclass
class RunManifest:
    """Config + seeds + versions + outcome of one job or campaign."""

    #: "job" or "campaign".
    kind: str
    #: Human-readable identity (the trace's ``job`` field for jobs,
    #: the experiment id for campaigns).
    label: str
    config: Dict[str, Any] = field(default_factory=dict)
    seeds: Dict[str, int] = field(default_factory=dict)
    versions: Dict[str, str] = field(default_factory=collect_versions)
    #: Wall-clock creation stamp (epoch seconds).
    created: float = field(default_factory=time.time)
    #: Filled in after the run: completed/total_time/... for jobs,
    #: cell counts and executor stats for campaigns.
    outcome: Dict[str, Any] = field(default_factory=dict)

    # -- constructors -------------------------------------------------------

    @classmethod
    def for_job(cls, config: Any, label: str) -> "RunManifest":
        """Manifest of one :class:`~repro.orchestration.job.JobConfig` run."""
        seeds = {}
        seed = getattr(config, "seed", None)
        if seed is not None:
            seeds["job"] = int(seed)
        return cls(
            kind="job",
            label=label,
            config=config_snapshot(config),
            seeds=seeds,
        )

    @classmethod
    def for_campaign(
        cls,
        experiment: str,
        params: Optional[Dict[str, Any]] = None,
        base_seed: Optional[int] = None,
    ) -> "RunManifest":
        """Manifest of one campaign/experiment invocation."""
        seeds = {} if base_seed is None else {"base": int(base_seed)}
        return cls(
            kind="campaign",
            label=experiment,
            config=config_snapshot(params or {}),
            seeds=seeds,
        )

    # -- use ----------------------------------------------------------------

    def finish(self, **outcome: Any) -> "RunManifest":
        """Record the run's outcome (merges into existing fields)."""
        self.outcome.update({key: _jsonable(value) for key, value in outcome.items()})
        return self

    def as_record(self) -> Dict[str, Any]:
        """The manifest as one trace record (``type: "manifest"``)."""
        record = dataclasses.asdict(self)
        record["type"] = "manifest"
        return record
