"""store — persistent, content-addressed results cache.

The paper's model and simulator are deterministic: a
:class:`~repro.orchestration.job.JobConfig` (seed included) fully
determines its :class:`~repro.orchestration.job.JobReport`.  That makes
results *content-addressable* — the config's canonical hash is the
result's identity — and re-running an identical campaign cell pure
waste.  :class:`ResultsStore` exploits this:

* :mod:`keys` — stable canonical cache keys (SHA-256 over a canonical
  serialization of the config + seed + package version);
* :mod:`codec` — lossless, NaN/inf-safe JSON round-trip codecs for
  ``JobReport``/``CombinedResult`` (and the advisor's
  ``Recommendation``);
* :mod:`backend` — sharded on-disk blob files (one ``<crc32> <key>``
  header line, then the canonical JSON body) with atomic writes,
  CRC-verified reads and an in-process LRU.

The directory tree is the only record of what the store holds: blobs
live under ``root/objects/<version>/``, and opening a store deletes
every other version's directory (entries an older package version
wrote can never be read by this one, because keys are version-salted).

The campaign executor consults the store before running a cell and
persists each completed cell as it finishes, so interrupted campaigns
**resume** and repeated campaigns are near-instant with bit-identical
results; the serving layer memoizes ``/recommend`` answers through the
same store.  The CLI opens a store only when ``--store DIR`` is given.
"""

from __future__ import annotations

import shutil
from pathlib import Path
from typing import Any, Callable, Dict, Optional

from ..errors import CodecError
from ..orchestration.job import JobConfig, JobReport
from .backend import DiskBackend
from .codec import (
    decode_payload,
    decode_report,
    encode_payload,
    encode_report,
)
from .keys import CODE_VERSION, fingerprint, job_key

__all__ = ["DiskBackend", "ResultsStore"]


class ResultsStore:
    """Facade tying keys + codec + backend together.

    Parameters
    ----------
    root:
        Store directory (created if missing).  Blobs live under
        ``root/objects/<version>``.
    version:
        Code version salted into every key; defaults to the package
        version.  On open, every other entry of ``root/objects``
        (other versions' directories, their quarantined blobs included)
        is deleted.
    """

    def __init__(self, root, version: Optional[str] = None) -> None:
        self.version = CODE_VERSION if version is None else str(version)
        self.root = Path(root)
        objects = self.root / "objects"
        self.backend = DiskBackend(objects / self.version)
        #: Blobs of other code versions deleted on open.
        self.invalidated = _remove_all_but(objects, self.version)
        # The append-only op log an earlier store layout kept.
        (self.root / "index.jsonl").unlink(missing_ok=True)
        #: Logical hit/miss counters (one per get_* call).
        self.hits = 0
        self.misses = 0
        self.writes = 0

    # -- job reports --------------------------------------------------------

    def report_key(self, config: JobConfig) -> str:
        """The key a cell's report is stored under: its config's, salted.

        Computing it canonicalises the whole config, so a caller that
        looks a cell up and later writes it computes it once and hands
        it to both :meth:`get_report` and :meth:`put_report`.
        """
        return job_key(config, version=self.version)

    def get_report(self, key: str) -> Optional[JobReport]:
        """The report stored under ``key``, or ``None`` on a miss."""
        return self._get(key, decode_report)

    def put_report(self, key: str, report: JobReport) -> None:
        """Persist one completed cell's report under its :meth:`report_key`."""
        self._put(key, encode_report(report))

    # -- arbitrary memoized objects (serving layer) -------------------------

    def get_object(self, kind: str, params: Any) -> Optional[Any]:
        """A memoized object stored under ``(kind, params)``, or None."""
        return self._get(
            fingerprint(kind, params, version=self.version), decode_payload
        )

    def put_object(self, kind: str, params: Any, obj: Any) -> None:
        """Memoize ``obj`` under ``(kind, params)``."""
        self._put(
            fingerprint(kind, params, version=self.version), encode_payload(obj)
        )

    def _get(self, key: str, decode: Callable[[Any], Any]) -> Optional[Any]:
        """Decode the payload under ``key``; any failure is a counted miss.

        A payload that fails to decode (codec drift inside one version,
        which should not happen, or manual tampering that preserved the
        CRC) is deleted rather than raised: the store must never make a
        resumable campaign *less* reliable than recomputing.
        """
        payload = self.backend.get(key)
        if payload is not None:
            try:
                value = decode(payload)
            except CodecError:
                self.backend.delete(key)
            else:
                self.hits += 1
                return value
        self.misses += 1
        return None

    def _put(self, key: str, payload: Any) -> None:
        self.backend.put(key, payload)
        self.writes += 1

    # -- stats --------------------------------------------------------------

    @property
    def entries(self) -> int:
        """Blobs of this version on disk, whoever wrote them.

        Quarantined (``*.corrupt``) and temporary files do not count.
        """
        return sum(1 for _ in self.backend.root.glob("*/*.json"))

    @property
    def hit_ratio(self) -> float:
        """Hits / lookups over this instance's lifetime (0.0 when idle)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def stats(self) -> Dict[str, Any]:
        """Logical counters plus the backend's tiered counters."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "hit_ratio": self.hit_ratio,
            "invalidated": self.invalidated,
            "entries": self.entries,
            "version": self.version,
            "backend": self.backend.stats(),
        }

    def render_stats(self) -> str:
        """One-line human summary (the CLI epilogue)."""
        return (
            f"store: {self.hits} hits, {self.misses} misses, "
            f"{self.writes} writes ({self.entries} entries at {self.root})"
        )


def _remove_all_but(objects: Path, keep: str) -> int:
    """Delete every entry of ``objects`` except ``keep``; count the blobs."""
    removed = 0
    for entry in objects.iterdir():
        if entry.name == keep:
            continue
        if entry.is_dir():
            removed += sum(1 for _ in entry.rglob("*.json"))
            shutil.rmtree(entry, ignore_errors=True)
        else:
            removed += entry.suffix == ".json"
            entry.unlink(missing_ok=True)
    return removed

