"""Storage fault injection: the chaos model for stable storage.

The paper's harness assumes the fault-tolerance machinery itself is
perfect — checkpoints always commit and images are never damaged.
Real parallel file systems violate both: writes fail transiently under
load, and data rots at rest (silent bit corruption, the regime of Aupy
et al.'s silent-error work).  :class:`StorageFaultModel` injects
exactly those two fault classes into
:class:`~repro.checkpoint.storage.StableStorage`,
deterministically from a seed, so chaos campaigns are reproducible and
sweepable under common random numbers.

Determinism contract:

* a disabled model (all probabilities zero) draws **nothing** from its
  stream and injects nothing — the chaos layer is a strict no-op;
* an enabled model draws a fixed number of variates per storage
  operation *regardless of which individual probabilities are zero*,
  so sweeping one probability while holding the seed keeps every other
  fault decision aligned (common random numbers across sweep points).
  A write draws three variates and a read two.  The first variate of
  a write, and both of a read, are unused; they are still drawn so
  that seeded fault streams, and the chaos outputs pinned to them, do
  not shift.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from ..errors import ConfigurationError

#: Spawn key mixed into the seed so the fault stream never collides
#: with the failure injector's stream for the same campaign seed.
_STREAM_KEY = 0x5F0C5

_PROBABILITIES = ("write_fail_prob", "corrupt_prob")


@dataclass(frozen=True)
class StorageFaultConfig:
    """Chaos knobs for stable storage.

    Both probabilities are per blob write.  ``corrupt_prob`` is the
    chance a successfully written blob is silently damaged at rest —
    its payload is bit-flipped while the recorded CRC keeps the
    original value, so the damage surfaces only on read-back
    verification, exactly like real at-rest corruption.
    """

    write_fail_prob: float = 0.0
    corrupt_prob: float = 0.0

    def __post_init__(self) -> None:
        for name in _PROBABILITIES:
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(
                    f"{name} must be in [0, 1], got {value}"
                )

    @property
    def enabled(self) -> bool:
        """True when any fault class can actually fire."""
        return any(getattr(self, name) > 0.0 for name in _PROBABILITIES)


@dataclass(frozen=True)
class WriteVerdict:
    """What the fault model decided about one write."""

    fail: bool = False
    corrupt: bool = False


#: Verdict returned on every write while the model is disabled — a
#: shared constant so the no-op path allocates nothing per call.
_CLEAN_WRITE = WriteVerdict()


class StorageFaultModel:
    """Seeded, deterministic fault decisions for stable storage.

    ``seed`` is the job's own seed.  One model instance serves one job
    (all attempts): the stream advances across restarts, so a retried
    write sees a *fresh* draw — which is what makes retry-with-backoff
    effective against transient write failures.
    """

    def __init__(self, config: StorageFaultConfig, seed: int = 0) -> None:
        self.config = config
        sequence = np.random.SeedSequence(entropy=int(seed), spawn_key=(_STREAM_KEY,))
        self._rng = np.random.default_rng(sequence)
        self.writes_failed = 0
        self.blobs_corrupted = 0

    @property
    def enabled(self) -> bool:
        """True when the model can inject anything at all."""
        return self.config.enabled

    # -- per-operation decisions -------------------------------------------

    def on_write(self) -> WriteVerdict:
        """Decide the fate of one blob write (three aligned draws)."""
        if not self.enabled:
            return _CLEAN_WRITE
        cfg = self.config
        _, fail, corrupt = self._rng.random(3)
        if fail < cfg.write_fail_prob:
            self.writes_failed += 1
            return WriteVerdict(fail=True)
        if corrupt < cfg.corrupt_prob:
            self.blobs_corrupted += 1
            return WriteVerdict(corrupt=True)
        return _CLEAN_WRITE

    def on_read(self) -> None:
        """Account one blob read; reads never fail."""
        if self.enabled:
            # Two unused draws: without them every later decision of a
            # seeded stream shifts, and so do the seeded chaos outputs.
            self._rng.random(2)

    def damage(self, data: bytes) -> bytes:
        """Flip one bit of ``data`` at a position drawn from the stream."""
        if not data:
            return data
        position = int(self._rng.integers(0, len(data)))
        bit = 1 << int(self._rng.integers(0, 8))
        damaged = bytearray(data)
        damaged[position] ^= bit
        return bytes(damaged)

    def counters(self) -> Dict[str, int]:
        """Injection counts so far (surfaced in job reports)."""
        return {
            "storage_writes_failed": self.writes_failed,
            "storage_blobs_corrupted": self.blobs_corrupted,
        }
