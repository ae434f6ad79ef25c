"""Named deterministic random-number streams.

Every stochastic component of the simulator (the failure injector's
``faults`` stream) draws from its **own** named stream derived from a
single campaign seed.  This gives two properties the
experiments need:

* **Reproducibility** — a (seed, stream-name) pair always yields the
  same sequence, independent of how many draws other components made.
* **Variance isolation** — changing, say, the redundancy degree does not
  perturb the failure times injected for unrelated processes, so sweeps
  compare like with like (common random numbers).

Streams are ``numpy.random.Generator`` instances seeded via
``SeedSequence.spawn``-style keying on the stream name.
"""

from __future__ import annotations

import zlib
from typing import Dict

import numpy as np

from .errors import ConfigurationError


def _key_for(name: str) -> int:
    """Stable 32-bit key for a stream name (crc32 is version-stable)."""
    return zlib.crc32(name.encode("utf-8"))


class StreamRegistry:
    """Factory for named deterministic random streams.

    >>> reg = StreamRegistry(seed=42)
    >>> a = reg.stream("faults/node-0")
    >>> b = reg.stream("faults/node-1")
    >>> a is reg.stream("faults/node-0")
    True
    """

    def __init__(self, seed: int) -> None:
        if not isinstance(seed, (int, np.integer)):
            raise ConfigurationError(f"seed must be an int, got {type(seed).__name__}")
        self._seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> int:
        """The campaign-level base seed."""
        return self._seed

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use."""
        generator = self._streams.get(name)
        if generator is None:
            sequence = np.random.SeedSequence(entropy=self._seed, spawn_key=(_key_for(name),))
            generator = np.random.default_rng(sequence)
            self._streams[name] = generator
        return generator
