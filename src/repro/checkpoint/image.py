"""Per-process checkpoint images.

A process image is the serialised workload state of one rank — really
serialised, so restart *restores the actual numbers* and tests can
assert bit-identical recovery (the property BLCR provides at the
whole-address-space level).  Integrity is checked once, by
:meth:`~repro.checkpoint.storage.StoredBlob.verify`, against the CRC
storage recorded before any at-rest damage.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True)
class ProcessImage:
    """A captured process state, ready for stable storage."""

    data: bytes

    @property
    def nbytes(self) -> int:
        """Size of the serialised image."""
        return len(self.data)


def capture_image(state: Any) -> ProcessImage:
    """Serialise ``state`` into an image."""
    return ProcessImage(data=pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL))


def restore_image(data: bytes) -> Any:
    """Deserialise stored image bytes back into live state."""
    return pickle.loads(data)
