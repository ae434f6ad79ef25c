"""Per-process checkpoint images.

A process image is the serialised workload state of one rank — really
serialised, so restart *restores the actual numbers* and tests can
assert bit-identical recovery (the property BLCR provides at the
whole-address-space level).  :func:`checksum` is the one integrity
digest.  An image computes its CRC the first time it is read: storage
reads it only to check bytes that are not the image's own (a copy the
fault model or a test damaged), so a run where no blob is damaged
computes none.  Checking a checkpoint when it is read, not when it is
written, is the scheme of Aupy et al.
"""

from __future__ import annotations

import pickle
import zlib
from typing import Any, Optional


def checksum(data: bytes) -> int:
    """The integrity digest of a blob's bytes (CRC-32)."""
    return zlib.crc32(data)


class ProcessImage:
    """A captured process state, ready for stable storage."""

    __slots__ = ("data", "_crc")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self._crc: Optional[int] = None

    @property
    def crc(self) -> int:
        """``checksum(data)``, computed on first read and kept.

        No caller can pass another value: the digest is always the
        data's own.
        """
        crc = self._crc
        if crc is None:
            crc = self._crc = checksum(self.data)
        return crc

    @property
    def nbytes(self) -> int:
        """Size of the serialised image."""
        return len(self.data)


class _Chunks(list):
    """A pickler's file: each write is kept as a chunk, uncopied."""

    __slots__ = ()
    write = list.append


def capture_image(state: Any) -> ProcessImage:
    """Serialise ``state`` into an image.

    The bytes are exactly ``pickle.dumps(state,
    protocol=pickle.HIGHEST_PROTOCOL)``.  A ``Pickler`` writes them as
    chunks onto a list, and one ``join`` copies them into a bytes
    object of the exact size.  A large array's buffer is a chunk of its
    own, written past the pickler's frame rather than copied into it,
    so it is copied once, by the join: ``pickle.dumps`` copies it into
    an output buffer that it grows and then trims, and a ``BytesIO``
    copies it into a buffer an eighth larger than its contents and then
    shrinks that.
    """
    chunks = _Chunks()
    pickle.Pickler(chunks, protocol=pickle.HIGHEST_PROTOCOL).dump(state)
    return ProcessImage(b"".join(chunks))


def restore_image(data: bytes) -> Any:
    """Deserialise stored image bytes back into live state."""
    return pickle.loads(data)
