"""Per-process checkpoint images.

A process image is the serialised workload state of one rank — really
serialised, so restart *restores the actual numbers* and tests can
assert bit-identical recovery (the property BLCR provides at the
whole-address-space level).  "Serialised" means a pickle frame plus
the read-only array buffers it refers to: memory that nothing may
write again (the workload contract says so of read-only arrays) is
already as immutable as a copy would be, so the image holds it by
reference and a restore reads it in place.  Everything else — writable
arrays, read-only views of writable memory, scalars and containers —
is copied into the frame.

:func:`checksum` is the one integrity digest, CRC-32 over the frame
and then each buffer.  An image computes its CRC the first time it is
read: storage reads it only to check bytes that are not the image's
own (a copy the fault model or a test damaged), so a run where no blob
is damaged computes none.  Checking a checkpoint when it is read, not
when it is written, is the scheme of Aupy et al.
"""

from __future__ import annotations

import pickle
import zlib
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np


def checksum(data: bytes, buffers: Sequence[memoryview] = ()) -> int:
    """The integrity digest of ``data`` followed by ``buffers`` (CRC-32)."""
    crc = zlib.crc32(data)
    for buffer in buffers:
        crc = zlib.crc32(buffer, crc)
    return crc


class ProcessImage:
    """A captured process state, ready for stable storage.

    ``data`` is the pickle frame and ``buffers`` the out-of-band
    buffers it refers to, in order: read-only byte views of memory
    nothing writes again.
    """

    __slots__ = ("data", "buffers", "_crc")

    def __init__(self, data: bytes, buffers: Tuple[memoryview, ...] = ()) -> None:
        self.data = data
        self.buffers = buffers
        self._crc: Optional[int] = None

    @property
    def crc(self) -> int:
        """``checksum(data, buffers)``, computed on first read and kept.

        No caller can pass another value: the digest is always the
        image's own.
        """
        crc = self._crc
        if crc is None:
            crc = self._crc = checksum(self.data, self.buffers)
        return crc

    @property
    def nbytes(self) -> int:
        """Size of the image: the frame plus its buffers."""
        return len(self.data) + sum(len(buffer) for buffer in self.buffers)


def _read_only(owner: Any) -> bool:
    """True when no one can write ``owner``'s memory.

    An array is read-only only if it and every array or view below it
    is; the memory at the bottom of the chain must be read-only too.
    """
    while True:
        if isinstance(owner, np.ndarray):
            if owner.flags.writeable:
                return False
            if owner.base is None:
                return True
            owner = owner.base
        elif isinstance(owner, memoryview):
            if not owner.readonly:
                return False
            owner = owner.obj
        else:
            try:
                with memoryview(owner) as view:
                    return view.readonly
            except TypeError:
                return False


class _Chunks(list):
    """A pickler's file: each write is kept as a chunk, uncopied."""

    __slots__ = ()
    write = list.append


def capture_image(state: Any) -> ProcessImage:
    """Serialise ``state`` into an image.

    The frame is exactly ``pickle.dumps(state, protocol=5,
    buffer_callback=...)`` where the callback keeps out of band each
    buffer whose memory is read-only all the way down, and those
    buffers are the image's, uncopied.  A writable buffer, or a
    read-only view of writable memory, is copied into the frame, since
    its owner may still change it.  A ``Pickler`` writes the frame as
    chunks onto a list, and one ``join`` copies them into a bytes
    object of the exact size: a large in-band buffer is a chunk of its
    own, written past the pickler's frame rather than copied into it,
    so it is copied once.
    """
    buffers: List[memoryview] = []

    def out_of_band(buffer: pickle.PickleBuffer) -> bool:
        view = buffer.raw()
        if _read_only(view):
            buffers.append(view)
            return False
        return True

    chunks = _Chunks()
    pickle.Pickler(chunks, protocol=5, buffer_callback=out_of_band).dump(state)
    return ProcessImage(b"".join(chunks), tuple(buffers))


def restore_image(data: bytes, buffers: Sequence[memoryview] = ()) -> Any:
    """Deserialise an image's frame and buffers back into live state.

    The buffers are read in place: a restored read-only array shares
    the captured array's memory.
    """
    return pickle.loads(data, buffers=buffers)
