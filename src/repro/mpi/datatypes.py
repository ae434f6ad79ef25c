"""Payload sizing: how many bytes a message occupies on the wire.

The simulator moves real Python objects between ranks (so workloads
compute real answers) but charges network time by byte count.  This
module is the single place that decides how big an object is.
"""

from __future__ import annotations

import hashlib
import pickle
import struct
from typing import Any

import numpy as np

#: Fixed envelope overhead charged per message (headers, match bits).
ENVELOPE_OVERHEAD = 64


def payload_nbytes(payload: Any) -> int:
    """Wire size of ``payload`` in bytes (excluding envelope overhead).

    * numpy arrays: exact buffer size;
    * bytes-likes and strings: their length (UTF-8 for str);
    * ints/floats/bools/None: 8 bytes (a typical scalar datatype);
    * tuples/lists/dicts: recursive element sum plus 8 bytes per item
      of framing;
    * anything else: pickled length (accurate and always available).

    The exact ``float``, ``int``, ``bool`` and ``np.ndarray`` payloads
    the workloads and collectives send are sized before any
    ``isinstance`` test.
    """
    kind = type(payload)
    if kind is float or kind is int or kind is bool:
        return 8
    if kind is np.ndarray:
        return payload.nbytes
    if payload is None or isinstance(payload, (bool, int, float, complex)):
        return 8
    if isinstance(payload, np.ndarray):
        return int(payload.nbytes)
    if isinstance(payload, np.generic):
        return int(payload.nbytes)
    if isinstance(payload, (bytes, bytearray, memoryview)):
        return len(payload)
    if isinstance(payload, str):
        return len(payload.encode("utf-8"))
    if isinstance(payload, (tuple, list)):
        return sum(payload_nbytes(item) + 8 for item in payload)
    if isinstance(payload, dict):
        return sum(
            payload_nbytes(key) + payload_nbytes(value) + 8
            for key, value in payload.items()
        )
    return len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))


def message_wire_size(payload: Any) -> int:
    """Total bytes on the wire: payload plus envelope overhead."""
    return payload_nbytes(payload) + ENVELOPE_OVERHEAD


def digest_bytes(payload: Any) -> bytes:
    """The bytes :func:`payload_digest` hashes.

    numpy arrays give their raw buffer plus dtype and shape; bytes-likes
    themselves; strings their UTF-8; ``None``, bools, ints and floats
    their ``repr``; anything else its canonical pickle.  Two payloads
    digest alike exactly when these bytes are equal (up to collisions
    of the 64-bit hash), so comparing them decides agreement without
    hashing.
    """
    if isinstance(payload, np.ndarray):
        return payload.tobytes() + str(payload.dtype).encode() + str(payload.shape).encode()
    if isinstance(payload, (bytes, bytearray, memoryview)):
        return bytes(payload)
    if isinstance(payload, str):
        return payload.encode("utf-8")
    if payload is None or isinstance(payload, (bool, int, float)):
        return repr(payload).encode("utf-8")
    return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)


def payload_digest(payload: Any) -> int:
    """Order-stable 64-bit digest of a payload: the hash of :func:`digest_bytes`.

    Used by the redundancy layer's Msg-PlusHash mode and by its
    corrupt-message voting: two replicas sending "the same" message
    must produce equal digests.
    """
    # blake2b runs at C speed and is deterministic across runs/platforms.
    return int.from_bytes(
        hashlib.blake2b(digest_bytes(payload), digest_size=8).digest(), byteorder="little"
    )


#: Size of a digest message in Msg-PlusHash mode.
DIGEST_NBYTES = struct.calcsize("Q")
