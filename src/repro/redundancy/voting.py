"""Replica message comparison and majority voting.

RedMPI's headline safety feature: because every receiver gets the
"same" message from every replica of the sender, a corrupted copy
(Byzantine sender, bit-flipped buffer) is detectable by comparison and
— with three or more copies — correctable by majority vote.

Two operating modes, as in the paper:

* **All-to-all** (:data:`ALL_TO_ALL`): every sender replica ships the
  complete message to every receiver replica.  Voting compares full
  payload digests; the majority payload is delivered.
* **Msg-PlusHash** (:data:`MSG_PLUS_HASH`): one sender replica ships
  the complete message, the others ship a 64-bit digest.  Bandwidth
  drops from ``r`` full copies to one copy plus ``r - 1`` hashes; a
  mismatch between the message and the digests is detectable, and with
  ``r >= 3`` the faulty copy is identified by which digests agree.

The copies of one message are the :class:`~repro.mpi.matching.Envelope`
objects its receive set matched.  A copy whose tag is the receive's tag
carries the message; a digest copy travels under a shifted tag and
carries the sender's digest as its payload.

When digests are computed: a sender computes the digest it ships in
Msg-PlusHash mode.  A receiver computes none on arrival; :func:`vote`
first checks, without hashing, whether every copy is full and agrees
with the first, and only :func:`tally` hashes the copies, when they
disagree or when a digest-only copy has to be compared.
"""

from __future__ import annotations

from collections import Counter as _TallyCounter
from math import copysign
from typing import Any, List, MutableMapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..errors import VotingError
from ..mpi.datatypes import digest_bytes, payload_digest
from ..mpi.matching import Envelope

#: Mode constants.
ALL_TO_ALL = "all-to-all"
MSG_PLUS_HASH = "msg-plus-hash"

MODES = (ALL_TO_ALL, MSG_PLUS_HASH)

#: Digest copies of a message tagged ``t`` travel at ``t + HASH_TAG_OFFSET``.
HASH_TAG_OFFSET = 1 << 24


class VoteResult(NamedTuple):
    """Outcome of tallying the copies of one virtual message."""

    #: The first full copy carrying the majority digest: the one delivered.
    winner: Envelope
    #: True when every copy agreed.
    unanimous: bool
    #: Physical sender ranks whose copy disagreed with the majority.
    corrupt_senders: Tuple[int, ...]


def vote(
    copies: Sequence[Envelope],
    tag: int,
    counters: Optional[MutableMapping[str, float]] = None,
) -> Envelope:
    """Compare replica copies; return the copy whose payload is delivered.

    ``copies`` are the matched envelopes of one receive set and ``tag``
    its tag.  When every copy is full and its payload digests like the
    first's, that is the whole vote: the first copy is returned and
    nothing is built.  Agreement is decided without hashing and, for the
    payloads the workloads send, without building the bytes
    :func:`digest_bytes` would give: see :func:`_same_digest_bytes`.
    Otherwise :func:`tally` decides; a vote that was not unanimous adds
    one to ``counters["votes_not_unanimous"]`` and the outvoted copies
    to ``counters["corrupt_copies_voted_out"]``.

    Raises
    ------
    VotingError
        As :func:`tally`.
    """
    if not copies:
        raise VotingError("no replica copies to vote on")
    # A plain loop, here rather than in a helper: this runs once per
    # voted message.
    first = copies[0].payload
    for copy in copies:
        if copy.tag != tag:
            break
        other = copy.payload
        if other is not first and not _same_digest_bytes(first, other):
            break
    else:
        return copies[0]
    outcome = tally(copies, tag)
    if counters is not None and not outcome.unanimous:
        counters["votes_not_unanimous"] += 1
        counters["corrupt_copies_voted_out"] += len(outcome.corrupt_senders)
    return outcome.winner


def tally(copies: Sequence[Envelope], tag: int) -> VoteResult:
    """Tally the copies' digests; the majority's first full copy wins.

    Raises
    ------
    VotingError
        * no copies at all (sphere died before sending);
        * copies disagree with no strict majority (undetectable which
          is correct — RedMPI can detect with 2 copies but only
          correct with >= 3);
        * the majority digest has no full payload among its copies
          (can only happen in Msg-PlusHash mode when the payload
          carrier itself is the corrupt one *and* ``r == 2``).
    """
    if not copies:
        raise VotingError("no replica copies to vote on")
    digests = [
        payload_digest(copy.payload) if copy.tag == tag else copy.payload
        for copy in copies
    ]
    counts = _TallyCounter(digests)
    majority_digest, majority_count = counts.most_common(1)[0]
    if len(counts) > 1 and majority_count <= len(copies) - majority_count:
        raise VotingError(
            f"replica copies disagree with no majority "
            f"({len(counts)} distinct digests over {len(copies)} copies)"
        )
    corrupt = tuple(
        copy.source
        for copy, digest in zip(copies, digests)
        if digest != majority_digest
    )
    for copy, digest in zip(copies, digests):
        if digest == majority_digest and copy.tag == tag:
            return VoteResult(copy, len(counts) == 1, corrupt)
    raise VotingError(
        "majority digest carried no full payload (corrupted message "
        "copy with r=2 in Msg-PlusHash mode is detectable but not "
        "correctable)"
    )


#: Unsigned integer dtypes by item size: an array viewed as one is
#: compared bit for bit, with no copy of its buffer.
_BIT_VIEWS = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}


def _same_digest_bytes(first: Any, other: Any) -> bool:
    """``digest_bytes(first) == digest_bytes(other)``, mostly without them.

    Two ndarrays agree when dtype and shape match and their elements
    are bitwise equal.  Two scalars of one exact type agree as their
    ``repr`` does: a float (or ``np.float64``) by value and sign, with
    every NaN alike; an int, str or bytes by value.  Any other pair,
    mixed types included (``True``, ``1`` and ``1.0`` differ), falls
    back to comparing :func:`digest_bytes`.  The scalar test comes
    first, with no call for two equal nonzero floats: the allreduce
    values are the copies most often compared.
    """
    kind = type(first)
    if kind is type(other):
        if kind is float or kind is np.float64:
            if first == other:
                # Equal nonzero floats share their sign; zeros may not.
                return first != 0.0 or copysign(1.0, first) == copysign(1.0, other)
            return first != first and other != other
        if kind is int or kind is str or kind is bytes:
            return first == other
    if isinstance(first, np.ndarray) and isinstance(other, np.ndarray):
        dtype = first.dtype
        if other.shape != first.shape:
            return False
        # ``digest_bytes`` spells the dtype with ``str``, which costs
        # microseconds; one dtype object spells alike without it.
        if other.dtype is not dtype and str(other.dtype) != str(dtype):
            return False
        bits = None if dtype.hasobject else _BIT_VIEWS.get(dtype.itemsize)
        if bits is None:
            return first.tobytes() == other.tobytes()
        return bool((first.view(bits) == other.view(bits)).all())
    return digest_bytes(first) == digest_bytes(other)


def plan_copies(
    sender_replicas: List[int],
    receiver_replicas: List[int],
    mode: str,
) -> dict:
    """Which sender replica ships what to which receiver replica.

    Returns a mapping ``(sender_physical, receiver_physical) ->
    "full" | "hash"``.  In All-to-all mode everything is full.  In
    Msg-PlusHash mode, receiver replica ``j`` gets the full message
    from sender replica ``j mod len(senders)`` and digests from the
    rest, so every receiver has exactly one payload carrier even under
    partial redundancy (unequal sphere sizes).
    """
    if mode not in MODES:
        raise VotingError(f"unknown voting mode {mode!r}")
    plan = {}
    sender_count = len(sender_replicas)
    if sender_count == 0:
        # Exhausted sender sphere: nothing will ever be shipped.  The
        # caller's request set stays empty and pending; job-level
        # failure handling tears the attempt down.
        return plan
    for j, receiver in enumerate(receiver_replicas):
        carrier = sender_replicas[j % sender_count]
        for sender in sender_replicas:
            if mode == ALL_TO_ALL or sender == carrier:
                plan[(sender, receiver)] = "full"
            else:
                plan[(sender, receiver)] = "hash"
    return plan
