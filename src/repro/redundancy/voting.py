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

When digests are computed: a sender computes the digest it ships in
Msg-PlusHash mode.  A receiver computes none on arrival; :func:`vote`
first checks, without hashing, whether every full copy agrees with the
first, and only hashes the copies when they disagree or when a
digest-only copy has to be compared.
"""

from __future__ import annotations

from collections import Counter as _TallyCounter
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import VotingError
from ..mpi.datatypes import digest_bytes, payload_digest

#: Mode constants.
ALL_TO_ALL = "all-to-all"
MSG_PLUS_HASH = "msg-plus-hash"

MODES = (ALL_TO_ALL, MSG_PLUS_HASH)


@dataclass(frozen=True)
class ReplicaCopy:
    """One copy received from one sender replica.

    ``payload`` is ``None`` for digest-only copies (Msg-PlusHash mode),
    whose ``digest`` is the one the sender shipped.  A full copy's
    ``digest`` stays ``None``: :func:`vote` hashes the payload only
    when the copies disagree.
    """

    sender_physical: int
    digest: Optional[int] = None
    payload: Any = None
    has_payload: bool = False

    @staticmethod
    def full(sender_physical: int, payload: Any) -> "ReplicaCopy":
        """A complete-message copy."""
        return ReplicaCopy(
            sender_physical=sender_physical, payload=payload, has_payload=True
        )

    @staticmethod
    def hash_only(sender_physical: int, digest: int) -> "ReplicaCopy":
        """A digest-only copy."""
        return ReplicaCopy(sender_physical=sender_physical, digest=digest)


@dataclass(frozen=True)
class VoteResult:
    """Outcome of comparing the copies of one virtual message."""

    payload: Any
    #: True when every copy agreed.
    unanimous: bool
    #: Physical sender ranks whose copy disagreed with the majority.
    corrupt_senders: Tuple[int, ...]


def vote(copies: Sequence[ReplicaCopy]) -> VoteResult:
    """Compare replica copies; deliver the majority payload.

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
    if _all_agree(copies):
        return VoteResult(payload=copies[0].payload, unanimous=True, corrupt_senders=())
    digests = [
        payload_digest(copy.payload) if copy.digest is None else copy.digest
        for copy in copies
    ]
    tally = _TallyCounter(digests)
    majority_digest, majority_count = tally.most_common(1)[0]
    if len(tally) > 1 and majority_count <= len(copies) - majority_count:
        raise VotingError(
            f"replica copies disagree with no majority "
            f"({len(tally)} distinct digests over {len(copies)} copies)"
        )
    corrupt = tuple(
        copy.sender_physical
        for copy, digest in zip(copies, digests)
        if digest != majority_digest
    )
    winner: Optional[ReplicaCopy] = None
    for copy, digest in zip(copies, digests):
        if digest == majority_digest and copy.has_payload:
            winner = copy
            break
    if winner is None:
        raise VotingError(
            "majority digest carried no full payload (corrupted message "
            "copy with r=2 in Msg-PlusHash mode is detectable but not "
            "correctable)"
        )
    return VoteResult(
        payload=winner.payload,
        unanimous=len(tally) == 1,
        corrupt_senders=corrupt,
    )


def _all_agree(copies: Sequence[ReplicaCopy]) -> bool:
    """True when every copy is full and its payload digests like the first.

    Decided without hashing: a shared object agrees with itself, two
    ndarrays are compared by dtype, shape and raw bytes, and any other
    pair by the bytes :func:`payload_digest` would hash
    (:func:`digest_bytes`).
    """
    if not all(copy.has_payload for copy in copies):
        return False
    first = copies[0].payload
    first_buffer = first_bytes = None
    for copy in copies[1:]:
        other = copy.payload
        if other is first:
            continue
        if isinstance(first, np.ndarray) and isinstance(other, np.ndarray):
            if other.shape != first.shape or str(other.dtype) != str(first.dtype):
                return False
            if first_buffer is None:
                first_buffer = first.tobytes()
            if other.tobytes() != first_buffer:
                return False
        else:
            if first_bytes is None:
                first_bytes = digest_bytes(first)
            if digest_bytes(other) != first_bytes:
                return False
    return True


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
