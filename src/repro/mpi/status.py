"""Status objects and wildcard constants (mirrors MPI_Status)."""

from __future__ import annotations

from typing import NamedTuple

#: Wildcard matching any sending rank (MPI_ANY_SOURCE).
ANY_SOURCE = -1
#: Wildcard matching any message tag (MPI_ANY_TAG).
ANY_TAG = -2


class Status(NamedTuple):
    """Completion metadata of a receive: an immutable, hashable record.

    A tuple, so building one (once per completed receive) costs a
    single allocation.

    Attributes
    ----------
    source:
        Rank that sent the matched message (the *actual* source, even
        for wildcard receives — this is what the redundancy layer's
        ANY_SOURCE protocol forwards to sibling replicas).
    tag:
        Tag of the matched message.
    nbytes:
        Payload size in bytes.
    """

    source: int
    tag: int
    nbytes: int
