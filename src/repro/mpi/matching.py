"""The message envelope and the receive-completion callable.

An :class:`Envelope` is one message in flight or queued; a posted
receive completes by calling a :data:`Completion` with the envelope it
matched.  The matching rules live in
:class:`~repro.mpi.runtime.SimMPI`.
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple


class Envelope(NamedTuple):
    """One message in flight (or queued): addressing + payload.

    A tuple, so the runtime builds one per copy with a single
    allocation (``tuple.__new__``).  ``nbytes`` is the wire size
    (payload plus :data:`~repro.mpi.datatypes.ENVELOPE_OVERHEAD`).
    """

    source: int
    dest: int
    tag: int
    payload: Any
    nbytes: int


#: A receive's completion: called once with the matched envelope.
Completion = Callable[[Envelope], None]
