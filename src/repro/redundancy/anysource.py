"""The wildcard-receive (MPI_ANY_SOURCE) protocol of Section 3.

A wildcard receive is the one place replicas could diverge: if each
replica independently matched "any" message, two replicas of the same
virtual process might consume messages from *different* virtual
senders and their states would fork.  The paper's protocol (steps 1-3
of Section 3) serialises the choice through a leader:

1. only the sphere's **lead** replica posts the physical wildcard
   receive;
2. when it matches, the lead learns the actual sender, forwards the
   envelope information (the sender's virtual rank) to its sibling
   replicas, and posts specific receives for the remaining copies of
   that same message;
3. each sibling uses the forwarded envelope to post *specific*
   receives from the replicas of that sender, guaranteeing all
   replicas consume the message of the same virtual sender.

Control messages travel at ``CONTROL_TAG_BASE + tag`` so they can
never match application traffic.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..errors import RedundancyError
from ..mpi.status import ANY_SOURCE

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .interpose import RedComm

#: Envelope-forwarding control messages live above every other tag space.
CONTROL_TAG_BASE = 1 << 28


def anysource_recv(redcomm: "RedComm", tag: int):
    """Generator implementing the wildcard protocol; returns (payload, Status).

    Must be called (in the same program position) by every live replica
    of the receiving sphere, like any other interposed operation.
    """
    if tag < 0 or tag >= CONTROL_TAG_BASE:
        raise RedundancyError(f"wildcard recv tag {tag} out of range")
    redcomm.runtime.counters["wildcard_recvs"] += 1
    my_virtual = redcomm.rank
    lead = redcomm.tracker.lead_replica(my_virtual)
    control_tag = CONTROL_TAG_BASE + tag

    if redcomm.physical_rank == lead:
        # Step 1: only the lead posts the true wildcard.
        member = redcomm._world.irecv(ANY_SOURCE, tag, _internal=True)
        # The matched envelope is the set's first copy; the request is
        # never handed out, so nothing is left to finalize.
        first_copy = yield member
        sender_physical = first_copy.source
        sender_virtual = redcomm.replica_map.virtual_of(sender_physical)
        # Step 2: forward the envelope info to the sibling replicas.
        for sibling in redcomm.tracker.alive_replicas(my_virtual):
            if sibling == redcomm.physical_rank:
                continue
            yield from redcomm._world.send(
                sender_virtual, sibling, control_tag, _internal=True
            )
        # ... and post receives for the remaining copies of this message.
        request_set = redcomm._post_specific_recv(sender_virtual, tag, first_copy)
    else:
        # Step 3: siblings learn the virtual sender from the lead, then
        # receive their own copies via specific receives.
        envelope_info, _status = yield from redcomm._world.recv(
            lead, control_tag, _internal=True
        )
        request_set = redcomm.irecv(envelope_info, tag, _internal=True)

    result = yield from request_set.wait()
    return result
