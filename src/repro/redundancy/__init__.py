"""redundancy — a RedMPI-style transparent replication layer.

Reimplements the protocol of Section 3 of the paper on top of
:mod:`repro.mpi`:

* the world is divided into *virtual* processes, each backed by a
  sphere of ``r`` physical replicas (``r`` may be partial — Eqs. 5-8
  decide who gets an extra replica);
* every application point-to-point call is interposed: a send fans out
  to every live replica of the destination, a receive posts one receive
  per live replica of the source, and the application-visible request
  is a *request set* over the per-replica requests;
* wildcard (``ANY_SOURCE``) receives run the paper's envelope-
  forwarding protocol so all replicas receive from the same virtual
  sender;
* replica payloads are compared on arrival — in All-to-all mode every
  replica ships the full message; in Msg-PlusHash mode one replica
  ships the message and the rest ship digests — and with ``r >= 3`` a
  corrupted copy is voted out (RedMPI's Byzantine-detection feature);
* sphere liveness is tracked so the job learns the moment some virtual
  process has lost *all* replicas (the condition that forces rollback).

The application-facing handle, :class:`RedComm`, exposes the same
interface as :class:`repro.mpi.Communicator`, so workloads run
unmodified under any redundancy degree — exactly RedMPI's "no change
in application source" property.
"""

from .mapping import ReplicaMap
from .sphere import SphereTracker
from .voting import ALL_TO_ALL, MSG_PLUS_HASH, vote
from .interpose import RedComm
from .request import RecvSet, SendSet

__all__ = [
    "ALL_TO_ALL",
    "MSG_PLUS_HASH",
    "RecvSet",
    "RedComm",
    "ReplicaMap",
    "SendSet",
    "SphereTracker",
    "vote",
]
