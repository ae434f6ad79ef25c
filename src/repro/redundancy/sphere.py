"""Replica-sphere liveness: when has a virtual process truly failed?

Figure 7 of the paper: a physical-process failure does *not* imply an
application failure — the job only fails (and a rollback is triggered)
when **all** replicas of some virtual process are dead.  The tracker
watches rank deaths from the runtime and fires a callback at the first
sphere exhaustion.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Set

from ..errors import RedundancyError
from .mapping import ReplicaMap


class SphereTracker:
    """Liveness bookkeeping for every replica sphere of a job attempt."""

    def __init__(self, replica_map: ReplicaMap) -> None:
        self.replica_map = replica_map
        self._dead: Set[int] = set()
        self._exhausted: Optional[int] = None
        self._watchers: List[Callable[[int], None]] = []

    # -- event input -------------------------------------------------------

    def notice_death(self, physical_rank: int) -> None:
        """Record a physical-rank death; fire watcher on sphere exhaustion."""
        if physical_rank in self._dead:
            return
        self._dead.add(physical_rank)
        virtual = self.replica_map.virtual_of(physical_rank)
        if self._exhausted is None and not self.alive_replicas(virtual):
            self._exhausted = virtual
            for watcher in list(self._watchers):
                watcher(virtual)

    def on_sphere_exhausted(self, watcher: Callable[[int], None]) -> None:
        """Register a callback fired with the first exhausted virtual rank."""
        self._watchers.append(watcher)

    # -- queries -----------------------------------------------------------

    def is_dead(self, physical_rank: int) -> bool:
        """Has this physical rank died in the current attempt?"""
        return physical_rank in self._dead

    def alive_replicas(self, virtual_rank: int) -> List[int]:
        """Physical replicas of a sphere still alive, primary first."""
        return [
            rank
            for rank in self.replica_map.replicas_of(virtual_rank)
            if rank not in self._dead
        ]

    def lead_replica(self, virtual_rank: int) -> int:
        """Lowest-index live replica (the wildcard-protocol leader).

        Raises
        ------
        RedundancyError
            When the sphere is exhausted.
        """
        alive = self.alive_replicas(virtual_rank)
        if not alive:
            raise RedundancyError(f"sphere of virtual rank {virtual_rank} exhausted")
        return alive[0]
