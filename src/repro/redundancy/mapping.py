"""Virtual↔physical rank mapping under (partial) redundancy.

Physical world layout: ranks ``0 .. N-1`` are the primaries (physical
rank == virtual rank), and shadow replicas occupy ``N .. N_total-1`` in
virtual-rank order.  How many virtual ranks get the extra replica is
decided by the Eq. 5-8 partition; they are spread evenly over the
virtual ranks (the paper's experiments: "a redundancy degree of 1.5x
means that every other process (i.e., every even process) has a
replica").
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..errors import RedundancyError
from ..models.redundancy import partition_processes


class ReplicaMap:
    """Static assignment of physical replicas to virtual processes.

    Parameters
    ----------
    virtual_processes:
        ``N`` — the application's process count.
    redundancy:
        Real-valued degree ``r >= 1``.
    """

    def __init__(self, virtual_processes: int, redundancy: float) -> None:
        self.partition = partition_processes(virtual_processes, redundancy)
        self.virtual_processes = virtual_processes
        self.redundancy = redundancy
        self._levels = self._assign_levels()
        self._replicas: Dict[int, List[int]] = {}
        self._virtual_of: Dict[int, int] = {}
        self._build()

    def _assign_levels(self) -> List[int]:
        """Per-virtual-rank integer replication level."""
        part = self.partition
        n = self.virtual_processes
        levels = [part.floor_level] * n
        # Bresenham-style even spread: rank v is upgraded when the
        # running quota crosses an integer boundary.
        chosen = [v for v in range(n) if (v * part.ceil_count) % n < part.ceil_count]
        # Quota arithmetic yields exactly ceil_count upgrades.
        for v in chosen[: part.ceil_count]:
            levels[v] = part.ceil_level
        return levels

    def _build(self) -> None:
        next_shadow = self.virtual_processes
        for v in range(self.virtual_processes):
            ranks = [v]
            for _extra in range(self._levels[v] - 1):
                ranks.append(next_shadow)
                next_shadow += 1
            self._replicas[v] = ranks
            for p in ranks:
                self._virtual_of[p] = v
        self.total_physical = next_shadow

    # -- queries -----------------------------------------------------------

    def replicas_of(self, virtual_rank: int) -> List[int]:
        """Physical ranks of a sphere, primary first."""
        self._check_virtual(virtual_rank)
        return list(self._replicas[virtual_rank])

    def virtual_of(self, physical_rank: int) -> int:
        """Virtual rank served by a physical rank."""
        try:
            return self._virtual_of[physical_rank]
        except KeyError as exc:
            raise RedundancyError(
                f"physical rank {physical_rank} is not mapped"
            ) from exc

    def replica_index(self, physical_rank: int) -> int:
        """Position of a physical rank within its sphere (0 = primary)."""
        v = self.virtual_of(physical_rank)
        return self._replicas[v].index(physical_rank)

    def spheres(self) -> Sequence[List[int]]:
        """All replica groups, indexed by virtual rank."""
        return [list(self._replicas[v]) for v in range(self.virtual_processes)]

    def _check_virtual(self, virtual_rank: int) -> None:
        if not 0 <= virtual_rank < self.virtual_processes:
            raise RedundancyError(
                f"virtual rank {virtual_rank} outside [0, {self.virtual_processes})"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ReplicaMap N={self.virtual_processes} r={self.redundancy} "
            f"physical={self.total_physical}>"
        )
