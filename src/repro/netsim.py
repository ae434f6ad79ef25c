"""The interconnect's per-message cost: the one network the simulator uses.

The paper sees the network only through what a message costs its sender
and how long it spends on the wire.  Eq. 1's r-fold communication term
comes from the redundancy layer turning one send into ``r`` sends, each
paying :meth:`Network.sender_busy_time` serially on the sender's NIC.

Two ranks on one node (only possible with a non-default placement; the
paper's assumption 2 gives every process its own node) talk over shared
memory: no rendezvous round trips, and a tenth of the wire latency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigurationError

#: QDR InfiniBand-ish defaults (seconds, bytes/second), after the
#: paper's testbed (~1.3 us latency, ~3.2 GB/s effective per port).
QDR_LATENCY = 1.3e-6
QDR_BANDWIDTH = 3.2e9

#: Messages at or below this size use the eager protocol; larger ones
#: rendezvous and hold the sender for one extra round trip.
EAGER_THRESHOLD = 64 * 1024

#: Per-message software-stack cost on the sender (the LogP ``o``).  It
#: makes message-*count* amplification expensive even for small
#: messages.
CPU_OVERHEAD = 1.0e-6

#: Wire latency between two ranks on one node, as a fraction of the
#: off-node latency.
LOOPBACK_FACTOR = 0.1


@dataclass(frozen=True)
class Network:
    """Latency/bandwidth message-cost model.

    Attributes
    ----------
    latency:
        Off-node wire latency per message, in seconds.
    bandwidth:
        Injection bandwidth, in bytes per second.
    """

    latency: float = QDR_LATENCY
    bandwidth: float = QDR_BANDWIDTH

    def __post_init__(self) -> None:
        self.validate(self.latency, self.bandwidth)

    @staticmethod
    def validate(latency: float, bandwidth: float) -> None:
        """Raise :class:`ConfigurationError` unless both values are usable.

        Latency must be finite and >= 0; bandwidth finite and > 0.
        """
        if not math.isfinite(latency) or latency < 0:
            raise ConfigurationError(
                f"network latency must be finite and >= 0, got {latency}"
            )
        if not math.isfinite(bandwidth) or bandwidth <= 0:
            raise ConfigurationError(
                f"network bandwidth must be finite and > 0, got {bandwidth}"
            )

    def sender_busy_time(self, nbytes: int, same_node: bool) -> float:
        """Seconds the sending rank's NIC is occupied injecting a message."""
        serialisation = CPU_OVERHEAD + nbytes / self.bandwidth
        if same_node or nbytes <= EAGER_THRESHOLD:
            return serialisation
        return serialisation + 2.0 * self.latency

    def wire_latency(self, same_node: bool) -> float:
        """Propagation time after the sender finished injecting."""
        if same_node:
            return self.latency * LOOPBACK_FACTOR
        return self.latency
