"""A tunable compute/communicate loop for model-matching experiments.

The analytic model's key application parameter is ``alpha``, the
communication/computation ratio.  Real workloads have an emergent
alpha; this synthetic one has a *designed* alpha: each step charges a
fixed compute time and moves fixed-size messages around a ring (plus a
scalar allreduce), so the measured ratio can be driven to whatever the
experiment needs (the paper's Figures 2 and 4-6 sweep alpha
parametrically).

Every replica of a virtual rank, every attempt and every cell sends the
one read-only payload :func:`ring_payload` builds for that rank, so a
ring message costs no allocation and a checkpoint image no copy (the
image holds the payload by reference, and a restore reads it in place);
writing into it raises ``ValueError``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Dict

import numpy as np

from ..errors import ConfigurationError
from ..mpi import ops
from .base import WorkShell, Workload


#: Most ring payloads kept alive at once: a campaign over more virtual
#: ranks or message sizes than this rebuilds the least recently used.
PAYLOAD_MEMO_SIZE = 64


@lru_cache(maxsize=PAYLOAD_MEMO_SIZE)
def ring_payload(count: int, rank: int) -> np.ndarray:
    """``rank``'s ring payload: ``count`` float64 copies of ``rank``, read-only."""
    payload = np.full(count, float(rank), dtype=np.float64)
    payload.flags.writeable = False
    return payload


class SyntheticWorkload(Workload):
    """Ring exchange + allreduce with a fixed per-step compute charge.

    Parameters
    ----------
    total_steps:
        Steps to run.
    compute_seconds:
        Local computation charged per step.
    message_bytes:
        Size of each ring message (sent both directions as a
        sendrecv).
    allreduce_every:
        A scalar allreduce every this many steps (1 = every step).
    """

    name = "synthetic"

    def __init__(
        self,
        total_steps: int = 100,
        compute_seconds: float = 1e-3,
        message_bytes: int = 8192,
        allreduce_every: int = 1,
    ) -> None:
        if total_steps < 1:
            raise ConfigurationError(f"total_steps must be >= 1, got {total_steps}")
        if compute_seconds < 0:
            raise ConfigurationError("compute_seconds must be >= 0")
        if message_bytes < 8:
            raise ConfigurationError("message_bytes must be >= 8")
        if allreduce_every < 1:
            raise ConfigurationError("allreduce_every must be >= 1")
        self._total_steps = total_steps
        self.compute_seconds = compute_seconds
        self.message_bytes = message_bytes
        self.allreduce_every = allreduce_every
        self._configured = False

    def configure(self, rank: int, size: int) -> None:
        self.rank = rank
        self.size = size
        self.iteration = 0
        self.token = float(rank)
        self.payload = ring_payload(self.message_bytes // 8, rank)
        self._configured = True

    @property
    def total_steps(self) -> int:
        return self._total_steps

    def step(self, shell: WorkShell, index: int):
        if not self._configured:
            raise ConfigurationError("step() before configure()")
        yield shell.compute(self.compute_seconds)
        if self.size > 1:
            right = (self.rank + 1) % self.size
            left = (self.rank - 1) % self.size
            (received, _status) = yield from shell.comm.sendrecv(
                self.payload, right, source=left, send_tag=21, recv_tag=21
            )
            # Fold the neighbour's payload in so the data genuinely flows.
            self.token += float(received[0])
            self.payload = received
        if (self.iteration + 1) % self.allreduce_every == 0:
            self.token = yield from shell.comm.allreduce(self.token, ops.SUM)
        self.iteration += 1

    def finalize(self, shell: WorkShell):
        total = yield from shell.comm.allreduce(self.token, ops.SUM)
        return {"iterations": self.iteration, "token_sum": total}

    def state(self) -> Dict[str, Any]:
        return {
            "iteration": self.iteration,
            "token": self.token,
            # Read-only, so no copy: the image holds it by reference.
            "payload": self.payload,
        }

    def load(self, state: Dict[str, Any]) -> None:
        self.iteration = state["iteration"]
        self.token = state["token"]
        payload = state["payload"]
        # Every replica of a rank loads the one array its image restored,
        # which is read-only already when the image held it by reference.
        payload.flags.writeable = False
        self.payload = payload

    def local_result(self) -> Any:
        return {"iterations": self.iteration, "token": self.token}
