"""The workload contract: step-structured, checkpointable applications.

A workload is an iterative SPMD program.  The orchestrator drives it
step by step so checkpoints can be taken at step boundaries
(application-level checkpointing), and captures/restores its state
dict for restart.  Replica determinism is part of the contract: two
replicas configured identically and fed the same messages must produce
byte-identical states — that is what makes RedMPI-style redundancy
transparent.

A payload handed to a send must not be mutated afterwards.  The
simulator passes message objects by reference, and the redundancy
layer compares a message's replica copies when the receive completes,
not when each copy arrives, so an in-place update after the send would
change what is voted on.  Send a copy (``field[0].copy()``) or rebind
the name to a new object instead.  The synthetic workload's ring
payloads are read-only arrays, shared by every replica of a rank, so
for them the rule is enforced: writing into one raises ``ValueError``.

The same holds for checkpoints: a read-only array in a :meth:`state`
is never written afterwards, by anyone.  A checkpoint image holds such
an array by reference, not by a copy, so making it writable again and
writing into it would change every image that holds it.  A writable
array, or a read-only view of writable memory, is copied into the
image and may change freely.

A step charges its computation with ``shell.compute(seconds)``: one
:class:`~repro.simkit.events.Timeout`, built by the shell and queued
by its own constructor, with no context or environment call between.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Any, Dict

from ..simkit.events import Timeout

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..mpi.runtime import RankContext


class WorkShell:
    """What a workload step sees: its communicator and a compute clock.

    ``comm`` is *virtual* under redundancy (a ``RedComm``) and plain
    otherwise; the workload cannot tell the difference.
    """

    def __init__(self, ctx: "RankContext", comm) -> None:
        self._env = ctx.runtime.env
        self.comm = comm

    @property
    def rank(self) -> int:
        """The (virtual) rank this workload instance plays."""
        return self.comm.rank

    @property
    def size(self) -> int:
        """The (virtual) world size."""
        return self.comm.size

    @property
    def env(self):
        """The simulation environment."""
        return self._env

    def compute(self, seconds: float) -> Timeout:
        """Event charging ``seconds`` of local computation (yield it).

        One ``Timeout``, which queues itself: two calls per step.
        """
        return Timeout(self._env, seconds)


class Workload(abc.ABC):
    """Base class for step-structured applications."""

    #: Human-readable workload name (reports, storage keys).
    name = "workload"

    @abc.abstractmethod
    def configure(self, rank: int, size: int) -> None:
        """Build this rank's local data (deterministic in rank and size)."""

    @property
    @abc.abstractmethod
    def total_steps(self) -> int:
        """Number of steps the workload runs."""

    @abc.abstractmethod
    def step(self, shell: WorkShell, index: int):
        """Generator: execute step ``index`` (compute + communicate).

        Never mutate an object after passing it to a send: the message
        holds a reference to it until every receiver has voted (see the
        module docstring).  The synthetic workload's payloads are
        read-only; a write into one raises ``ValueError``.
        """

    @abc.abstractmethod
    def state(self) -> Dict[str, Any]:
        """Checkpointable snapshot of the local state (a plain dict).

        A read-only array in it is never written afterwards: the image
        holds it uncopied (see the module docstring).
        """

    @abc.abstractmethod
    def load(self, state: Dict[str, Any]) -> None:
        """Restore a snapshot produced by :meth:`state`."""

    def finalize(self, shell: WorkShell):
        """Generator: optional closing collective; returns the result.

        Default: return :meth:`local_result` without communication.
        (A bare ``return``-only generator still needs a yield point; we
        use a zero-delay timeout.)
        """
        yield shell.env.timeout(0.0)
        return self.local_result()

    def local_result(self) -> Any:
        """This rank's final answer (used by reports and tests)."""
        return None
