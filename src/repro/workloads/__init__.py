"""workloads — real numerical applications for the simulated machine.

Each workload does genuine arithmetic (the answers are checkable) while
charging simulated compute time and exchanging real messages through
whatever communicator it is given — a plain
:class:`~repro.mpi.Communicator` or the redundancy layer's ``RedComm``,
transparently (RedMPI's headline property).

* :mod:`cg` — a conjugate-gradient solver on a distributed sparse SPD
  (2-D Laplacian) system: the stand-in for the paper's NPB CG
  benchmark, with the same irregular-communication flavour
  (matvec + allgather + dot-product allreduces) and a repeat knob to
  lengthen runs, exactly as the paper modified CG;
* :mod:`synthetic` — a tunable compute/communicate loop for
  model-matching experiments where ``alpha`` must be exact.
"""

from .base import WorkShell, Workload
from .cg import ConjugateGradientWorkload
from .synthetic import SyntheticWorkload

__all__ = [
    "ConjugateGradientWorkload",
    "SyntheticWorkload",
    "WorkShell",
    "Workload",
]
