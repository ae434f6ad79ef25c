"""A conjugate-gradient workload: the NPB CG stand-in.

The paper benchmarks NPB CG (class D, 128 processes, lengthened by
repeating the solver between MPI_Init and MPI_Finalize).  This workload
reproduces CG's structure on a generated system:

* the matrix is the 2-D 5-point Laplacian on a ``grid x grid`` mesh —
  sparse, symmetric positive definite, never stored: each rank applies
  it to its own block of rows as a NumPy stencil;
* each CG iteration does a distributed sparse matvec (local rows times
  the allgathered search direction) plus two dot-product allreduces —
  the same collective-heavy pattern that gives CG its ~20%
  communication share (the paper's measured alpha = 0.2);
* the run is lengthened exactly the way the paper lengthened CG: the
  solve restarts from the initial guess every ``cycle_length``
  iterations, for ``total_steps`` iterations overall.

The arithmetic is real: tests assert the residual actually decreases
within a cycle and that replicas/restarts reproduce identical state.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from ..errors import ConfigurationError
from ..mpi import ops
from .base import WorkShell, Workload


def _neighbours(grid: int, row_start: int, row_end: int):
    """The -1 columns of Laplacian rows [row_start, row_end).

    Four index arrays, up, left, right and down.  A neighbour past the
    mesh edge is ``grid**2``, where ``matvec`` appends a zero.
    """
    n = grid * grid
    rows = np.arange(row_start, row_end)
    column = rows % grid
    return (
        np.where(rows >= grid, rows - grid, n),
        np.where(column > 0, rows - 1, n),
        np.where(column < grid - 1, rows + 1, n),
        np.where(rows < n - grid, rows + grid, n),
    )


class ConjugateGradientWorkload(Workload):
    """Distributed CG on a 2-D Laplacian system.

    Parameters
    ----------
    grid:
        Mesh side; the system has ``grid**2`` unknowns.
    total_steps:
        Total CG iterations to run (across solve cycles).
    cycle_length:
        Iterations per solve cycle; the solver resets to the initial
        guess at each cycle boundary (the paper's "repeat the
        computation n times" lengthening).
    flops_per_second:
        Modeled local compute speed; sets the compute share of a step.
    """

    name = "cg"

    def __init__(
        self,
        grid: int = 16,
        total_steps: int = 100,
        cycle_length: int = 50,
        flops_per_second: float = 5e8,
    ) -> None:
        if grid < 2:
            raise ConfigurationError(f"grid must be >= 2, got {grid}")
        if total_steps < 1:
            raise ConfigurationError(f"total_steps must be >= 1, got {total_steps}")
        if cycle_length < 1:
            raise ConfigurationError(f"cycle_length must be >= 1, got {cycle_length}")
        if flops_per_second <= 0:
            raise ConfigurationError("flops_per_second must be > 0")
        self.grid = grid
        self._total_steps = total_steps
        self.cycle_length = cycle_length
        self.flops_per_second = flops_per_second
        self._configured = False

    # -- setup -------------------------------------------------------------

    def configure(self, rank: int, size: int) -> None:
        n = self.grid * self.grid
        if size > n:
            raise ConfigurationError(f"more ranks ({size}) than unknowns ({n})")
        self.rank = rank
        self.size = size
        counts = [n // size + (1 if r < n % size else 0) for r in range(size)]
        self.row_start = sum(counts[:rank])
        self.row_end = self.row_start + counts[rank]
        self.neighbours = _neighbours(self.grid, self.row_start, self.row_end)
        #: Stored non-zeros of the local rows: the diagonal plus every
        #: neighbour inside the mesh.
        self.nnz = counts[rank] + sum(int((c < n).sum()) for c in self.neighbours)
        self.b = np.ones(self.row_end - self.row_start, dtype=np.float64)
        self._reset_solver()
        self.iteration = 0
        self.residual = float("nan")
        self._configured = True

    def _reset_solver(self) -> None:
        local_n = self.row_end - self.row_start
        self.x = np.zeros(local_n, dtype=np.float64)
        self.r = self.b.copy()
        self.p = self.r.copy()
        self.rsold: float = float("nan")  # established by the first step

    # -- iteration ----------------------------------------------------------

    @property
    def total_steps(self) -> int:
        return self._total_steps

    def _step_flops(self) -> float:
        matvec = 2.0 * self.nnz
        vector_ops = 10.0 * (self.row_end - self.row_start)
        return matvec + vector_ops

    def matvec(self, p_full: np.ndarray) -> np.ndarray:
        """This rank's rows of ``A @ p_full``.

        Each row is summed from ``0.0`` in ascending column order, up,
        left, centre, right, down, as a sorted CSR matvec sums it; a
        neighbour past the mesh edge reads a trailing zero, and
        subtracting ``0.0`` leaves every sum bit for bit unchanged.
        """
        p = np.append(p_full, 0.0)
        up, left, right, down = self.neighbours
        centre = 4.0 * p[self.row_start : self.row_end]
        return 0.0 - p[up] - p[left] + centre - p[right] - p[down]

    def step(self, shell: WorkShell, index: int):
        if not self._configured:
            raise ConfigurationError("step() before configure()")
        if self.iteration % self.cycle_length == 0:
            self._reset_solver()
        if np.isnan(self.rsold):
            self.rsold = yield from shell.comm.allreduce(
                float(self.r @ self.r), ops.SUM
            )
        # Distributed matvec: everyone needs the full search direction.
        pieces = yield from shell.comm.allgather(self.p)
        q = self.matvec(np.concatenate(pieces))
        yield shell.compute(self._step_flops() / self.flops_per_second)
        pq = yield from shell.comm.allreduce(float(self.p @ q), ops.SUM)
        alpha = self.rsold / pq if pq > 0.0 else 0.0
        self.x = self.x + alpha * self.p
        self.r = self.r - alpha * q
        rsnew = yield from shell.comm.allreduce(float(self.r @ self.r), ops.SUM)
        beta = rsnew / self.rsold if self.rsold > 0.0 else 0.0
        self.p = self.r + beta * self.p
        self.rsold = rsnew
        self.residual = float(np.sqrt(max(rsnew, 0.0)))
        self.iteration += 1

    def finalize(self, shell: WorkShell):
        checksum = yield from shell.comm.allreduce(float(self.x.sum()), ops.SUM)
        return {
            "iterations": self.iteration,
            "residual": self.residual,
            "checksum": checksum,
        }

    # -- checkpointing -----------------------------------------------------------

    def state(self) -> Dict[str, Any]:
        return {
            "iteration": self.iteration,
            "x": self.x.copy(),
            "r": self.r.copy(),
            "p": self.p.copy(),
            "rsold": self.rsold,
            "residual": self.residual,
        }

    def load(self, state: Dict[str, Any]) -> None:
        self.iteration = state["iteration"]
        self.x = state["x"].copy()
        self.r = state["r"].copy()
        self.p = state["p"].copy()
        self.rsold = state["rsold"]
        self.residual = state["residual"]

    def local_result(self) -> Any:
        return {"iterations": self.iteration, "residual": self.residual}
