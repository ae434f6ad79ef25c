"""orchestration — run workloads under redundancy + C/R + failures.

:class:`ResilientJob` is the top of the systems half: it assembles the
network, the simulated MPI world, the RedMPI-style redundancy layer,
the coordinated checkpoint service, the failure injector and a
workload into one fault-tolerant job run — the exact setup of the
paper's Section 5 experimental framework — and reports the completion
time and event counts the evaluation tables are built from.

:mod:`campaign` sweeps jobs over (MTBF, redundancy) grids to
regenerate Table 4 / Figures 8-9, and failure-free runs for
Table 5 / Figure 10.  :mod:`executor` runs independent grid cells side
by side, one forked process per running cell (``workers``), with
bit-identical results, ordered collection and per-cell error capture.
"""

from .job import JobConfig, JobReport, ResilientJob
from .campaign import run_failure_free_sweep, run_redundancy_sweep
from .executor import CampaignExecutionError, CampaignExecutor, CellOutcome

__all__ = [
    "CampaignExecutionError",
    "CampaignExecutor",
    "CellOutcome",
    "JobConfig",
    "JobReport",
    "ResilientJob",
    "run_failure_free_sweep",
    "run_redundancy_sweep",
]
