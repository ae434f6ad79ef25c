"""faults — failure distributions and injection.

Implements the first "background process" of the paper's Section 5:
the failure injector.  Per physical process, failure interarrival
times are drawn from an exponential distribution (Poisson process,
model assumption 3); when a process's time comes it is fail-stopped in
the current MPI world.  Whether failures may strike *during*
checkpoint/restart phases is configurable — the paper's experiments
suppress them (Section 6, observation 5), its full model does not.

:mod:`storage_faults` extends injection to the fault-tolerance
machinery itself: seeded write failures and at-rest bit corruption
for stable storage (the chaos layer).
"""

from .distributions import Exponential, LogNormal, Weibull
from .injector import FailureInjector
from .storage_faults import StorageFaultConfig, StorageFaultModel, WriteVerdict

__all__ = [
    "Exponential",
    "FailureInjector",
    "LogNormal",
    "StorageFaultConfig",
    "StorageFaultModel",
    "Weibull",
    "WriteVerdict",
]
