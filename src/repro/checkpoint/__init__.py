"""checkpoint — coordinated checkpoint/restart on simulated stable storage.

The BLCR + OpenMPI stack of the paper's experiments, rebuilt for the
simulator:

* :mod:`storage` — a versioned blob store with fault injection:
  two-phase (staged → committed) image sets so a failure
  mid-checkpoint can never corrupt the recovery line, each blob
  carrying the integrity digest restart verifies;
* :mod:`image` — per-process images: real serialised workload state
  (restart actually restores the numbers);
* :mod:`coordinator` — the OpenMPI-style all-to-all bookmark protocol:
  quiesce every channel (sent == delivered) before capturing;
* :mod:`service` — the checkpointer "background process" of Section 5:
  a Daly-interval timer plus the cooperative capture path application
  ranks call at step boundaries, paying the fixed checkpoint cost ``c``;
* :mod:`restart` — the recovery lines: roll back to the newest
  committed set, verify integrity, fall back line by line to older
  retained sets when images are corrupt, count rework.
"""

from .storage import StableStorage, StoredBlob
from .image import ProcessImage, capture_image, restore_image
from .coordinator import BookmarkCoordinator
from .service import CheckpointService
from .restart import RecoveryLine, RestartManager

__all__ = [
    "BookmarkCoordinator",
    "CheckpointService",
    "ProcessImage",
    "RecoveryLine",
    "RestartManager",
    "StableStorage",
    "StoredBlob",
    "capture_image",
    "restore_image",
]
