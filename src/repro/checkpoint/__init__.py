"""checkpoint — coordinated checkpoint/restart on simulated stable storage.

The BLCR + OpenMPI stack of the paper's experiments, rebuilt for the
simulator:

* :mod:`storage` — a versioned blob store with fault injection and
  the recovery lines restart rolls back to: two-phase (staged →
  committed) image sets so a failure mid-checkpoint can never corrupt
  the recovery line, each blob carrying the integrity digest the
  restore verifies before it falls back line by line to older retained
  sets, counting the lines it skips;
* :mod:`image` — per-process images: real serialised workload state
  (restart actually restores the numbers);
* :mod:`coordinator` — the OpenMPI-style all-to-all bookmark protocol:
  quiesce every channel (sent == delivered) before capturing;
* :mod:`service` — the checkpointer "background process" of Section 5:
  a Daly-interval timer plus the cooperative capture path application
  ranks call at step boundaries, paying the fixed checkpoint cost ``c``.
"""

from .storage import RecoveryLine, StableStorage, StoredBlob
from .image import ProcessImage, capture_image, restore_image
from .coordinator import BookmarkCoordinator
from .service import CheckpointService

__all__ = [
    "BookmarkCoordinator",
    "CheckpointService",
    "ProcessImage",
    "RecoveryLine",
    "StableStorage",
    "StoredBlob",
    "capture_image",
    "restore_image",
]
