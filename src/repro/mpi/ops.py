"""Reduction operators for collectives (mirrors MPI_Op).

Both operators are commutative and associative, so the tree order
used by :mod:`repro.mpi.collectives` does not affect results (up to
floating-point rounding).  ``SUM`` is numpy-aware: reducing two arrays
adds them elementwise.
"""

from __future__ import annotations

from typing import Any

import numpy as np


def SUM(a: Any, b: Any) -> Any:
    """Elementwise / scalar addition (MPI_SUM)."""
    return np.add(a, b) if isinstance(a, np.ndarray) or isinstance(b, np.ndarray) else a + b


def LOR(a: Any, b: Any) -> Any:
    """Logical or (MPI_LOR)."""
    return bool(a) or bool(b)
