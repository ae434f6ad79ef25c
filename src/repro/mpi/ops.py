"""Reduction operators for collectives (mirrors MPI_Op).

All provided operators are commutative and associative, so the tree
order used by :mod:`repro.mpi.collectives` does not affect results
(up to floating-point rounding).  Operators are numpy-aware: reducing
two arrays reduces elementwise.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

Op = Callable[[Any, Any], Any]


def SUM(a: Any, b: Any) -> Any:
    """Elementwise / scalar addition (MPI_SUM)."""
    return np.add(a, b) if isinstance(a, np.ndarray) or isinstance(b, np.ndarray) else a + b


def MAX(a: Any, b: Any) -> Any:
    """Elementwise / scalar maximum (MPI_MAX)."""
    return np.maximum(a, b) if isinstance(a, np.ndarray) or isinstance(b, np.ndarray) else max(a, b)


def MIN(a: Any, b: Any) -> Any:
    """Elementwise / scalar minimum (MPI_MIN)."""
    return np.minimum(a, b) if isinstance(a, np.ndarray) or isinstance(b, np.ndarray) else min(a, b)


def LAND(a: Any, b: Any) -> Any:
    """Logical and (MPI_LAND)."""
    return bool(a) and bool(b)


def LOR(a: Any, b: Any) -> Any:
    """Logical or (MPI_LOR)."""
    return bool(a) or bool(b)
