"""Fold a cProfile run into per-layer self time and per-function rows.

Self time (``tottime``) of every profiled function goes to exactly one
bucket:

* ``repro.<package>`` for the program's own modules (``repro.mpi``,
  ``repro.simkit``, ...; top-level modules such as ``repro/cli.py``
  become ``repro.cli``);
* ``json`` and ``asyncio`` (asyncio plus sockets and selectors) for the
  serving path's standard-library work, whether in Python or in C;
* ``numpy`` for NumPy's Python-level code;
* ``c_builtins`` for every other function implemented in C (blake2b,
  heapq, pickle, ufuncs, ...);
* ``stdlib`` for other standard-library Python code;
* ``probes`` for the benchmark's own timing wrappers;
* ``idle`` for the event loop's wait in ``epoll``/``select``: the
  profiler's clock is wall time, so a server's idle time lands there;
* ``other`` for anything else (site packages other than NumPy).

``named_share`` is the share of busy (non-idle) self time outside
``other``.
"""

from __future__ import annotations

import os
import pstats
import sysconfig
from typing import Dict, Iterable, Optional, Tuple

from common import BENCH_DIR, SRC

_REPRO_DIR = str(SRC / "repro") + "/"

_STDLIB_DIRS = tuple(
    os.path.realpath(p)
    for p in {sysconfig.get_paths()["stdlib"], sysconfig.get_paths()["platstdlib"]}
)
_ASYNCIO_FILES = {"socket.py", "selectors.py", "ssl.py"}
_BENCH_DIR = str(BENCH_DIR) + "/"
_ASYNCIO_C = ("_asyncio", "socket", "select", "epoll", "_contextvars")
_IDLE_C = ("<method 'poll' of 'select.", "<built-in method select.select>")

Key = Tuple[str, int, str]


def _repro_path(filename: str) -> Optional[str]:
    """``filename`` below the program's package directory, or None."""
    return filename[len(_REPRO_DIR):] if filename.startswith(_REPRO_DIR) else None


def bucket_of(filename: str, funcname: str) -> str:
    """The bucket one profile row's self time belongs to."""
    if filename == "~":  # implemented in C
        if funcname.startswith(_IDLE_C):
            return "idle"
        if "_json" in funcname:
            return "json"
        if any(token in funcname for token in _ASYNCIO_C):
            return "asyncio"
        return "c_builtins"
    rest = _repro_path(filename)
    if rest is not None:
        head = rest.split("/", 1)[0]
        return "repro." + (head[:-3] if head.endswith(".py") else head)
    if filename.startswith(_BENCH_DIR):
        return "probes"
    path = filename.replace("\\", "/")
    if "/numpy/" in path:
        return "numpy"
    real = os.path.realpath(filename)
    if real.startswith(_STDLIB_DIRS) and "site-packages" not in real:
        if "/json/" in path:
            return "json"
        if "/asyncio/" in path or os.path.basename(path) in _ASYNCIO_FILES:
            return "asyncio"
        return "stdlib"
    return "other"


def fold(stats: Dict[Key, tuple]) -> Dict[str, float]:
    """Self seconds per bucket for a ``pstats.Stats(...).stats`` mapping."""
    totals: Dict[str, float] = {}
    for (filename, _line, funcname), row in stats.items():
        bucket = bucket_of(filename, funcname)
        totals[bucket] = totals.get(bucket, 0.0) + row[2]
    return totals


def named_share(totals: Dict[str, float]) -> float:
    busy = sum(totals.values()) - totals.get("idle", 0.0)
    return (busy - totals.get("other", 0.0)) / busy if busy else 0.0


def function_rows(
    stats: Dict[Key, tuple], specs: Iterable[str]
) -> Dict[str, Dict[str, float]]:
    """Calls and seconds of the program's functions named ``file:func``.

    ``file`` is the path below ``repro/`` (``simkit/env.py:step``), so a
    name that several modules define is still one row.
    """
    rows = {spec: {"calls": 0, "cum_s": 0.0, "self_s": 0.0} for spec in specs}
    for (filename, _line, funcname), row in stats.items():
        rest = _repro_path(filename)
        entry = None if rest is None else rows.get(rest + ":" + funcname)
        if entry is not None:
            entry["calls"] += row[1]
            entry["self_s"] += row[2]
            entry["cum_s"] += row[3]
    return rows


def per_call(row: Dict[str, float], scale: float) -> float:
    """Mean cumulative time per call of a :func:`function_rows` row, scaled."""
    return row["cum_s"] / row["calls"] * scale if row["calls"] else 0.0


def load(path: str) -> Dict[Key, tuple]:
    return pstats.Stats(path).stats
