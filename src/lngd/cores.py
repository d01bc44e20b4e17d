"""How many workers can run at once without oversubscribing the cores.

Each worker's matrix products may use several BLAS threads, so the
budget is usable cores // BLAS threads. The BLAS thread count is read
from the environment; when it is not set, BLAS is taken to use every
usable core, which makes the budget 1.
"""

from __future__ import annotations

import os

__all__ = ["usable_cores", "blas_threads", "worker_budget"]

_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")


def usable_cores() -> int:
    """Cores this process may run on (its CPU affinity set)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def blas_threads(cores: int) -> int:
    """The first integer >= 1 among the BLAS thread variables, else ``cores``."""
    for var in _BLAS_THREAD_VARS:
        value = os.environ.get(var, "").strip()
        if value.isdecimal() and int(value) >= 1:
            return int(value)
    return cores


def worker_budget() -> int:
    """Workers that fit on the usable cores at the BLAS thread count; at least 1."""
    cores = usable_cores()
    return max(1, cores // blas_threads(cores))
