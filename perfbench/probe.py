"""Child-process probes for the benchmark.

python probe.py setup CONFIG  prints time.monotonic() once lngd is imported
                              and CONFIG is parsed (cold start of a command)
python probe.py env           prints the numeric environment as JSON
"""

from __future__ import annotations

import sys
import time


def setup(config_path: str) -> None:
    import lngd.cli  # noqa: F401  (what every command imports)
    from lngd.config import parse_config

    parse_config(config_path)
    print(repr(time.monotonic()))


def blas_threads() -> int | None:
    """Thread count OpenBLAS reports in this process, when it can be asked."""
    import ctypes
    import glob
    import os

    import numpy as np

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def env() -> None:
    import json
    import os
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(json.dumps({
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "blas_threads_effective": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
    }))


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(sys.argv[2])
    else:
        env()
