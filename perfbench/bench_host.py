"""Host fingerprint, a fixed calibration kernel and the host-speed probe.

Every benchmark result carries the fingerprint and ``calibration_s``, so
numbers taken on different hosts can be compared. ``probe_s`` is a short
run of the same kernel that episodes take between timed segments, to
scale each segment to a host of fixed speed.
"""

from __future__ import annotations

import gc
import os
import platform
import statistics
import sys
import time


def fingerprint() -> dict:
    """Python/numpy versions, CPU counts and platform of this process."""
    import numpy

    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # not available on every platform
        usable = os.cpu_count()
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "numpy": numpy.__version__,
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def _kernel(n: int) -> int:
    # Dict, integer and string work in the proportions the clustering
    # hot loops have; deliberately free of numpy and of repro code, so
    # it measures the interpreter and the CPU only.
    table: dict[int, int] = {}
    acc = 0
    for i in range(n):
        key = (i * 2654435761) % 4099
        table[key] = table.get(key, 0) + i
        acc ^= len(str(i)) + table[key] % 7
    return acc


def calibration_s(repeats: int = 5, n: int = 200_000) -> float:
    """Median wall time of the fixed kernel over ``repeats`` runs."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        _kernel(n)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def probe_s(n: int = 5_000) -> float:
    """Wall time of one short run of the kernel: the host's speed now.

    The cyclic collector is off while it runs, so the program's heap
    cannot make the probe slower.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _kernel(n)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
