"""Machine-speed calibration.

The benchmark runs on shared two-core virtual machines whose speed drifts by
up to a factor of two over tens of seconds, with every kind of op slowing
together.  A fixed kernel that does not touch blochpath (a Python call per
sample, a loop of small numpy products and a CSV file written line by line:
the same mix as the program's sampling, stepping and artifact writing) is
timed between ops.  Every reported time is the
measured time scaled by ``KERNEL_REF_MS / kernel time nearby``, i.e. expressed
in milliseconds of a machine on which the kernel takes ``KERNEL_REF_MS``.
Ops that are child processes are scaled by the time of a fresh
``python -c pass`` instead.  ``run.py`` pins itself, and so every process
it starts, to one CPU, so that calibration and ops run on the same CPU.  Raw
times are kept in the result files.
"""

from __future__ import annotations

import gc
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

#: kernel time that defines the reference machine (about its median on a
#: 2.1 GHz Xeon vCPU at a quiet moment)
KERNEL_REF_MS = 3.3
#: ``python -c pass`` time that defines the reference machine for ops that
#: are child processes
CHILD_REF_MS = 50.0
#: kernel runs per calibration point; the point is their median
REPEATS = 2

_STEP = np.array([[0.0, -1e-3j], [-1e-3j, 0.0]])
_AXIS = np.array([0.6, 0.0, 0.8])


def _field(t: float) -> np.ndarray:
    return (1.0 + 0.5 * math.sin(3.0 * t)) * _AXIS


def _kernel(table_path: Path) -> float:
    """About 3 ms of the program's kind of work: a Python call per sample,
    a stepping loop of 2x2 complex products, array arithmetic over the grid,
    and a CSV table written to ``table_path``."""
    t0 = time.perf_counter()
    times = np.linspace(0.0, 1.0, 401)
    samples = np.empty((len(times), 3))
    for k, t in enumerate(times):
        samples[k] = _field(t)
    y = np.array([1.0 + 0.0j, 0.0])
    path = np.empty((len(times), 2), dtype=complex)
    for k in range(len(times)):
        y = y + _STEP @ y
        y = y / np.sqrt(np.vdot(y, y).real)
        path[k] = y
    cumulative = np.cumsum(np.abs(path[:, 0]) ** 2 * np.linalg.norm(samples, axis=1))
    table = np.column_stack([times, samples, cumulative, path.real])[:200]
    with open(table_path, "w", encoding="utf-8") as fh:
        for row in table:
            fh.write(",".join(f"{v:.15g}" for v in row) + "\n")
    return time.perf_counter() - t0


def point(table_path: Path) -> float:
    """One calibration point: the median kernel time, in seconds.  The
    kernel writes its table to the file ``table_path``."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return statistics.median(_kernel(table_path) for _ in range(REPEATS))
    finally:
        if enabled:
            gc.enable()


def child_point(env: dict, cwd: Path) -> float:
    """Calibration point for ops that are child processes: the time of one
    fresh ``python -c pass`` interpreter, in seconds (``local_factors``
    takes the median of the points around an op).  In-process kernel times
    do not track child processes; interpreter start does."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=cwd, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - t0


def factor(seconds: float, ref_ms: float = KERNEL_REF_MS) -> float:
    """Scale from measured time to reference-machine time."""
    return 1e-3 * ref_ms / seconds


def local_factors(points: list[float], n_ops: int,
                  ref_ms: float = KERNEL_REF_MS) -> list[float]:
    """Scale for each op of a pass from the calibration points around it:
    ``points[i]`` was taken just before op ``i`` and ``points[i + 1]`` just
    after it."""
    return [factor(statistics.median(points[max(0, i - 1):i + 3]), ref_ms)
            for i in range(n_ops)]
