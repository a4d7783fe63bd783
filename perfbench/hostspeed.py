"""Host-speed reference: adjusts measured times for host interference.

On a shared 2-vCPU virtual machine each processor runs at one of two
speeds that change every few seconds to minutes, with the slow one up
to ~1.8x slower, because the host runs other tenants' work beside it.
Per-process CPU time slows just as much, so a benchmark's wall times
can drift by a third between two sets of runs of identical code.

A fixed kernel that never calls the engine (an interpreted integer loop
plus numpy sort / search / compare, the two kinds of work the engine
does) is timed every ``INTERVAL_S`` during a stream.  The CPU time an
operation spends is multiplied by ``REFERENCE_S / kernel time``, the
speed of the host at that moment relative to the same host
uncontended; time it spends waiting (on fsync, say) is left as it is.
Adjusted times are in seconds of that uncontended host; the unadjusted
figures are printed beside them.
"""

from __future__ import annotations

import time

import numpy as np

#: Fastest-of-three kernel time on an uncontended processor of the
#: reference host (2-vCPU x86_64 VM, Python 3.11, numpy 2.4).
REFERENCE_S = 0.00035
#: Resample the kernel when the last sample is older than this.
INTERVAL_S = 0.05

_DATA = np.random.default_rng(0).integers(0, 1 << 20, 16_384)


def _kernel() -> int:
    total = 0
    for i in range(1_500):
        total += (i * 2654435761) & 0xFFFF
    ordered = np.sort(_DATA[:4_096])
    found = np.searchsorted(ordered, _DATA[4_096:6_144])
    return total + int(found[0]) + int(np.count_nonzero(_DATA < 1 << 19))


def sample() -> float:
    """Fastest of three kernel runs, in seconds."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best


def adjusted(wall_s: float, cpu_s: float, kernel_s: float) -> float:
    """``wall_s`` with its CPU part rescaled to the reference speed."""
    return wall_s + min(cpu_s, wall_s) * (REFERENCE_S / kernel_s - 1.0)


class HostSpeed:
    """Adjusts operation times by a kernel sample resampled as it ages."""

    def __init__(self):
        self._kernel_s = sample()
        self._taken = time.perf_counter()

    def adjuster(self):
        """Call right before an operation; the returned function maps
        the operation's wall time to its adjusted time."""
        if time.perf_counter() - self._taken > INTERVAL_S:
            self._kernel_s = sample()
            self._taken = time.perf_counter()
        kernel_s = self._kernel_s
        cpu_start = time.process_time()
        return lambda wall_s: adjusted(
            wall_s, time.process_time() - cpu_start, kernel_s)
