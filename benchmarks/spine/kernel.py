"""The speed-calibration reference kernel.

A fixed slice of pure-Python work (tuple-keyed dict build + sort) that
imports nothing from ``repro``.  It runs off the clock next to the
timed operations; the ratio between its frozen reference time and its
time *during a repetition* rescales that repetition's time metrics, so
slow drift of the shared box (frequency, steal, a noisy neighbour)
cancels instead of landing in the numbers.  Raw values are always kept
beside the calibrated ones in the run record.
"""

from __future__ import annotations

import statistics
import time

#: The kernel's median on the machine and commit the benchmark was
#: defined on (nproc=2, CPython 3.11).  Frozen: calibrated metrics are
#: "milliseconds on that machine".  Re-freezing it rescales every time
#: metric by the same factor, so it is a benchmark change, never part
#: of a change that claims a gain.
KERNEL_REF_MS = 2.1

_SIZE = 4000


def reference_kernel() -> int:
    table: dict[tuple[int, int], int] = {}
    x = 12345
    for i in range(_SIZE):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        table[(x & 0xFFFF, i & 7)] = x
    return len(sorted(table))


def kernel_ms() -> float:
    """One timed kernel run, in milliseconds."""
    started = time.perf_counter()
    reference_kernel()
    return (time.perf_counter() - started) * 1e3


def calibration_factor(samples: list[float]) -> float:
    """What a repetition's raw times are multiplied by."""
    return KERNEL_REF_MS / statistics.median(samples)
