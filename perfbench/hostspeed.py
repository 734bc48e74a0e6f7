"""Host speed: a fixed reference kernel, timed between the measured
pieces of a run, that tells how fast the shared host is running.

The machine the benchmark was written on drifts by 20 % and more over
a minute or two, and the drift slows compute-bound work alike.  The
offline workload times :func:`reference_kernel` around each set-up and
each experiment; a section's *host factor* is the median of its
samples over :data:`REFERENCE_S`, and the section's time is divided by
it, so it reads what the work would take on a host that runs the
kernel in :data:`REFERENCE_S`.

The kernel is the benchmark's own code: it imports nothing from
``repro``, draws its inputs from a fixed generator (not ``--seed``),
allocates its buffers once, at import, and runs with the cyclic
collector off, so no change to the program changes the work it times.  Its mix is the
program's: an interpreted table-update loop (the scalar engines), NumPy
scatter, gather and sort (the batch engines), page faults on fresh
anonymous memory and a copy larger than the caches (the temporaries
both leave behind).
"""

from __future__ import annotations

import gc
import mmap
import statistics
import time
from typing import List

import numpy as np

#: The kernel's time on the reference host: a round figure near its
#: median, 0.099 s over 513 samples, on the 2-vCPU VM the baseline in
#: README.md was measured on.
REFERENCE_S = 0.1

_TABLE = 1 << 16
_RNG = np.random.default_rng(20010119)
_INDEX = _RNG.integers(0, _TABLE, 200_000)
_REVERSED = np.ascontiguousarray(_INDEX[::-1])
_VALUES = _RNG.integers(0, 1 << 31, 200_000)
# Every buffer is allocated once, here: a kernel that allocated its
# buffers on each call would time the allocator and whatever heap the
# program left behind.
_DENSE = np.zeros(_TABLE, dtype=np.int64)
_GATHERED = np.empty(len(_INDEX), dtype=np.int64)
_SLOTS = [0] * _TABLE
_PAGE = mmap.PAGESIZE
_FRESH_BYTES = 8 << 20
_COPY_SRC = np.ones(2 << 20, dtype=np.int64)
_COPY_DST = np.zeros_like(_COPY_SRC)


def reference_kernel() -> float:
    """Seconds one pass of the reference kernel takes."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        slots, acc = _SLOTS, 0
        for i in range(150_000):
            key = (i * 2654435761) & 0xFFFF
            value = slots[key]
            slots[key] = (value + i) & 0xFFFFFFFF
            acc ^= value
        for _ in range(16):
            _DENSE[_INDEX] = _VALUES
            np.take(_DENSE, _REVERSED, out=_GATHERED)
            _GATHERED.sort(kind="quicksort")
        # Fresh pages come from the operating system, never from the
        # heap: each touch is a page fault and a zeroed page.
        for _ in range(2):
            fresh = mmap.mmap(-1, _FRESH_BYTES)
            for offset in range(0, _FRESH_BYTES, _PAGE):
                fresh[offset] = 1
            fresh.close()
        for _ in range(4):
            np.copyto(_COPY_DST, _COPY_SRC)
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """Reference-kernel samples of one run (or one part of it)."""

    def __init__(self):
        self.samples: List[float] = []

    def sample(self) -> None:
        self.samples.append(reference_kernel())

    def factor(self) -> float:
        """How many times slower than the reference host the host ran:
        the median sample over :data:`REFERENCE_S`."""
        return statistics.median(self.samples) / REFERENCE_S
