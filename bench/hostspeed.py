"""Host-speed adjustment of op times.

The benchmark runs on shared hosts whose speed drifts by up to 2x within a
minute as other tenants come and go, and CPU time drifts with wall time, so
neither reading alone repeats from run to run.  ``HostSpeed`` times a fixed
reference block (building a dict keyed by strings: hashing, allocation and
pointer chasing, like the library's tree walks) between ops, at most every
``EVERY_S`` seconds.  An op's time is then scaled by

    NOMINAL_S / (mean of the reference times just before and just after it)

which reads as the op's time on a host where the block takes ``NOMINAL_S``.
The block is the benchmark's own code and never changes with the library,
so a slower or faster library still moves the adjusted time one for one.
"""

from __future__ import annotations

import bisect
import gc
import time

EVERY_S = 0.1  # a reading is taken before an op once this long has gone by
NOMINAL_S = 0.003  # reference block time on a quiet 2-core x86-64 VM
KEYS = 15000
REPEATS = 3  # a reading is the best of this many blocks


class HostSpeed:
    """Reference readings taken between ops, and the scale they give."""

    def __init__(self):
        self.keys = [f"k{i:06d}.{i % 97}" for i in range(KEYS)]
        self.ends = []  # perf_counter at the end of each reading
        self.block_s = []  # the reading: best block time in seconds
        self._block()  # warm-up

    def _block(self):
        # no cyclic collection inside the block: its cost depends on what
        # the last op left alive, not on the host's speed
        gc.disable()
        try:
            table = {}
            for i, key in enumerate(self.keys):
                table[key] = (i, key[:3])
            return sum(value[0] for value in table.values())
        finally:
            gc.enable()

    def tick(self, force=False):
        """Take a reading if ``EVERY_S`` has gone by since the last (or ``force``)."""
        if not force and self.ends and time.perf_counter() - self.ends[-1] < EVERY_S:
            return
        best = float("inf")
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            self._block()
            best = min(best, time.perf_counter() - t0)
        self.ends.append(time.perf_counter())
        self.block_s.append(best)

    def scale(self, start, end):
        """``NOMINAL_S`` over the mean of the readings around [start, end]."""
        before = bisect.bisect_right(self.ends, start) - 1
        after = bisect.bisect_left(self.ends, end)
        if before < 0 or after >= len(self.ends):
            raise ValueError("op not bracketed by reference readings")
        return NOMINAL_S / (0.5 * (self.block_s[before] + self.block_s[after]))
