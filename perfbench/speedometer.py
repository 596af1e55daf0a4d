"""Host-speed readings, and timed regions normalised by them.

A host shared with other tenants changes speed by tens of percent over
seconds to minutes.  Each timed region of the program is paired with a
reading of a fixed piece of the benchmark's own work, taken right after
it, and reported as the time it would take at the reference speed.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

clock = time.perf_counter


class Speedometer:
    """A fixed piece of work owned by the benchmark, timed next to each timed region.

    It mimics a naive serve loop at tree size n: a numpy rank scan over n
    stamps, an argmin over one level and some interpreter work per item.
    It never calls satree, so a change to the program cannot change it.
    `REF[n]` is its median time on the reference host (2-vCPU Intel Xeon)
    in a quiet stretch; see README.md ("Keeping timed regions steady").
    """

    REF = {255: 0.001118, 131071: 0.001472}
    ITEMS = {255: 150, 131071: 10}

    def __init__(self, n):
        self.items = np.random.default_rng(0).integers(0, n, size=self.ITEMS[n]).tolist()
        self.initial = -np.arange(1, n + 1, dtype=np.int64)
        self.ref = self.REF[n]

    def __call__(self) -> float:
        """Seconds the fixed work took just now."""
        t0 = clock()
        stamps = self.initial.copy()
        acc = 0
        for t, v in enumerate(self.items):
            lo = (1 << (((v + 1).bit_length() - 1) // 2)) - 1
            acc += int((stamps > stamps[v]).sum()) + int(np.argmin(stamps[lo:2 * lo + 1]))
            stamps[v] = t
        return clock() - t0


class Normalized:
    """Timed regions, each paired with the Speedometer reading taken right after it.

    Regions with the same key are the same work repeated (a chunk index of
    an episode, a step of a round).  The normalised time of a key is the
    median over its repeats of region / reading, times the reference
    reading: what the region would take at the reference host speed.
    """

    def __init__(self, speedometer, readings=1):
        self.speed = speedometer
        self.readings = readings
        self.samples = {}

    def add(self, key, seconds):
        reading = statistics.median(self.speed() for _ in range(self.readings))
        self.samples.setdefault(key, []).append((seconds, reading))

    def seconds(self, match=lambda key: True) -> float:
        return self.speed.ref * sum(
            statistics.median(p / c for p, c in pairs) for key, pairs in self.samples.items() if match(key)
        )

    def raw(self, match=lambda key: True) -> float:
        return sum(p for key, pairs in self.samples.items() if match(key) for p, _ in pairs)
