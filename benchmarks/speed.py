"""Machine-speed probe, so timings from a shared host can be compared.

On a shared 2-core host the same computation runs up to twice as slow when
neighbours are busy, in CPU time as much as in wall time, over spans of
tens of seconds.  The benchmark therefore runs a fixed, benchmark-owned
interpreter workload (`probe`) between ops, and scales each op's measured
time by REFERENCE_PROBE_S / (the probe time around it).  A metric then
reads in seconds at the reference speed: a program change moves it, a busy
neighbour mostly does not.  The raw, unscaled figures are kept in the
run's detail output.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

# Typical probe time on a 2-core Xeon host with Python 3.11.  Only the
# ratio matters: this constant fixes the unit the scaled times are read in.
REFERENCE_PROBE_S = 4.0e-3
PROBE_EVERY_S = 0.1  # probe again once this much op time has passed
NEIGHBOURS = 5  # probes around an interval whose median gives its speed


def _work(table: dict, keys: tuple, rounds: int) -> float:
    acc = 0.0
    for r in range(rounds):
        row = [table[keys[(r * 7 + j) % 64]] for j in range(40)]
        row.sort(key=lambda x: (x[1], -x[0]))
        acc += sum(a * 1.0001 - b for a, b in row[:12])
        acc += len(frozenset(k for k in keys[r % 16:r % 16 + 8]))
    return acc


def probe() -> float:
    """Seconds for a fixed mix of calls, dict lookups, float arithmetic,
    small allocations and sorts -- what the solvers spend their time on.

    A short untimed pass brings the code back into cache, and the cyclic
    garbage collector is held off, so that the probe does not pay for
    garbage the previous op left behind.
    """
    table = {f"a{i}": (i * 0.37, i % 7) for i in range(64)}
    keys = tuple(table)
    enabled = gc.isenabled()
    gc.disable()
    try:
        _work(table, keys, 10)
        t0 = time.perf_counter()
        _work(table, keys, 240)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class SpeedTracker:
    """Probe times along the run, and the speed factor of any interval."""

    def __init__(self):
        self.at: list[float] = []  # perf_counter() when each probe ended
        self.took: list[float] = []
        self.last = -float("inf")

    def maybe_probe(self) -> None:
        """Probe if PROBE_EVERY_S have passed since the last probe."""
        now = time.perf_counter()
        if now - self.last >= PROBE_EVERY_S:
            self.probe_now()

    def probe_now(self) -> None:
        took = probe()
        self.last = time.perf_counter()
        self.at.append(self.last)
        self.took.append(took)

    def factor(self, t0: float, t1: float) -> float:
        """REFERENCE_PROBE_S / median probe time of the probes nearest [t0, t1]."""
        lo = bisect.bisect_left(self.at, t0)
        hi = bisect.bisect_right(self.at, t1)
        near = self.took[max(0, lo - NEIGHBOURS // 2):hi + NEIGHBOURS // 2 + 1]
        return REFERENCE_PROBE_S / statistics.median(near or self.took)
