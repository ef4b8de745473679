"""How fast the host runs Python at the moment of a measurement.

The 2-vCPU host the benchmark was tuned on runs the same pure-Python
loop at speeds up to 1.5x apart, for stretches of a second to several
minutes (see BASELINE.json). Raw times then move with the host, not
with the program. So a fixed loop of the dict, tuple and hash work the
interpreter does for rccs is timed next to every operation and every
set-up sample, and each time is scaled by REFERENCE_MS over the loop's
time around it: the benchmark's times read as on a host where the loop
takes REFERENCE_MS. The loop does not touch rccs, so a change to the
program moves the scaled times as much as the raw ones.
"""

from __future__ import annotations

import statistics
import time

# The loop's time at the faster of the two speeds the host of the
# baseline showed.
REFERENCE_MS = 0.12
LOOPS = 400
# A time is scaled by the median of the loop samples taken within this
# many seconds of it.
WINDOW_S = 0.5


def reference_ms() -> float:
    start = time.perf_counter()
    seen: dict = {}
    acc = 0
    for i in range(LOOPS):
        key = (i & 63, acc & 7, "ref")
        acc += hash(key) & 3
        seen[key] = seen.get(key, 0) + 1
    frozenset(seen)
    return (time.perf_counter() - start) * 1e3


def scaled(starts: list[float], seconds: list[float], refs: list[float]) -> list[float]:
    """seconds[k], which began at starts[k] (ascending) with the loop
    timed at refs[k] just before, as on the reference host."""
    out = []
    lo = hi = 0
    for start, value in zip(starts, seconds):
        while starts[lo] < start - WINDOW_S:
            lo += 1
        while hi < len(starts) and starts[hi] <= start + WINDOW_S:
            hi += 1
        out.append(value * REFERENCE_MS / statistics.median(refs[lo:hi]))
    return out
