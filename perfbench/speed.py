"""Timings normalized by the machine's speed at the moment they were taken.

On the 2-vCPU Intel Xeon virtual machine this benchmark was built on, the
vCPUs share physical cores with other tenants, and the same pure-Python loop
took anywhere from 24 to 49 ms from one second to the next. CPU time tracked
wall time, so this is slower execution, not lost scheduling. A fixed
calibration loop run just before and just after each timed call measures the
speed of that moment, and the call's time is rescaled to a machine on which
the loop takes REFERENCE_S. Across runs of 15 s, the quartile spread of the
runs' median op latency was 18-35% of the median with raw times and 3-8%
with rescaled ones in most ten-run sets. The loop follows some workloads
more closely than others, so it removes most of the drift, not all of it: a
contention episode that slowed one workload's ops 2x but the loop only 1.7x,
over three consecutive runs, still widened that set's spread to 23%.

The calibration loop is part of the benchmark, not of lglift, and must not
change between a parent and a change that are compared.
"""

from __future__ import annotations

import time

CALIBRATION_ITERATIONS = 50_000
#: calibration time of the reference machine, to which timings are rescaled
REFERENCE_S = 0.008


def calibrate() -> float:
    """Seconds for a fixed dict-and-float loop (6-10 ms on the machine above)."""
    start = time.perf_counter()
    table = {}
    for i in range(CALIBRATION_ITERATIONS):
        k = i % 997
        table[k] = table.get(k, 0.0) + i * 0.5
    return time.perf_counter() - start


def timed(fn, *args, **kwargs):
    """Run fn once between two calibrations.

    Returns (result, raw seconds, factor); raw * factor is the time on the
    reference machine.
    """
    before = calibrate()
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    raw = time.perf_counter() - start
    after = calibrate()
    return result, raw, REFERENCE_S / (0.5 * (before + after))
