"""Machine-speed calibration for wall times.

The benchmark's host is a shared 2-core VM whose speed drifts: a fixed
pure-Python task measured in 10 s windows ranged from 11 to 22 ms over three
minutes, and 30 s runs of the same ops differed by up to 20 %.  Run-to-run
spread of that size hides any change a bound could catch.  So every timed
op is followed by a fixed reference task that never touches genwass, and
each op's wall time is scaled by NOMINAL_REF_S over the median reference
time of the ops around it.  On that host, calibration cut the spread of
30 s windows from 12-14 % to 5-7 % on all three workloads; the program
and the reference slowed together (log-log slope 1.0-1.1).

The reference is an interpreter-bound float shortest-path closure, the kind
of loop the program runs.  Changing it, or NOMINAL_REF_S, changes every
calibrated figure: do it only in a change of its own and re-measure the
baseline.
"""

from __future__ import annotations

import statistics
import time

# Reference time that calibrated figures are scaled to: its median on the
# 2-core VM the benchmark was defined on.
NOMINAL_REF_S = 0.0035
# Ops on each side of an op whose reference times set its speed factor.
HALF_WINDOW = 8
REF_N = 40


def reference_work() -> float:
    n = REF_N
    f = [[float((i * 5 + j) % 9 + 1) for j in range(n)] for i in range(n)]
    for k in range(n):
        fk = f[k]
        for i in range(n):
            fik = f[i][k]
            row = f[i]
            for j in range(n):
                v = fik + fk[j]
                if v < row[j]:
                    row[j] = v
    return f[n - 1][0]


def time_reference() -> float:
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


def speed_factors(ref_times: list[float]) -> list[float]:
    """Per-op scale: NOMINAL_REF_S over the median reference time near the op."""
    out = []
    for k in range(len(ref_times)):
        near = ref_times[max(k - HALF_WINDOW, 0) : k + HALF_WINDOW + 1]
        out.append(NOMINAL_REF_S / statistics.median(near))
    return out
