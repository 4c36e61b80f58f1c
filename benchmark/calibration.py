"""Machine-speed calibration for benchmark timings.

On shared hosts the machine's speed drifts by a third within minutes, which
would swamp any change to kstlab.  A fixed pure-Python job, timed often
during a run, tracks that drift: each measured time is scaled by
``NOMINAL_S`` over the job's median time around the measurement.  The job
is the benchmark's own code, so a change to kstlab does not move it.  Raw
times are kept in the run record beside the scaled ones.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

NOMINAL_S = 0.001
WINDOW = 3      # samples on each side of a measurement

_ADJ = [((v * 2654435761) ^ (v * 40503)) & ((1 << 64) - 1) | 1 << ((v + 1) % 64)
        for v in range(64)]


def job() -> float:
    """Seconds taken by a fixed job of bitset closures and small allocations,
    the kind of work the library does; the median of three timings."""
    times = []
    for _ in range(3):
        t0 = perf_counter()
        for seed in range(24):
            reach = frontier = 1 << seed
            while frontier:
                nxt = 0
                m = frontier
                while m:
                    low = m & -m
                    nxt |= _ADJ[low.bit_length() - 1]
                    m ^= low
                frontier = nxt & ~reach
                reach |= frontier
            sorted({v: reach >> v & 1 for v in range(64)}.items())
        times.append(perf_counter() - t0)
    return statistics.median(times)


def scaled(latencies: list[float], samples: list[float], taken_after: list[int]) -> list[float]:
    """Each latency times NOMINAL_S over the median of the ``WINDOW`` samples
    on either side of it; ``taken_after[j]`` is the number of latencies
    measured before sample j."""
    out = []
    for i, dt in enumerate(latencies):
        j = bisect.bisect_right(taken_after, i)
        near = samples[max(0, j - WINDOW):j + WINDOW]
        out.append(dt * NOMINAL_S / statistics.median(near))
    return out
