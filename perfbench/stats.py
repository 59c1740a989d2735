"""Exact-sample statistics and the calibration loop.

Percentiles come from the recorded per-operation samples themselves,
never from histogram bucket bounds: a bucketed histogram reports the
bucket's upper edge, so three different tails can all read "25 ms".
"""

from __future__ import annotations

import math
import statistics
import time
from typing import List, Optional, Sequence, Tuple

#: A reported percentile must keep at least this many samples beyond it.
MIN_TAIL = 10


def percentile(
    samples: Sequence[float], pct: float
) -> Optional[Tuple[float, float, int]]:
    """The nearest-rank ``pct`` percentile of ``samples``, clamped down
    so that at least :data:`MIN_TAIL` samples lie beyond it.

    Returns ``(value, effective_pct, count)``; ``effective_pct`` is the
    percentile actually reported (below ``pct`` when there are too few
    samples for it), ``count`` the number of samples.  Returns None when
    no percentile keeps ten samples beyond it (ten or fewer samples).
    """
    if not 0 < pct < 100:
        raise ValueError(f"percentile must be in (0, 100), got {pct}")
    n = len(samples)
    rank = min(math.ceil(pct * n / 100.0), n - MIN_TAIL)
    if rank < 1:
        return None
    ordered = sorted(samples)
    return ordered[rank - 1], 100.0 * rank / n, n


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (the noise band
    a benchmark metric is judged by)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf


CALIB_ITERATIONS = 200_000


def calibration_ns(repeats: int = 5) -> int:
    """Median time of a fixed pure-Python loop, in nanoseconds.

    Recorded next to every run so a later absolute per-layer budget can
    be normalized across machines; nothing gates on it.
    """
    times: List[int] = []
    for _ in range(repeats):
        start = time.perf_counter_ns()
        acc = 0
        for i in range(CALIB_ITERATIONS):
            acc = (acc + i * i) % 1_000_003
        times.append(time.perf_counter_ns() - start)
    return int(statistics.median(times))
