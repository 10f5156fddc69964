"""Summary statistics of one benchmark run.

Every operation's CPU time is divided by the mean CPU time of the reference
runs taken just before and just after it (``normalise``), which gives a
figure in units of ``ref``.  Timings are then summarised as the median and
the highest whole percentile that still has at least ten operations beyond
it (``tail_percentile``).
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

TAIL_MIN_BEYOND = 10
MIN_TAIL_SAMPLES = 4 * TAIL_MIN_BEYOND


def normalise(op_seconds: Sequence[float], ref_seconds: Sequence[float]) -> list[float]:
    """Operation i is divided by the mean of references i and i + 1.

    ``ref_seconds`` holds one more entry than ``op_seconds``: the reference
    runs bracket every operation.
    """
    if len(ref_seconds) != len(op_seconds) + 1:
        raise ValueError("need one reference run before and after every operation")
    out = []
    for i, seconds in enumerate(op_seconds):
        ref = (ref_seconds[i] + ref_seconds[i + 1]) / 2
        if ref <= 0:
            raise ValueError("reference run took no CPU time")
        out.append(seconds / ref)
    return out


def tail_percentile(values: Sequence[float]) -> tuple[int, float]:
    """(p, value): the highest whole percentile p < 100 with at least ten
    samples ranked beyond it, by the nearest-rank rule.

    With fewer than forty samples no percentile above the median is a tail,
    so the median (p = 50) is returned.
    """
    n = len(values)
    if n == 0:
        raise ValueError("no samples")
    ordered = sorted(values)
    if n < MIN_TAIL_SAMPLES:
        return 50, statistics.median(ordered)
    for p in range(99, 49, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= TAIL_MIN_BEYOND:
            return p, ordered[rank - 1]
    return 50, statistics.median(ordered)  # pragma: no cover - n >= 40 never gets here
