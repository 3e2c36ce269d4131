"""Order statistics shared by the benchmark runner and ``compare.py``.

Quartiles use :func:`statistics.quantiles` with its default (exclusive)
method, the same rule the spread checks in ``README.md`` are stated in.
"""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence, Tuple

#: A tail percentile is reported only when at least this many samples
#: lie beyond it; with fewer, the "p90" is really one or two outliers.
MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(Q1, median, Q3); a single value is its own quartiles."""
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0 when the
    median is 0, where a share means nothing)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def nearest_rank(values: Sequence[float], pct: float) -> float:
    """The nearest-rank ``pct`` percentile of ``values``."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def tail_percentile(values: Sequence[float], pct: float = 90.0
                    ) -> Optional[float]:
    """The ``pct`` percentile, or None unless at least
    :data:`MIN_BEYOND` samples lie beyond it."""
    n = len(values)
    rank = max(1, math.ceil(pct / 100.0 * n))
    if n - rank < MIN_BEYOND:
        return None
    return nearest_rank(values, pct)
