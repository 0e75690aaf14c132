"""Order statistics and ratios used by the benchmark's reports."""

from __future__ import annotations

import math


def percentile(values, q: float) -> float:
    """The q-quantile (0 <= q <= 1) by linear interpolation between ranks.

    Same as ``statistics.quantiles(values, n=..., method="inclusive")`` at the
    cut points it produces, and as NumPy's default method.
    """
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    if not 0 <= q <= 1:
        raise ValueError(f"quantile {q} outside [0, 1]")
    h = (len(xs) - 1) * q
    lo = math.floor(h)
    if lo + 1 >= len(xs):
        return float(xs[-1])
    return xs[lo] + (h - lo) * (xs[lo + 1] - xs[lo])


def median(values) -> float:
    return percentile(values, 0.5)


def ratio(num: float, den: float) -> float:
    """num / den, or 0 when nothing was attempted (den == 0)."""
    return num / den if den else 0.0
