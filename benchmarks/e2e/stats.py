"""Order statistics shared by the runner, the worker and ``compare.py``.

Standard library only: the parent process of a benchmark run never imports
numpy, so its own start-up stays out of ``setup_s``.
"""

from __future__ import annotations

import statistics

#: Percentiles a tail statistic may be reported at, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) exactly as the acceptance driver computes them."""
    values = [float(v) for v in values]
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Inter-quartile distance as a share of the median (0 for one value)."""
    q1, q2, q3 = quartiles(values)
    return abs(q3 - q1) / abs(q2) if q2 else 0.0


def percentile(values, pct: float) -> float:
    """Linear-interpolated percentile of ``values`` (``pct`` in 0..100)."""
    ordered = sorted(float(v) for v in values)
    if not ordered:
        raise ValueError("percentile of no samples")
    pos = (len(ordered) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(nsamples: int) -> float:
    """The highest reportable percentile with >= 10 samples beyond it.

    A p90 of 40 samples rests on 4 points; the choosing-metrics rule asks
    for ten.  Falls back to the median when even p75 has too few.
    """
    for pct in TAIL_PERCENTILES:
        if nsamples * (100.0 - pct) / 100.0 >= 10.0 - 1e-9:
            return pct
    return 50.0


def summarize(values) -> dict:
    """Sample count, median and quartiles of one metric's samples."""
    q1, q2, q3 = quartiles(values)
    return {"n": len(values), "median": q2, "q1": q1, "q3": q3}
