"""Summary statistics and span arithmetic shared by the benchmark."""

from __future__ import annotations

import math
import statistics

#: Percentiles the tail metric may report, lowest first.  The tail is
#: the highest of these with at least ``TAIL_MIN_BEYOND`` samples
#: beyond it; p99 is the cap so a long run does not switch to a noisier
#: percentile than a short one.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0)
TAIL_MIN_BEYOND = 10


def percentile(sorted_values: list, p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(n: int) -> float | None:
    """The highest ladder percentile with at least ``TAIL_MIN_BEYOND``
    of ``n`` nearest-rank samples strictly beyond it, or ``None`` when
    even the median has fewer."""
    chosen = None
    for p in TAIL_LADDER:
        if n - max(1, math.ceil(p / 100.0 * n)) >= TAIL_MIN_BEYOND:
            chosen = p
    return chosen


def latency_summary(samples: list) -> dict:
    """Median, tail (by :func:`tail_percentile`) and sample count."""
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        return {"n": 0, "p50": None, "tail": None, "tail_p": None}
    p = tail_percentile(n)
    return {
        "n": n,
        "p50": percentile(ordered, 50.0),
        "tail": percentile(ordered, p) if p is not None else ordered[-1],
        "tail_p": p,
    }


def median_iqr(values: list) -> tuple[float, float]:
    """Median and quartile spread (q3 - q1) / median, with quartiles as
    ``statistics.quantiles(values, n=4)`` gives them."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, ((q3 - q1) / median if median else float("inf"))


def self_times(spans: list) -> dict:
    """Self time of every span: its duration minus the durations of its
    direct children.  A span is ``(sid, name, start, end, parent, ...)``
    with ``parent`` the ``sid`` of the enclosing span on the same
    thread, or -1."""
    own = {s[0]: s[3] - s[2] for s in spans}
    for s in spans:
        parent = s[4]
        if parent in own:
            own[parent] -= s[3] - s[2]
    return own
