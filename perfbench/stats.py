"""Summary statistics shared by run.py and ab.py.

Timings are reported as medians; spreads as the distance between the first
and third quartile (``statistics.quantiles(values, n=4)``) over the median.
A tail timing is reported at the highest percentile that still has at least
ten samples beyond it, together with the sample count it rests on.
"""

import math
import re
import statistics

# Percentiles a tail figure may be reported at, lowest first.
TAIL_PERCENTILES = (50.0, 90.0, 99.0, 99.9)
MIN_BEYOND = 10

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def valid_name(name):
    """Metric / workload names: letters, digits, '_', '.', '-' (<= 64)."""
    return (isinstance(name, str) and 0 < len(name) <= 64
            and NAME_RE.fullmatch(name) is not None
            and name[0].isalnum())


def median(values):
    return statistics.median(values) if values else 0.0


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        v = values[0] if values else 0.0
        return (v, v, v)
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


def spread(values):
    """Inter-quartile distance as a share of the median (0 for constants)."""
    q1, med, q3 = quartiles(values)
    if med == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(med)


def highest_percentile(n):
    """The highest tail percentile with >= MIN_BEYOND samples beyond it."""
    best = None
    for p in TAIL_PERCENTILES:
        if n * (1.0 - p / 100.0) >= MIN_BEYOND - 1e-9:
            best = p
    return best


def percentile(values, p):
    """Nearest-rank percentile: the ceil(p/100 * n)-th smallest sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def tail(values):
    """(percentile, value, n) at the highest allowed percentile, or
    (None, 0.0, n) when even the median lacks ten samples beyond it."""
    p = highest_percentile(len(values))
    if p is None:
        return (None, 0.0, len(values))
    return (p, percentile(values, p), len(values))
