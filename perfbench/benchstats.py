"""Statistics the benchmark reports: percentiles, self time, ratios."""

import math
import statistics
import time
from fractions import Fraction

MIN_BEYOND = 10  # samples that must lie beyond a reported tail percentile


def percentile(samples, q):
    """Nearest-rank q-th percentile (0 < q <= 100) of a non-empty sample."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered) / 100))
    return ordered[rank - 1]


def beyond(n, q):
    """Number of samples strictly beyond the nearest-rank q-th percentile."""
    return n - max(1, math.ceil(q * n / 100))


def tail_percentile(n, cap=95):
    """Highest whole percentile <= cap with at least MIN_BEYOND samples
    beyond it, or None when n is too small for any."""
    for q in range(cap, 0, -1):
        if beyond(n, q) >= MIN_BEYOND:
            return q
    return None


def self_time(start, end, children):
    """A span's duration minus the part of [start, end] its children cover.

    Children are (start, end) intervals; overlapping children are counted
    once and parts outside the span are ignored.
    """
    covered = 0.0
    reach = start
    for c_start, c_end in sorted(children):
        c_start, c_end = max(c_start, reach), min(c_end, end)
        if c_end > c_start:
            covered += c_end - c_start
            reach = c_end
    return (end - start) - covered


def ratio(part, base):
    """part / base for a count-based ratio; the base must be positive."""
    if base <= 0:
        raise ValueError(f"ratio with non-positive base {base}")
    return part / base


def latency_summary(latencies_s):
    """Median and p95 in milliseconds, the geometric mean in seconds, the
    sample count and the tail percentile that the MIN_BEYOND rule allows
    at this sample count."""
    n = len(latencies_s)
    return {
        "n": n,
        "p50_ms": statistics.median(latencies_s) * 1e3,
        "geomean_s": statistics.geometric_mean(latencies_s),
        "p95_ms": percentile(latencies_s, 95) * 1e3,
        "p95_beyond": beyond(n, 95),
        "tail_q": tail_percentile(n),
    }


# -- machine speed --------------------------------------------------------------
#
# On a shared host the speed of the same code drifts by +-25% over seconds
# (neighbours on the same cores, frequency changes).  The benchmark runs a
# fixed reference computation between instances and scales every time it
# reports to the speed at which the reference takes REFERENCE_NOMINAL_S, so
# that runs made at different moments compare the program, not the host.

REFERENCE_NOMINAL_S = 0.0009
SPEED_WINDOW = 5


def reference_work():
    """Fixed pure-Python work like the library's: Fractions, dicts, calls."""
    acc, counts = Fraction(0), {}
    for i in range(1, 120):
        acc += Fraction(i, i + 3) * Fraction(2 * i + 1, 7)
        key = (i % 17, i % 5)
        counts[key] = counts.get(key, 0) + i
    return acc, len(counts)


class Speed:
    """Reference timings taken during a run; ``factor`` scales a raw time
    to the nominal speed, from the median of the latest samples."""

    def __init__(self):
        self.samples = []

    def sample(self):
        start = time.perf_counter()
        reference_work()
        self.samples.append(time.perf_counter() - start)

    def factor(self):
        return REFERENCE_NOMINAL_S / statistics.median(self.samples[-SPEED_WINDOW:])
