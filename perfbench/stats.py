"""Order statistics over raw samples, shared by every workload.

Percentiles use the nearest-rank definition: the p-th percentile of n
samples is the ceil(p/100 * n)-th smallest, so it is always one of the
samples and never exceeds their maximum.
"""

from fractions import Fraction

# Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99, 95, 90, 75, 50)
TAIL_MIN_BEYOND = 10


def rank(p, n):
    """1-based nearest rank of percentile p (0 < p <= 100) among n samples."""
    if n < 1:
        raise ValueError("no samples")
    p = Fraction(str(p))
    if not 0 < p <= 100:
        raise ValueError("percentile out of range: %s" % p)
    r = -((-p * n) // 100)  # ceil, in exact arithmetic
    return max(1, int(r))


def percentile(samples, p):
    xs = sorted(samples)
    return xs[rank(p, len(xs)) - 1]


def median(samples):
    return percentile(samples, 50)


def tail(samples):
    """(p, value): the highest candidate percentile with at least
    TAIL_MIN_BEYOND samples above its rank; the median when there are too
    few samples for any."""
    n = len(samples)
    for p in TAIL_PERCENTILES:
        if n - rank(p, n) >= TAIL_MIN_BEYOND:
            return p, percentile(samples, p)
    return 50, median(samples)
