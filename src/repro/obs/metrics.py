"""Streaming observability metrics: fixed-bucket histograms.

Unlike :class:`repro.common.stats.Stats` — the simulator's terminal
counters — these metrics keep *distributions*: miss latency by hop class,
NACK/retry counts per transaction, and intervention-delay occupancy.
Miss latency and retries are always on (:class:`MissCounts`, one per
:class:`~repro.sim.System`); intervention occupancy is collected only by
a :class:`~repro.obs.Tracer`.
Everything is streaming so full-scale runs can keep metrics on even when
span recording is sampled down.

Bucket boundaries are fixed at construction; a value lands in the first
bucket whose upper bound is >= the value, with one overflow bucket at the
end.  Fixed buckets keep the summary deterministic and mergeable.
"""

import bisect
from collections import defaultdict


def exponential_bounds(start, factor, count):
    """``count`` ascending bucket upper bounds growing by ``factor``.

    ``exponential_bounds(50, 2, 4)`` -> ``(50, 100, 200, 400)``.
    """
    if start <= 0 or factor <= 1 or count < 1:
        raise ValueError("need start > 0, factor > 1, count >= 1")
    bounds = []
    value = start
    for _ in range(count):
        bounds.append(value)
        value = value * factor
    return tuple(bounds)


class Histogram:
    """A fixed-bucket histogram with streaming count/sum/min/max.

    ``bounds`` are ascending inclusive upper bounds; values above the last
    bound fall into a final overflow bucket.
    """

    def __init__(self, bounds):
        bounds = tuple(bounds)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if list(bounds) != sorted(set(bounds)):
            raise ValueError("bucket bounds must be strictly ascending")
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0
        self.min = None
        self.max = None

    def bucket_of(self, value):
        """Index of the bucket ``value`` falls into (last = overflow)."""
        return bisect.bisect_left(self.bounds, value)

    @classmethod
    def from_counts(cls, bounds, counts):
        """A histogram of exact-value ``counts`` (``{value: times}``)."""
        hist = cls(bounds)
        for value, times in sorted(counts.items()):
            hist.record(value, times)
        return hist

    @classmethod
    def from_dict(cls, doc):
        """Rebuild a histogram from its :meth:`to_dict` document."""
        hist = cls(doc["bounds"])
        hist.counts = list(doc["counts"])
        hist.count = doc["count"]
        hist.total = doc["sum"]
        hist.min = doc["min"]
        hist.max = doc["max"]
        return hist

    def record(self, value, times=1):
        self.counts[self.bucket_of(value)] += times
        self.count += times
        self.total += value * times
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def merge(self, other):
        """Fold ``other`` (same bounds) into this histogram; returns self."""
        if other.bounds != self.bounds:
            raise ValueError("cannot merge histograms with different bounds")
        self.counts = [a + b for a, b in zip(self.counts, other.counts)]
        self.count += other.count
        self.total += other.total
        if other.count:
            self.min = (other.min if self.min is None
                        else min(self.min, other.min))
            self.max = (other.max if self.max is None
                        else max(self.max, other.max))
        return self

    @property
    def mean(self):
        return self.total / self.count if self.count else 0.0

    def percentile(self, fraction):
        """Upper bound of the bucket containing the ``fraction`` quantile.

        Returns None on an empty histogram, and the recorded maximum for
        quantiles landing in the overflow bucket.
        """
        if not self.count:
            return None
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        threshold = fraction * self.count
        seen = 0
        for index, bucket_count in enumerate(self.counts):
            seen += bucket_count
            if seen >= threshold and bucket_count:
                if index >= len(self.bounds):
                    return self.max
                return self.bounds[index]
        return self.max

    def quantiles(self, fractions=(0.5, 0.95)):
        """``{"p50": ..., "p95": ...}`` via :meth:`percentile`.

        The serving layer's latency metrics use this; keys are
        ``p<percent>`` with trailing-zero-free percents (0.999 -> p99.9).
        """
        out = {}
        for fraction in fractions:
            label = ("%g" % (fraction * 100.0))
            out["p" + label] = self.percentile(fraction)
        return out

    def to_dict(self):
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
        }

    def __repr__(self):
        return "Histogram(n=%d, mean=%.1f)" % (self.count, self.mean)


#: Default miss-latency buckets, in cycles: one network hop is 100 cycles
#: and DRAM is 200, so the interesting range is ~10 (local hit) to a few
#: thousand (NACK/retry storms).
MISS_LATENCY_BOUNDS = exponential_bounds(25, 2, 10)  # 25 .. 12800

#: Retry counts per transaction: most misses retry 0 times; delegation
#: races produce small bursts.
RETRY_BOUNDS = (0, 1, 2, 4, 8, 16, 32, 64)

#: Intervention-delay occupancy (cycles armed before firing/cancelling).
OCCUPANCY_BOUNDS = exponential_bounds(25, 2, 8)  # 25 .. 3200


class MissCounts:
    """Always-on miss statistics: exact-value counts, one O(1) bump each.

    The requester adds one count per completed miss to its hop class's
    latency table (cycles from issue to completion) and one to the retry
    table (NACKs the miss absorbed).  Exact values keep the hot path free
    of bucketing; :meth:`summary` folds them into the fixed-bucket
    histograms every run reports as ``RunResult.extras["latency"]``.
    """

    PATHS = ("local", "2hop", "3hop")

    def __init__(self):
        self.latency = {path: defaultdict(int) for path in self.PATHS}
        self.retries = defaultdict(int)

    def summary(self):
        """``{"miss_latency": {path: histogram doc}, "retries": doc}``."""
        return {
            "miss_latency": {
                path: Histogram.from_counts(MISS_LATENCY_BOUNDS,
                                            counts).to_dict()
                for path, counts in self.latency.items()},
            "retries": Histogram.from_counts(RETRY_BOUNDS,
                                             self.retries).to_dict(),
        }


def miss_percentiles(latency, fractions=(0.50, 0.95)):
    """Quantiles of all misses, hop classes merged, from a
    ``RunResult.extras["latency"]`` document: one value (or None when no
    miss completed) per fraction."""
    merged = Histogram(MISS_LATENCY_BOUNDS)
    for doc in latency["miss_latency"].values():
        merged.merge(Histogram.from_dict(doc))
    return [merged.percentile(fraction) for fraction in fractions]
