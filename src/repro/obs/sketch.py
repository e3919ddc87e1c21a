"""Mergeable fixed-bucket metric sketches for cross-process aggregation.

Campaign workers summarize what they saw — span latencies, per-tick
counter growth — into *sketches*: fixed-size, plain-data digests whose
merge is a commutative, associative integer fold. That property is what
the campaign telemetry fabric rests on: frames arrive at the collector
in whatever order the process pool produces them, and the aggregate must
not depend on that order. Both classes here guarantee it structurally —
every merge is a key-wise integer sum (plus min/max, which are also
order-free) — and :meth:`canonical` serializes the state with sorted
keys, so two folds of the same contributions are **byte-identical**
regardless of arrival order. The fabric equivalence tests assert exactly
that.

Unlike :class:`~repro.sim.stats.Histogram` (whose merge re-bins on a
width mismatch), a sketch's bucket width is part of its identity:
merging mismatched widths is a programming error and raises, because a
silent re-bin would break the byte-identity contract.
"""

import json


class LatencySketch:
    """Fixed-bucket latency digest: count/sum/min/max + bucket counts.

    ``bucket_width`` is fixed at construction and must match across every
    merge — all workers of one campaign are built from the same fabric
    config, so widths agree by construction.
    """

    __slots__ = ("bucket_width", "count", "total", "min", "max", "buckets")

    def __init__(self, bucket_width=8):
        if bucket_width < 1:
            raise ValueError(f"bucket_width must be >= 1, got {bucket_width}")
        self.bucket_width = bucket_width
        self.count = 0
        self.total = 0
        self.min = None
        self.max = None
        self.buckets = {}

    def observe(self, value):
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        bucket = int(value) // self.bucket_width
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1

    @property
    def mean(self):
        return self.total / self.count if self.count else 0.0

    def percentile(self, q):
        """Approximate ``q``-quantile (q in [0, 1]) from the buckets."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        target = q * self.count
        cumulative = 0
        width = self.bucket_width
        for bucket in sorted(self.buckets):
            in_bucket = self.buckets[bucket]
            if cumulative + in_bucket >= target:
                fraction = (target - cumulative) / in_bucket
                estimate = bucket * width + fraction * width
                return min(max(estimate, self.min), self.max)
            cumulative += in_bucket
        return self.max

    def merge(self, other):
        """Key-wise integer fold of ``other`` into self. Order-free."""
        if other.bucket_width != self.bucket_width:
            raise ValueError(
                f"sketch width mismatch: {self.bucket_width} vs "
                f"{other.bucket_width} (widths are part of a sketch's identity)"
            )
        self.count += other.count
        self.total += other.total
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max
        for bucket, count in other.buckets.items():
            self.buckets[bucket] = self.buckets.get(bucket, 0) + count
        return self

    @classmethod
    def from_histogram(cls, hist):
        """Exact conversion from a same-shaped :class:`Histogram`."""
        sketch = cls(bucket_width=hist.bucket_width)
        sketch.count = hist.count
        sketch.total = hist.total
        sketch.min = hist.min
        sketch.max = hist.max
        sketch.buckets = dict(hist.buckets)
        return sketch

    def as_dict(self):
        return {
            "bucket_width": self.bucket_width,
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            # string keys so the dict survives JSON round-trips unchanged
            "buckets": {str(k): v for k, v in self.buckets.items()},
        }

    @classmethod
    def from_dict(cls, data):
        sketch = cls(bucket_width=data["bucket_width"])
        sketch.count = data["count"]
        sketch.total = data["sum"]
        sketch.min = data["min"]
        sketch.max = data["max"]
        sketch.buckets = {int(k): v for k, v in data["buckets"].items()}
        return sketch

    def canonical(self):
        """Sorted-key JSON bytes: equal folds serialize byte-identically."""
        return json.dumps(self.as_dict(), sort_keys=True).encode()

    def __eq__(self, other):
        return (isinstance(other, LatencySketch)
                and self.canonical() == other.canonical())

    def __repr__(self):
        return (f"LatencySketch(width={self.bucket_width}, count={self.count}, "
                f"mean={self.mean:.1f})")


class CounterSeries:
    """Per-name counter growth bucketed by simulation tick, mergeable.

    Workers record *deltas* ("events_fired grew by 1800 inside tick
    bucket 3"); the collector folds every worker's contribution with a
    key-wise sum. The bucket key is simulation time, not arrival time, so
    the folded series is a deterministic function of the jobs that ran —
    not of pool scheduling.
    """

    __slots__ = ("bucket_ticks", "series")

    def __init__(self, bucket_ticks=5000):
        if bucket_ticks < 1:
            raise ValueError(f"bucket_ticks must be >= 1, got {bucket_ticks}")
        self.bucket_ticks = bucket_ticks
        self.series = {}  # name -> {bucket index -> summed delta}

    def record(self, tick, name, delta):
        if not delta:
            return
        bucket = tick // self.bucket_ticks
        buckets = self.series.get(name)
        if buckets is None:
            buckets = self.series[name] = {}
        buckets[bucket] = buckets.get(bucket, 0) + delta

    def merge(self, other):
        if other.bucket_ticks != self.bucket_ticks:
            raise ValueError(
                f"series bucket mismatch: {self.bucket_ticks} vs "
                f"{other.bucket_ticks}"
            )
        for name, buckets in other.series.items():
            mine = self.series.get(name)
            if mine is None:
                mine = self.series[name] = {}
            for bucket, delta in buckets.items():
                mine[bucket] = mine.get(bucket, 0) + delta
        return self

    def total(self, name):
        return sum(self.series.get(name, {}).values())

    def as_dict(self):
        return {
            "bucket_ticks": self.bucket_ticks,
            "series": {
                name: {str(bucket): delta for bucket, delta in buckets.items()}
                for name, buckets in self.series.items()
            },
        }

    @classmethod
    def from_dict(cls, data):
        series = cls(bucket_ticks=data["bucket_ticks"])
        series.series = {
            name: {int(bucket): delta for bucket, delta in buckets.items()}
            for name, buckets in data["series"].items()
        }
        return series

    def canonical(self):
        """Sorted-key JSON bytes: equal folds serialize byte-identically."""
        return json.dumps(self.as_dict(), sort_keys=True).encode()

    def __eq__(self, other):
        return (isinstance(other, CounterSeries)
                and self.canonical() == other.canonical())

    def __repr__(self):
        return (f"CounterSeries(bucket_ticks={self.bucket_ticks}, "
                f"names={sorted(self.series)})")
