"""Mergeable per-tick counter series for cross-process aggregation.

Campaign workers summarize what they saw into plain-data digests whose
merge is a commutative, associative integer fold: span latencies go into
:class:`~repro.sim.stats.Histogram`, per-tick counter growth into
:class:`CounterSeries`. That property is what the campaign telemetry
fabric rests on: frames arrive at the collector in whatever order the
process pool produces them, and the aggregate must not depend on that
order. Every merge here is a key-wise integer sum, and
:meth:`CounterSeries.canonical` serializes the state with sorted keys, so
two folds of the same contributions are **byte-identical** regardless of
arrival order. The fabric equivalence tests assert exactly that.

A series' bucket size is part of its identity: merging mismatched sizes
is a programming error and raises, because a silent re-bin would break
the byte-identity contract.
"""

import json


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
