"""Lightweight statistics: counters, streaming histograms, and stat sinks.

Every component owns a :class:`Stats` instance; the simulator reports them
per owner. Values are plain Python numbers so reports serialize
trivially.

Hot paths do not call :meth:`Stats.inc` with a formatted name per event —
they pre-bind a :class:`StatSink` once (one dict access per hit, no string
formatting) and, when a simulator runs with metrics disabled entirely,
every sink and every :class:`NullStats` method is a no-op, so telemetry
costs nothing when it is off.
"""

import json


class Histogram:
    """Streaming histogram tracking count/sum/min/max and coarse buckets.

    Histograms also travel between processes: campaign workers ship span
    latencies in fabric frames and blame cells as :meth:`as_dict`, and
    the parent folds them with :meth:`merge`, a key-wise integer sum
    (plus min/max), so any arrival order folds to the same
    :meth:`canonical` bytes.
    """

    __slots__ = ("count", "total", "min", "max", "buckets", "_bucket_width")

    def __init__(self, bucket_width=16):
        if bucket_width < 1:
            raise ValueError(f"bucket_width must be >= 1, got {bucket_width}")
        self.count = 0
        self.total = 0
        self.min = None
        self.max = None
        self.buckets = {}
        self._bucket_width = bucket_width

    @property
    def bucket_width(self):
        return self._bucket_width

    def observe(self, value):
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        bucket = int(value) // self._bucket_width
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1

    @property
    def mean(self):
        if self.count == 0:
            return 0.0
        return self.total / self.count

    def percentile(self, q):
        """Approximate ``q``-quantile (q in [0, 1]) from the buckets.

        Linear interpolation inside the bucket that crosses the target
        rank, clamped to the observed min/max so p0/p100 are exact.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        target = q * self.count
        cumulative = 0
        width = self._bucket_width
        for bucket in sorted(self.buckets):
            in_bucket = self.buckets[bucket]
            if cumulative + in_bucket >= target:
                fraction = (target - cumulative) / in_bucket
                estimate = bucket * width + fraction * width
                return min(max(estimate, self.min), self.max)
            cumulative += in_bucket
        return self.max

    def merge(self, other):
        """Key-wise integer fold of ``other`` into self. Order-free.

        A histogram's bucket width is part of its identity: merging
        mismatched widths raises, because a silent re-bin would break the
        byte-identity of folds in any order.
        """
        if other._bucket_width != self._bucket_width:
            raise ValueError(
                f"histogram width mismatch: {self._bucket_width} vs "
                f"{other._bucket_width} (widths are part of a histogram's "
                f"identity)"
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

    def as_dict(self):
        return {
            "bucket_width": self._bucket_width,
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            # bucket map included so two runs can be compared exactly (the
            # determinism property tests diff full stats reports); string
            # keys so the dict survives JSON round-trips unchanged
            "buckets": {str(k): v for k, v in self.buckets.items()},
        }

    @classmethod
    def from_dict(cls, data):
        hist = cls(bucket_width=data["bucket_width"])
        hist.count = data["count"]
        hist.total = data["sum"]
        hist.min = data["min"]
        hist.max = data["max"]
        hist.buckets = {int(k): v for k, v in data["buckets"].items()}
        return hist

    def canonical(self):
        """Sorted-key JSON bytes: equal folds serialize byte-identically."""
        return json.dumps(self.as_dict(), sort_keys=True).encode()

    def __eq__(self, other):
        return isinstance(other, Histogram) and self.canonical() == other.canonical()

    def __repr__(self):
        return (
            f"Histogram(count={self.count}, mean={self.mean:.2f}, "
            f"min={self.min}, max={self.max})"
        )


class _ReadOnlyHistogram(Histogram):
    """The empty histogram :meth:`Stats.histogram` returns for unknown names.

    Observing into it would silently lose data (nothing registers it), so
    it refuses writes instead.
    """

    __slots__ = ()

    def observe(self, value):
        raise TypeError(
            "read-only empty histogram: Stats.histogram() of a never-observed "
            "name is not registered; use Stats.observe()"
        )


#: Shared immutable empty histogram (see :meth:`Stats.histogram`).
EMPTY_HISTOGRAM = _ReadOnlyHistogram()


class StatSink:
    """A pre-bound counter: one dict access per hit, no name formatting.

    Hot paths (protocol controllers, XG send helpers) create one sink per
    counter at construction time and call :meth:`inc` per event, instead
    of paying ``Stats.inc``'s attribute lookups and (often) an f-string
    per call — the call overhead ROADMAP measured on protocol code.
    """

    __slots__ = ("_counters", "name")

    def __init__(self, counters, name):
        self._counters = counters
        self.name = name

    def inc(self, amount=1):
        counters = self._counters
        counters[self.name] = counters.get(self.name, 0) + amount

    def __repr__(self):
        return f"StatSink({self.name!r})"


class _NullStatSink:
    """Sink that compiles to a no-op — what metrics-off simulations use."""

    __slots__ = ()

    def inc(self, amount=1):
        return None

    def __repr__(self):
        return "NULL_SINK"


#: Shared no-op sink (see :meth:`Stats.sink` / :class:`NullStats`).
NULL_SINK = _NullStatSink()


class Stats:
    """A named bag of counters and histograms."""

    # one instance per component/network; slots keep the per-instance
    # cost flat across large campaign sweeps
    __slots__ = ("owner", "counters", "histograms")

    def __init__(self, owner=""):
        self.owner = owner
        self.counters = {}
        self.histograms = {}

    def inc(self, name, amount=1):
        """Increment counter ``name`` by ``amount``."""
        self.counters[name] = self.counters.get(name, 0) + amount

    def get(self, name, default=0):
        """Read counter ``name``."""
        return self.counters.get(name, default)

    def sink(self, name):
        """A pre-bound :class:`StatSink` incrementing counter ``name``."""
        return StatSink(self.counters, name)

    def observe(self, name, value):
        """Record ``value`` in histogram ``name``."""
        hist = self.histograms.get(name)
        if hist is None:
            hist = Histogram()
            self.histograms[name] = hist
        hist.observe(value)

    def histogram(self, name):
        """Return histogram ``name``.

        An unknown name returns the shared read-only
        :data:`EMPTY_HISTOGRAM` — reading count/mean/etc. works (all
        zero/None), but observing into it raises instead of silently
        losing data in an unattached throwaway object.
        """
        return self.histograms.get(name, EMPTY_HISTOGRAM)

    def as_dict(self):
        report = dict(self.counters)
        for name, hist in self.histograms.items():
            report[name] = hist.as_dict()
        return report

    def __repr__(self):
        return f"Stats(owner={self.owner!r}, counters={len(self.counters)})"


class NullStats:
    """Shared no-op stand-in for :class:`Stats` when metrics are disabled.

    A simulator built with ``metrics=False`` hands every component this
    singleton: increments and observations vanish, ``sink()``
    returns the no-op :data:`NULL_SINK`, and ``counters`` is ``None`` so
    hand-inlined hot paths (the network's delivery counters) can skip
    their counter block with one identity check.
    """

    __slots__ = ()

    owner = "null"
    counters = None
    histograms = {}

    def inc(self, name, amount=1):
        return None

    def get(self, name, default=0):
        return default

    def sink(self, name):
        return NULL_SINK

    def observe(self, name, value):
        return None

    def histogram(self, name):
        return EMPTY_HISTOGRAM

    def as_dict(self):
        return {}

    def __repr__(self):
        return "NULL_STATS"


#: The shared metrics-off stats instance.
NULL_STATS = NullStats()
