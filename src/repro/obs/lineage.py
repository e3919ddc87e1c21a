"""Causal message lineage + exact per-transaction latency attribution.

Spans (:mod:`repro.obs.spans`) record *when* a transaction's phases
happened; this module explains *why* the time went where it did. A
:class:`LineageTracker` attached to :class:`~repro.obs.Telemetry`
maintains a bounded ring of :class:`LineageRecord` cause records — one
per delivered network message plus a synthetic root per sequencer issue —
linked by "the handler of message A sent message B". Records live on the
tracker, never on :class:`~repro.sim.message.Message` instances, so
recording adds nothing to a message and a record outlives the message it
describes.

From every closed span the tracker walks the causal chain backwards from
the message whose handling closed the span, partitioning the interval
``[span.start, span.end]`` into labeled integer segments::

    wire          in-flight network latency (incl. endpoint/crossing delay)
    queue_wait    bandwidth queueing, ordered-lane clamping, buffer wait
    stall         residency in a controller's per-address stall bucket
    service       handler compute on an accelerator-side controller
    xg_translate  handler compute inside a Crossing Guard
    host_service  handler compute on a host-side controller
    retry_backoff probe-retry timeout wait before a re-issued Invalidate
    throttle      rate-limiter RETRY wait at the XG admission point

The walk is *conservative by construction*: a single monotonically
decreasing cursor moves from ``span.end`` to ``span.start`` and every
step books exactly the ticks it consumed (any unexplained remainder is
flushed to ``service``), so ``sum(segments.values())`` equals the span
duration exactly — the conservation invariant the tests assert.

:class:`BlameMatrix` aggregates segments per (config label x span kind)
cell on top of :class:`~repro.sim.stats.Histogram`, so campaign
workers fold byte-identically through the PR 8 fabric regardless of
worker count or arrival order.

Everything here is digest-neutral: the tracker schedules no events,
touches no stats, and never consumes ``sim.rng`` — golden digests are
byte-identical with lineage on and off.
"""

import json
from collections import deque

from repro.sim.stats import Histogram

#: Every bucket a segment tick can land in (the exhaustive attribution
#: alphabet; see the module docstring for meanings).
SEGMENTS = (
    "wire", "queue_wait", "stall", "service",
    "xg_translate", "host_service", "retry_backoff", "throttle",
)

#: Send-site labels that are themselves segment buckets: a record whose
#: ``site`` is one of these attributes its pre-send gap (timeout wait,
#: limiter wait) to that bucket instead of the sender's service class.
_SITE_BUCKETS = frozenset(("retry_backoff", "throttle"))

#: Bound on records retained (and thus on chain length indirectly);
#: eviction is FIFO and also clears the record's pending-handling slot,
#: so dropped/never-delivered messages cannot leak tracker state.
DEFAULT_CAPACITY = 65_536

#: Walks stop after this many hops even if records remain — a backstop
#: against pathological chains; the remainder conserves into ``service``.
MAX_WALK_HOPS = 4_096


class LineageRecord:
    """One causal hop: a message send, its delivery, and its handling."""

    __slots__ = (
        "lid", "uid", "mtype", "sender", "dest", "site", "send_tick",
        "arrival", "wire", "cause", "handled", "service_class",
        "stall_ticks", "throttle_ticks", "wait_since", "wait_kind",
        "claimed",
    )

    def __init__(self, lid, uid, mtype, sender, dest, site, send_tick,
                 arrival, wire, cause):
        self.lid = lid
        self.uid = uid
        self.mtype = mtype
        self.sender = sender
        self.dest = dest
        self.site = site
        self.send_tick = send_tick
        self.arrival = arrival
        self.wire = wire
        self.cause = cause
        self.handled = None
        self.service_class = "service"
        self.stall_ticks = 0
        self.throttle_ticks = 0
        self.wait_since = None
        self.wait_kind = ""
        #: sid of the first span whose blame walk consumed this record;
        #: a second span hitting a claimed record is a causal span link
        #: (the Perfetto flow arrows).
        self.claimed = None

    def __repr__(self):
        return (f"LineageRecord(#{self.lid} {self.mtype} "
                f"{self.sender}->{self.dest} sent={self.send_tick} "
                f"arr={self.arrival} handled={self.handled} "
                f"cause=#{self.cause})")


class LineageTracker:
    """Bounded causal-record ring + critical-path blame extraction.

    Lives on :class:`~repro.obs.Telemetry` (``obs.lineage``) and is
    mirrored onto the simulator (``sim.lineage``) so the engine hooks —
    :meth:`Network.send <repro.sim.network.Network.send>`, the controller
    wakeup loop, the sequencer issue path — pay exactly one attribute
    load plus a None check when lineage is off.
    """

    def __init__(self, capacity=DEFAULT_CAPACITY, max_flows=50_000):
        self.capacity = capacity
        self.max_flows = max_flows
        self.records = {}
        self._order = deque()
        #: uid -> lid awaiting handling; re-registered on stall/retry so
        #: wait time accrues to the same record, cleared on eviction.
        self._pending = {}
        self._next_lid = 1
        #: lid of the record currently being handled (the cause context
        #: every send inside the handler inherits); 0 outside handlers.
        self.current = 0
        #: most recently created lid — the forensic walk tip for a
        #: wedged run whose closing message never arrived.
        self.last_lid = 0
        #: one-shot site label consumed by the next :meth:`record_send`
        #: (e.g. "retry_backoff" set by the XG probe-timeout path).
        self.site_hint = None
        #: one-shot wait classification consumed by the next
        #: :meth:`requeued` (e.g. "throttle" from the XG rate limiter).
        self.requeue_kind = None
        #: one-shot walk tip consumed by the next :meth:`finish_span`
        #: when no handler context exists (a span closed from a
        #: scheduled timeout rather than a message handler).
        self.tip_hint = 0
        #: causal span links discovered by blame walks:
        #: (enclosing sid, caused sid) pairs for the Perfetto flows.
        self.flows = []
        self.recorded = 0
        self.evicted = 0

    # -- engine hooks (hot path when lineage is on; keep them lean) -----------

    def record_send(self, msg, send_tick, arrival, wire, site=None, cause=None):
        """Record one message send; returns the new record's lid.

        ``wire`` is the in-flight portion of ``arrival - send_tick``
        (latency model + endpoint delays + sender-side delay); the walk
        books the remainder — bandwidth queueing, ordered-lane clamping,
        injected fault delay — as ``queue_wait``.
        """
        hint = self.site_hint
        if hint is not None:
            site = hint
            self.site_hint = None
        if cause is None:
            cause = self.current
        lid = self._next_lid
        self._next_lid = lid + 1
        mtype = msg.mtype
        rec = LineageRecord(
            lid, msg.uid, getattr(mtype, "name", None) or str(mtype),
            msg.sender, msg.dest, site or "", send_tick, arrival, wire, cause,
        )
        self.records[lid] = rec
        self._order.append(lid)
        self._pending[msg.uid] = lid
        self.last_lid = lid
        self.recorded += 1
        if len(self._order) > self.capacity:
            old = self._order.popleft()
            dead = self.records.pop(old, None)
            if dead is not None and self._pending.get(dead.uid) == old:
                # never-handled (e.g. fault-dropped before delivery or
                # consumed by a non-controller component): the pending
                # slot ages out with its record — no leak.
                del self._pending[dead.uid]
            self.evicted += 1
        return lid

    def begin(self, uid, tick, service_class):
        """A controller starts handling the message with ``uid``.

        Closes any stall/throttle wait, stamps the handling tick and the
        handler's service class, and installs the record as the current
        cause context. Returns the lid (0 when untracked). The caller
        resets ``self.current`` to 0 after the handler returns — the
        wakeup loop is never re-entered while a handler runs.
        """
        lid = self._pending.pop(uid, 0)
        if lid:
            rec = self.records.get(lid)
            if rec is None:
                lid = 0
            else:
                since = rec.wait_since
                if since is not None:
                    waited = tick - since
                    if waited > 0:
                        if rec.wait_kind == "throttle":
                            rec.throttle_ticks += waited
                        else:
                            rec.stall_ticks += waited
                    rec.wait_since = None
                rec.handled = tick
                rec.service_class = service_class
        self.current = lid
        return lid

    def stalled(self, lid, tick):
        """The just-handled message went into a per-address stall bucket."""
        rec = self.records.get(lid)
        if rec is not None:
            rec.wait_since = tick
            rec.wait_kind = "stall"
            rec.handled = None
            self._pending[rec.uid] = lid

    def requeued(self, lid, tick):
        """The just-handled message was pushed back (RETRY outcome).

        The wait kind comes from the one-shot ``requeue_kind`` hint —
        "throttle" when the XG rate limiter bounced the message — and
        defaults to stall accounting otherwise.
        """
        kind = self.requeue_kind or "stall"
        self.requeue_kind = None
        rec = self.records.get(lid)
        if rec is not None:
            rec.wait_since = tick
            rec.wait_kind = kind
            rec.handled = None
            self._pending[rec.uid] = lid

    def adopt_cause(self, lid):
        """Bridge a causal gap: the record being handled replies to ``lid``.

        A reply from a non-protocol endpoint (Byzantine adversary, raw
        test agent) carries no handler context, so its record's cause is
        0 and blame walks dead-end at it. The protocol side that
        *provoked* the reply (e.g. XG closing a probe) knows the true
        cause and grafts it in; only an unset cause is ever overwritten.
        """
        if not lid or not self.current:
            return
        rec = self.records.get(self.current)
        if rec is not None and rec.cause == 0:
            rec.cause = lid

    # -- blame extraction ------------------------------------------------------

    def finish_span(self, span):
        """Attribute a just-closed span; installed as the span blame hook.

        Writes ``span.meta["blame"]`` (bucket -> ticks, summing exactly
        to the duration) and ``span.meta["blame_path"]`` (the ordered
        critical-path segment list), and records causal span links for
        the Perfetto flow arrows.
        """
        tip = self.current or self.tip_hint
        self.tip_hint = 0
        segments, path, linked = self._walk(
            span.start, span.end, tip, claim_sid=span.sid
        )
        span.meta["blame"] = segments
        span.meta["blame_path"] = path
        if linked:
            flows = self.flows
            for other in sorted(linked):
                if len(flows) >= self.max_flows:
                    break
                flows.append((span.sid, other))

    def partial_blame(self, span, now):
        """Best-effort critical path for a still-open span (forensics).

        Walks back from the most recent causal activity over
        ``[span.start, now]`` — the flight-recorder view of where a
        wedged transaction's time has gone so far. Conserves exactly
        like :meth:`finish_span` (remainder flushes to ``service``).
        """
        segments, path, _ = self._walk(span.start, now, self.last_lid)
        return {
            "sid": span.sid,
            "kind": span.kind,
            "component": span.component,
            "addr": span.addr,
            "start": span.start,
            "end": now,
            "segments": segments,
            "path": path,
        }

    def _walk(self, start, end, tip_lid, claim_sid=None):
        """Partition ``[start, end]`` exactly over the chain from ``tip_lid``.

        Returns ``(segments, path, linked_sids)``. The cursor only moves
        backwards and every move books its ticks, so the segment sum
        equals ``end - start`` by construction.
        """
        segments = {}
        rev = []  # (bucket, ticks) in reverse (walk) order
        linked = set()

        def add(bucket, ticks):
            if ticks > 0:
                segments[bucket] = segments.get(bucket, 0) + ticks
                if rev and rev[-1][0] == bucket:
                    rev[-1] = (bucket, rev[-1][1] + ticks)
                else:
                    rev.append((bucket, ticks))

        cursor = end
        rec = self.records.get(tip_lid) if tip_lid else None
        hops = 0
        while rec is not None and cursor > start and hops < MAX_WALK_HOPS:
            hops += 1
            if claim_sid is not None:
                claimed = rec.claimed
                if claimed is None:
                    rec.claimed = claim_sid
                elif claimed != claim_sid:
                    linked.add(claimed)
            # a timeout/limiter product that was never handled (dropped on
            # the link, or eaten by a non-protocol endpoint): the whole
            # post-send wait belongs to the retry machinery that produced
            # it, not to transit queueing
            if rec.handled is None and rec.site in _SITE_BUCKETS:
                sent = max(min(rec.send_tick, cursor), start)
                add(rec.site, cursor - sent)
                cursor = sent
                if cursor <= start:
                    break
            # handler compute after the final consume of this message
            handled = rec.handled
            if handled is None:
                handled = cursor
            handled = max(min(handled, cursor), start)
            add(rec.service_class, cursor - handled)
            cursor = handled
            if cursor <= start:
                break
            # buffer residency: stall-bucket / limiter / plain queue wait
            arrival = max(min(rec.arrival, cursor), start)
            window = cursor - arrival
            if window > 0:
                stall = min(rec.stall_ticks, window)
                add("stall", stall)
                throttle = min(rec.throttle_ticks, window - stall)
                add("throttle", throttle)
                add("queue_wait", window - stall - throttle)
                cursor = arrival
            if cursor <= start:
                break
            # in-flight: modeled latency is wire, the rest is queueing
            sent = max(min(rec.send_tick, cursor), start)
            window = cursor - sent
            if window > 0:
                wire = min(rec.wire, window)
                add("wire", wire)
                add("queue_wait", window - wire)
                cursor = sent
            if cursor <= start:
                break
            # pre-send gap: backoff/limiter wait for flagged sites, else
            # the causing handler's compute time
            parent = self.records.get(rec.cause) if rec.cause else None
            if rec.site in _SITE_BUCKETS:
                gap_bucket = rec.site
            elif parent is not None:
                gap_bucket = parent.service_class
            else:
                gap_bucket = "service"
            if parent is None:
                add(gap_bucket, cursor - start)
                cursor = start
                break
            parent_handled = parent.handled
            if parent_handled is None:
                parent_handled = cursor
            parent_handled = max(min(parent_handled, cursor), start)
            add(gap_bucket, cursor - parent_handled)
            cursor = parent_handled
            rec = parent
        # whatever the chain could not explain conserves into service
        add("service", cursor - start)
        path = [(bucket, ticks) for bucket, ticks in reversed(rev)]
        return segments, path, linked

    def __repr__(self):
        return (f"LineageTracker(records={len(self.records)}, "
                f"pending={len(self._pending)}, recorded={self.recorded}, "
                f"evicted={self.evicted}, flows={len(self.flows)})")


def _top_key(entry):
    return (-entry["duration"], entry["config"], entry["seed"], entry["sid"])


class BlameMatrix:
    """Mergeable campaign-wide blame aggregate.

    Cells are keyed ``(config label, span kind)`` and hold an integer
    span count, a :class:`~repro.sim.stats.Histogram` of durations,
    and integer per-segment tick totals — all order-free to merge, so
    workers=N folds byte-identically to workers=1. The top list keeps
    the ``top_n`` slowest transactions (with their critical paths) under
    a total order on ``(-duration, config, seed, sid)``: any global
    top-N entry survives its own shard's local truncation, so the merged
    top list is exactly the serial one.
    """

    def __init__(self, bucket_width=8, top_n=20):
        self.bucket_width = bucket_width
        self.top_n = top_n
        self.cells = {}
        self.top = []

    def add_span(self, config, seed, span):
        blame = span.meta.get("blame") if span.meta else None
        if blame is None or span.end is None:
            return
        duration = span.end - span.start
        key = (config, span.kind)
        cell = self.cells.get(key)
        if cell is None:
            cell = self.cells[key] = {
                "spans": 0,
                "duration": Histogram(self.bucket_width),
                "segments": {},
            }
        cell["spans"] += 1
        cell["duration"].observe(duration)
        segments = cell["segments"]
        for bucket, ticks in blame.items():
            segments[bucket] = segments.get(bucket, 0) + ticks
        self.top.append({
            "duration": duration,
            "config": config,
            "seed": seed,
            "sid": span.sid,
            "kind": span.kind,
            "addr": span.addr,
            "status": span.status,
            "path": [[bucket, ticks]
                     for bucket, ticks in span.meta.get("blame_path", ())],
        })
        if len(self.top) > 4 * self.top_n:
            self._trim()

    def _trim(self):
        self.top.sort(key=_top_key)
        del self.top[self.top_n:]

    def merge(self, other):
        """Fold another matrix in (order-free; widths must match)."""
        if other.bucket_width != self.bucket_width:
            raise ValueError(
                f"bucket width mismatch: {self.bucket_width} vs "
                f"{other.bucket_width}"
            )
        for key, cell in other.cells.items():
            mine = self.cells.get(key)
            if mine is None:
                mine = self.cells[key] = {
                    "spans": 0,
                    "duration": Histogram(self.bucket_width),
                    "segments": {},
                }
            mine["spans"] += cell["spans"]
            mine["duration"].merge(cell["duration"])
            segments = mine["segments"]
            for bucket, ticks in cell["segments"].items():
                segments[bucket] = segments.get(bucket, 0) + ticks
        self.top.extend(dict(entry) for entry in other.top)
        self._trim()
        return self

    # -- views -----------------------------------------------------------------

    def top_spans(self):
        """The final, exactly-ordered top list."""
        self._trim()
        return [dict(entry) for entry in self.top]

    def rows(self):
        """Per-cell summary rows for reports: one dict per (config, kind)."""
        self._trim()
        rows = []
        for (config, kind), cell in sorted(self.cells.items()):
            total = sum(cell["segments"].values())
            row = {
                "config": config,
                "kind": kind,
                "spans": cell["spans"],
                "total_ticks": total,
                "p50": cell["duration"].percentile(0.50),
                "p99": cell["duration"].percentile(0.99),
                "segments": dict(sorted(cell["segments"].items())),
            }
            if total:
                dominant = max(
                    cell["segments"].items(), key=lambda kv: (kv[1], kv[0])
                )
                row["dominant"] = dominant[0]
                row["dominant_pct"] = 100.0 * dominant[1] / total
            else:
                row["dominant"] = ""
                row["dominant_pct"] = 0.0
            rows.append(row)
        return rows

    # -- (de)serialization -------------------------------------------------------

    def as_dict(self):
        self._trim()
        return {
            "bucket_width": self.bucket_width,
            "top_n": self.top_n,
            "cells": {
                f"{config}|{kind}": {
                    "spans": cell["spans"],
                    "duration": cell["duration"].as_dict(),
                    "segments": dict(sorted(cell["segments"].items())),
                }
                for (config, kind), cell in sorted(self.cells.items())
            },
            "top": [dict(entry) for entry in self.top],
        }

    @classmethod
    def from_dict(cls, data):
        matrix = cls(bucket_width=data["bucket_width"],
                     top_n=data.get("top_n", 20))
        for key, cell in data.get("cells", {}).items():
            config, _, kind = key.rpartition("|")
            matrix.cells[(config, kind)] = {
                "spans": cell["spans"],
                "duration": Histogram.from_dict(cell["duration"]),
                "segments": dict(cell["segments"]),
            }
        matrix.top = [dict(entry) for entry in data.get("top", [])]
        matrix._trim()
        return matrix

    def canonical(self):
        """Canonical JSON bytes — byte-identical across merge orders."""
        return json.dumps(
            self.as_dict(), sort_keys=True, separators=(",", ":")
        ).encode()

    def __eq__(self, other):
        if not isinstance(other, BlameMatrix):
            return NotImplemented
        return self.canonical() == other.canonical()

    def __repr__(self):
        self._trim()
        return (f"BlameMatrix(cells={len(self.cells)}, "
                f"top={len(self.top)}/{self.top_n}, "
                f"bucket_width={self.bucket_width})")


def blame_matrix_from_telemetry(telemetry, config_label, seed=0,
                                bucket_width=8, top_n=20):
    """Build one run's :class:`BlameMatrix` from its closed spans."""
    matrix = BlameMatrix(bucket_width=bucket_width, top_n=top_n)
    for span in telemetry.spans.closed:
        matrix.add_span(config_label, seed, span)
    return matrix
