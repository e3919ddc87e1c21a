"""Transaction spans and the per-simulation telemetry hub.

A *span* is one coherence transaction observed end to end: an accelerator
``GetS``/``GetM``/``Put*`` crossing XG into the host protocol and back, a
host-initiated probe toward the accelerator, or a sequencer load/store.
Each span carries phase timestamps (issued → translated → host-granted →
data-returned → acked) recorded by lightweight hooks at the transaction
owners, so "how long did this GetM wait on host invalidations" is a
query, not a post-mortem.

:class:`Telemetry` is the hub: attach one to a simulator (``sim.obs``)
and the hooks in :class:`~repro.sim.network.Network`,
:class:`~repro.coherence.controller.CoherenceController`,
:class:`~repro.xg.base.CrossingGuardBase`, and
:class:`~repro.host.cpu.Sequencer` start recording. With no hub attached
(the default) every hook is a single attribute load and identity check —
telemetry costs nothing when it is off.
"""

from repro.sim.idenum import name_of
from repro.sim.stats import Histogram


class Span:
    """One transaction's recorded lifetime.

    ``phases`` is an ordered list of ``(name, tick)`` pairs; ``status``
    is ``"open"`` until :meth:`SpanRecorder.finish` stamps the outcome
    (``"ok"``, ``"timeout"``, ``"retained_hit"``, ``"orphaned"``, ...).
    """

    __slots__ = ("sid", "kind", "component", "addr", "start", "end", "status",
                 "phases", "meta")

    def __init__(self, sid, kind, component, addr, start, meta=None):
        self.sid = sid
        self.kind = kind
        self.component = component
        self.addr = addr
        self.start = start
        self.end = None
        self.status = "open"
        self.phases = []
        self.meta = meta or {}

    @property
    def open(self):
        return self.end is None

    @property
    def duration(self):
        if self.end is None:
            return None
        return self.end - self.start

    def phase_tick(self, name):
        """Tick of the first phase named ``name``, or None."""
        for phase, tick in self.phases:
            if phase == name:
                return tick
        return None

    def as_dict(self):
        return {
            "sid": self.sid,
            "kind": self.kind,
            "component": self.component,
            "addr": self.addr,
            "start": self.start,
            "end": self.end,
            "status": self.status,
            "phases": list(self.phases),
            "meta": dict(self.meta),
        }

    def __repr__(self):
        addr = f"{self.addr:#x}" if isinstance(self.addr, int) else self.addr
        tail = f"..{self.end}]" if self.end is not None else "..)"
        return (
            f"Span({self.kind} {addr} @{self.component} "
            f"[{self.start}{tail} {self.status})"
        )


class SpanRecorder:
    """Owns every span of one simulation: open set + bounded closed ring.

    Closing is idempotent — a span can be finished exactly once; later
    finishes (a retry racing a timeout, say) are ignored, which is what
    makes span lifecycles deterministic under fault injection.
    """

    def __init__(self, capacity=250_000):
        self.capacity = capacity
        self.closed = []
        self.dropped = 0
        self._open = {}
        self._next_sid = 0
        self._finished_total = 0
        #: optional ``hook(span)`` invoked exactly once per close, at the
        #: close tick — the lineage blame walk hangs off this so span
        #: attribution happens while the causal chain is still hot.
        self.blame_hook = None

    # -- lifecycle -----------------------------------------------------------

    def start(self, kind, component, addr, tick, **meta):
        sid = self._next_sid
        self._next_sid += 1
        span = Span(sid, kind, component, addr, tick, meta=meta or None)
        self._open[sid] = span
        return span

    def phase(self, span, name, tick):
        if span.end is None:
            span.phases.append((name, tick))

    def finish(self, span, tick, status="ok", **meta):
        """Close ``span`` at ``tick``. Idempotent; keeps the first close."""
        if span.end is not None:
            return
        span.end = tick
        span.status = status
        if meta:
            span.meta.update(meta)
        self._open.pop(span.sid, None)
        self._finished_total += 1
        hook = self.blame_hook
        if hook is not None:
            hook(span)
        closed = self.closed
        closed.append(span)
        if len(closed) > self.capacity:
            drop = len(closed) - self.capacity
            del closed[:drop]
            self.dropped += drop

    def drain(self, tick, status="orphaned"):
        """Close every still-open span (end of run / abandoned work).

        Returns the spans that were force-closed — a clean shutdown after
        a fully drained simulation returns an empty list, which is the
        property the fault-injection lifecycle tests assert.
        """
        leaked = list(self._open.values())
        for span in leaked:
            self.finish(span, tick, status=status)
        return leaked

    # -- queries ---------------------------------------------------------------

    @property
    def open_count(self):
        return len(self._open)

    @property
    def finished_total(self):
        return self._finished_total

    def open_spans(self):
        return list(self._open.values())

    def by_kind(self, kind):
        return [span for span in self.closed if span.kind == kind]

    def by_status(self, status):
        return [span for span in self.closed if span.status == status]

    def latency_histograms(self, bucket_width=8):
        """Per-kind closed-span latency :class:`Histogram` map."""
        hists = {}
        for span in self.closed:
            hist = hists.get(span.kind)
            if hist is None:
                hist = Histogram(bucket_width)
                hists[span.kind] = hist
            hist.observe(span.end - span.start)
        return hists

    def __len__(self):
        return len(self.closed)


#: Default counters sampled into the time series.
SERIES_FIELDS = ("events_fired", "open_spans", "spans_closed")


def sample_counters(sim):
    """One engine counter snapshot: the shared sampler body.

    Used by both the :class:`Telemetry` time series and the campaign
    fabric's progress frames, so a worker's live numbers and a traced
    run's counter tracks always agree on definitions.
    """
    open_tbes = 0
    stalled = 0
    for comp in sim.components:
        tbes = getattr(comp, "tbes", None)
        if tbes is not None:
            open_tbes += len(tbes)
        if hasattr(comp, "stalled_count"):
            stalled += comp.stalled_count()
    return {
        "tick": sim.tick,
        "events_fired": sim._events_fired,
        "open_tbes": open_tbes,
        "stalled_msgs": stalled,
    }


class Telemetry:
    """The observability hub for one simulator.

    Constructing it attaches it as ``sim.obs``; hooks all over the engine
    then record into it:

    * **spans** — transaction spans (see :class:`SpanRecorder`);
    * **transitions** — every executed (state, event) pair per controller,
      bounded by ``max_transitions`` (overflow is counted, not silently
      discarded);
    * **faults** — injected link faults, with tick and kind;
    * **marks** — instants worth seeing on a timeline (guarantee
      violations, tolerated anomalies, duplicate suppression);
    * **series** — periodic counter snapshots for campaign jobs
      (:meth:`start_series`);
    * **lineage** — with ``lineage=True``, and only then, a
      :class:`~repro.obs.lineage.LineageTracker` behind per-span blame,
      mirrored on ``sim.lineage`` for the engine's hooks.
    """

    def __init__(self, sim, transitions=True, max_transitions=200_000,
                 span_capacity=250_000, lineage=False):
        self.sim = sim
        self.spans = SpanRecorder(capacity=span_capacity)
        self.transitions = [] if transitions else None
        self.transitions_dropped = 0
        self.max_transitions = max_transitions
        self.faults = []
        self.marks = []
        self.series = []
        self.series_interval = 0
        self._finalized = False
        if lineage:
            from repro.obs.lineage import LineageTracker

            self.lineage = LineageTracker()
            self.spans.blame_hook = self.lineage.finish_span
            sim.lineage = self.lineage
        else:
            self.lineage = None
        sim.obs = self

    def detach(self):
        """Stop recording: clear the simulator's hub reference."""
        if self.sim.obs is self:
            self.sim.obs = None
        if self.lineage is not None and self.sim.lineage is self.lineage:
            self.sim.lineage = None

    # -- hook entry points (called from the engine; must stay cheap) -----------

    def record_transition(self, tick, component, ctype, state, event):
        transitions = self.transitions
        if transitions is None:
            return
        if len(transitions) >= self.max_transitions:
            self.transitions_dropped += 1
            return
        transitions.append((tick, component, ctype, name_of(state), name_of(event)))

    def record_fault(self, tick, link, kind, msg=None):
        mtype = getattr(getattr(msg, "mtype", None), "name", None)
        self.faults.append((tick, link, kind, mtype))

    def record_mark(self, tick, kind, component="", name="", addr=None):
        self.marks.append((tick, kind, component, name, addr))

    # -- time series ---------------------------------------------------------------

    def start_series(self, interval):
        """Sample counters every ``interval`` ticks while the sim has work.

        The sampler re-arms itself only while other events remain queued,
        so it can never keep an otherwise-drained simulation alive.
        """
        if interval < 1:
            raise ValueError(f"series interval must be >= 1, got {interval}")
        self.series_interval = interval
        self.sim.schedule(0, self._sample_series)

    def _sample_series(self):
        self._take_sample()
        # Re-arm only while the queue holds real work: this sampler event
        # already popped, so a non-empty queue means the sim is still live.
        if self.sim.events:
            self.sim.schedule(self.series_interval, self._sample_series)

    def _take_sample(self):
        base = sample_counters(self.sim)
        # key order matters: trace files are compared byte-for-byte by the
        # determinism tests, so keep the historical sample layout
        self.series.append({
            "tick": base["tick"],
            "events_fired": base["events_fired"],
            "open_spans": self.spans.open_count,
            "spans_closed": self.spans.finished_total,
            "open_tbes": base["open_tbes"],
            "stalled_msgs": base["stalled_msgs"],
        })

    # -- shutdown / summaries ----------------------------------------------------------

    def finalize(self):
        """Close out recording at end of run.

        Takes a final series sample (when sampling was on) and force-closes
        any spans still open as ``"orphaned"``. Returns the orphaned spans.
        Idempotent.
        """
        if self._finalized:
            return []
        self._finalized = True
        if self.series_interval:
            self._take_sample()
        return self.spans.drain(self.sim.tick)

    def orphaned_count(self):
        return len(self.spans.by_status("orphaned"))

    @property
    def spans_dropped(self):
        """Closed spans evicted from the bounded ring (truncated recording).

        Non-zero means latency percentiles and per-status counts
        under-sample the *early* part of the run; ``repro report`` and
        ``repro trace`` surface a warning so truncation is never silent.
        """
        return self.spans.dropped

    def blame_matrix(self, config_label, seed=0, bucket_width=8, top_n=20):
        """One run's :class:`~repro.obs.lineage.BlameMatrix` from closed spans.

        Empty (but valid and mergeable) when lineage was off — spans then
        carry no ``blame`` meta and contribute nothing.
        """
        from repro.obs.lineage import blame_matrix_from_telemetry

        return blame_matrix_from_telemetry(
            self, config_label, seed=seed,
            bucket_width=bucket_width, top_n=top_n,
        )

    def summary(self, bucket_width=8):
        """Picklable per-run digest for campaign-side merging."""
        hists = self.spans.latency_histograms(bucket_width=bucket_width)
        statuses = {}
        for span in self.spans.closed:
            key = (span.kind, span.status)
            statuses[key] = statuses.get(key, 0) + 1
        return {
            "span_hists": hists,
            "span_statuses": statuses,
            "spans_closed": self.spans.finished_total,
            "spans_dropped": self.spans.dropped,
            "spans_open": self.spans.open_count,
            "transitions": (len(self.transitions)
                            if self.transitions is not None else 0),
            "transitions_dropped": self.transitions_dropped,
            "faults": len(self.faults),
            "marks": len(self.marks),
        }

    def __repr__(self):
        return (
            f"Telemetry(spans={len(self.spans)}+{self.spans.open_count} open, "
            f"transitions={len(self.transitions) if self.transitions is not None else 'off'}, "
            f"faults={len(self.faults)}, marks={len(self.marks)})"
        )
