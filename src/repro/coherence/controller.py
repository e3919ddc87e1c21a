"""Base class for coherence controllers.

Semantics mirror gem5 Ruby's generated controllers:

* input ports are drained in declared priority order — responses before
  forwards before requests, which is required for deadlock freedom;
* a message whose transition cannot run yet is *stalled-and-waited* into a
  per-address buffer and woken when that address's transaction closes;
* every executed (state, event) pair is recorded for the Section 4.1
  coverage accounting;
* an undefined (state, event) pair raises :class:`ProtocolError` — the
  "cache controller error" the paper's host must be protected from.
"""

from collections import defaultdict, deque
from contextlib import contextmanager

from repro.sim.component import Component
from repro.sim.idenum import name_of

CONSUMED = "consumed"
STALL = "stall"
RETRY = "retry"

#: shared empty row for compiled-dispatch misses (never mutated)
_NO_ROW = {}


@contextmanager
def dispatch_mode(mode):
    """Build controllers under a specific dispatch mode.

    ``"compiled"`` (the default) installs the flattened per-instance
    fast path; ``"legacy"`` keeps the original table-lookup ``fire``
    method. The golden-run equivalence suite constructs one system under
    each mode and asserts their digests are identical.
    """
    if mode not in ("compiled", "legacy"):
        raise ValueError(f"unknown dispatch mode {mode!r}")
    previous = CoherenceController.DISPATCH_MODE
    CoherenceController.DISPATCH_MODE = mode
    try:
        yield
    finally:
        CoherenceController.DISPATCH_MODE = previous


class ProtocolError(RuntimeError):
    """A controller saw an event its protocol does not define.

    When a raw (unprotected) accelerator misbehaves, this is the host
    crash the paper warns about; with Crossing Guard in place the host
    never raises it.
    """

    def __init__(self, controller, state, event, msg, note=""):
        self.controller = controller
        self.state = state
        self.event = event
        self.msg = msg
        state_name = getattr(state, "name", state)
        event_name = getattr(event, "name", event)
        detail = f" ({note})" if note else ""
        super().__init__(
            f"{controller.name}: no transition for state={state_name} "
            f"event={event_name} on {msg}{detail}"
        )


class CoherenceController(Component):
    """A state-machine controller with stall buffers and coverage.

    Subclasses:
      * set ``PORTS`` (priority order) and ``CONTROLLER_TYPE``;
      * build ``self.transitions[(state, event)] = handler`` in
        ``_build_transitions``;
      * implement ``handle_message(port, msg) -> CONSUMED|STALL|RETRY``,
        usually by classifying the message into an event and calling
        :meth:`fire`.
    """

    CONTROLLER_TYPE = "generic"

    #: how :meth:`fire` dispatches: ``"compiled"`` flattens the transition
    #: table into a per-instance closure at construction; ``"legacy"``
    #: keeps the original dict-of-tuples lookup. Flip with
    #: :func:`dispatch_mode`; both paths are step-for-step identical
    #: (proven by :mod:`repro.testing.golden`).
    DISPATCH_MODE = "compiled"

    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.transitions = {}
        self.coverage = defaultdict(int)
        #: transitions excluded from the coverage denominator (e.g. paths
        #: reachable only with a misbehaving accelerator behind XG)
        self.coverage_exempt = set()
        self._build_transitions()
        self.recompile_dispatch()
        self._stalled = defaultdict(deque)
        self._stalled_since = {}
        self._stalled_total = 0
        self.protocol_errors = []
        # input buffers in declared priority order, resolved once
        self._prio_ports = tuple(
            (port, self.in_ports[port]) for port in self.PORTS
        )
        # pre-bound hot-path counters (no-op sinks when metrics are off)
        self._stall_sink = self.stats.sink("stalls")
        self._anomaly_sink = self.stats.sink("protocol_anomalies")
        # lineage service class: which blame bucket this controller's
        # handler compute lands in (the wakeup loop stamps it per record)
        ctype = self.CONTROLLER_TYPE
        if ctype.startswith("xg") or ctype == "crossing_guard":
            self._lineage_class = "xg_translate"
        elif ctype.startswith("accel") or ctype == "block_shim":
            self._lineage_class = "service"
        else:
            self._lineage_class = "host_service"

    # -- subclass API -----------------------------------------------------------

    def _build_transitions(self):
        raise NotImplementedError

    def handle_message(self, port, msg):
        raise NotImplementedError

    # -- transition machinery ------------------------------------------------

    def fire(self, state, event, msg):
        """Run the transition for (state, event); record coverage.

        Returns the handler's outcome (CONSUMED unless it says otherwise).

        This is the legacy reference path. Under the default
        ``DISPATCH_MODE = "compiled"`` it is shadowed by a per-instance
        closure over the flattened table (see :meth:`recompile_dispatch`);
        the two are behaviorally identical.
        """
        handler = self.transitions.get((state, event))
        if handler is None:
            raise ProtocolError(self, state, event, msg)
        outcome = handler(msg)
        if outcome is None:
            outcome = CONSUMED
        if outcome is not STALL:
            # Stalls are not transitions; only executed work counts.
            self.coverage[(state, event)] += 1
            obs = self.sim.obs
            if obs is not None:
                obs.record_transition(
                    self.sim.tick, self.name, self.CONTROLLER_TYPE, state, event
                )
        return outcome

    def recompile_dispatch(self):
        """(Re)flatten ``self.transitions`` into the compiled fast path.

        Called automatically after ``_build_transitions``; call again after
        mutating ``self.transitions`` at runtime, or the compiled table
        keeps serving the old entries.
        """
        table = {}
        for key, handler in self.transitions.items():
            state, event = key
            row = table.get(state)
            if row is None:
                row = table[state] = {}
            # keep the original key tuple so coverage accounting reuses it
            # instead of allocating a fresh tuple per fired transition
            row[event] = (handler, key)
        self._dispatch = table
        if self.DISPATCH_MODE == "compiled":
            self.fire = self._compile_fire()
        else:
            self.__dict__.pop("fire", None)

    def _compile_fire(self):
        """Build the monomorphic ``fire`` closure over pre-resolved state.

        Everything the hot path needs — the flattened dispatch table, the
        coverage dict, the simulator, and this controller's identity — is
        captured once here, so per-message work is two dict probes plus the
        handler call (no tuple allocation, no attribute chains).
        """
        dispatch = self._dispatch
        coverage = self.coverage
        sim = self.sim
        name = self.name
        ctype = self.CONTROLLER_TYPE
        controller = self

        def fire(state, event, msg):
            entry = dispatch.get(state, _NO_ROW).get(event)
            if entry is None:
                raise ProtocolError(controller, state, event, msg)
            handler, key = entry
            outcome = handler(msg)
            if outcome is None:
                outcome = CONSUMED
            if outcome is not STALL:
                # Stalls are not transitions; only executed work counts.
                coverage[key] += 1
                obs = sim.obs
                if obs is not None:
                    obs.record_transition(sim.tick, name, ctype, state, event)
            return outcome

        return fire

    def has_transition(self, state, event):
        return (state, event) in self.transitions

    def possible_transitions(self):
        """Declared (state, event) pairs — the coverage denominator."""
        return set(self.transitions) - self.coverage_exempt

    # -- explorer hooks ---------------------------------------------------------

    def transition_relation(self):
        """Declared transitions as sorted (state name, event name) pairs.

        The compiled dispatch table *is* the guarded-action transition
        relation; this projects it to plain strings so the reachability
        explorer can compare it against coverage and reachability sets
        without importing per-protocol enums.
        """
        return sorted(
            (name_of(s), name_of(e))
            for s, e in self.possible_transitions()
        )

    def covered_transitions(self):
        """Executed transitions as sorted (state name, event name) pairs."""
        return sorted(
            (name_of(s), name_of(e))
            for s, e in self.coverage
        )

    def snapshot_state(self):
        """Logical protocol state of this controller as plain data.

        Captures everything that determines future behavior — resident
        cache entries, open TBEs, stalled messages, visible port contents
        — and nothing that merely records history (ticks, uids, LRU
        clocks, stats). Subclasses with extra mutable protocol state
        (e.g. a directory's owner map, the XG mirror) extend it via
        :meth:`snapshot_extra`.
        """
        from repro.coherence.snapshot import (
            snap_cache_entry, snap_message, snap_tbe)

        snap = {}
        cache = getattr(self, "cache", None)
        if cache is not None:
            snap["cache"] = {
                entry.addr: snap_cache_entry(entry)
                for entry in cache.entries()
            }
        tbes = getattr(self, "tbes", None)
        if tbes is not None:
            snap["tbes"] = {tbe.addr: snap_tbe(tbe) for tbe in tbes}
        if self._stalled:
            snap["stalled"] = {
                key: tuple((port, snap_message(msg)) for port, msg in waiting)
                for key, waiting in self._stalled.items()
            }
        ports = {
            port: tuple(snap_message(msg) for msg in buf)
            for port, buf in self.in_ports.items()
            if len(buf)
        }
        if ports:
            snap["ports"] = ports
        snap.update(self.snapshot_extra())
        return snap

    def snapshot_extra(self):
        """Per-protocol additions to :meth:`snapshot_state` (default none)."""
        return {}

    # -- stall-and-wait ---------------------------------------------------------

    def stall_key(self, msg):
        """Address key stalled messages wait on (override to customize)."""
        return msg.addr

    def wake_stalled(self, addr):
        """Re-enqueue messages stalled on ``addr`` at their ports' heads."""
        waiting = self._stalled.pop(addr, None)
        self._stalled_since.pop(addr, None)
        if not waiting:
            return
        self._stalled_total -= len(waiting)
        for port, msg in reversed(waiting):
            self.in_ports[port].push_front(self.sim.tick, msg)
        self.request_wakeup()

    def stalled_count(self):
        return self._stalled_total

    # -- main loop ---------------------------------------------------------------

    def wakeup(self):
        lineage = self.sim.lineage
        while True:
            for port, buf in self._prio_ports:
                # Pop BEFORE handling: a handler may wake stalled messages
                # onto this port's head, and popping afterwards would
                # remove the woken message and re-process this one.
                msg = buf.pop(self.sim.tick)
                if msg is None:
                    continue
                if lineage is not None:
                    # Installs this message as the cause context every send
                    # inside the handler inherits. wakeup() is never
                    # re-entered while a handler runs, so a flat reset (not
                    # a save/restore) is correct.
                    lid = lineage.begin(msg.uid, self.sim.tick,
                                        self._lineage_class)
                    outcome = self.handle_message(port, msg)
                    lineage.current = 0
                else:
                    lid = 0
                    outcome = self.handle_message(port, msg)
                if outcome == STALL:
                    key = self.stall_key(msg)
                    self._stalled[key].append((port, msg))
                    self._stalled_since.setdefault(key, self.sim.tick)
                    self._stalled_total += 1
                    self._stall_sink.inc()
                    if lid:
                        lineage.stalled(lid, self.sim.tick)
                elif outcome == RETRY:
                    buf.push_front(self.sim.tick, msg)
                    if lid:
                        lineage.requeued(lid, self.sim.tick)
                    continue
                # one message handled: rescan from the highest-priority port
                break
            else:
                return

    # -- deadlock accounting -------------------------------------------------------

    def oldest_pending_tick(self, now):
        oldest = super().oldest_pending_tick(now)
        for since in self._stalled_since.values():
            if oldest is None or since < oldest:
                oldest = since
        return oldest

    # -- error reporting ------------------------------------------------------------

    def note_protocol_anomaly(self, description, msg=None):
        """Record a tolerated anomaly (xg-tolerant host modes sink these).

        The forensic log keeps a private clone, so the record shows the
        message as it was when the anomaly was noted, whatever later
        handling does to the live instance.
        """
        snapshot = msg.clone() if msg is not None else None
        self.protocol_errors.append((self.sim.tick, description, snapshot))
        self._anomaly_sink.inc()
        obs = self.sim.obs
        if obs is not None:
            obs.record_mark(
                self.sim.tick, "anomaly", component=self.name, name=description
            )
