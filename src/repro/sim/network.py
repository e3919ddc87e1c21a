"""Point-to-point interconnect with ordered and unordered delivery.

The paper requires an *ordered* network between Crossing Guard and the
accelerator (Section 2.1) while the host interconnect may be unordered; the
stress tester additionally randomizes per-message latency to model
in-network delays (Section 4.1). Both behaviors live here.

A :class:`Network` routes by destination component name to a named input
port. Ordered networks enforce FIFO per (sender, dest, port) by clamping
each arrival tick to be >= the previous arrival on that lane.
"""

from bisect import insort


class FixedLatency:
    """Constant message latency."""

    def __init__(self, latency):
        if latency < 1:
            raise ValueError("latency must be >= 1 tick")
        self.latency = latency

    def sample(self, rng):
        return self.latency

    def __repr__(self):
        return f"FixedLatency({self.latency})"


class RandomLatency:
    """Uniform random latency in [lo, hi] — the stress tester's model."""

    def __init__(self, lo, hi):
        if not 1 <= lo <= hi:
            raise ValueError(f"need 1 <= lo <= hi, got [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi
        self._span = hi - lo + 1

    def sample(self, rng):
        # Equivalent to rng.randint(lo, hi) — for int bounds randint
        # reduces to start + _randbelow(width) — but skips the
        # randint/randrange frames and their operator.index calls. The
        # draw sequence is bit-identical, which golden digests rely on.
        return self.lo + rng._randbelow(self._span)

    def __repr__(self):
        return f"RandomLatency({self.lo}, {self.hi})"


class Network:
    """Routes messages between registered components.

    Args:
        sim: owning simulator (provides clock and RNG).
        latency: a latency model (:class:`FixedLatency` or
            :class:`RandomLatency`).
        ordered: when True, delivery is FIFO per (sender, dest, port) lane
            even under random latency.
        name: label used in statistics.
    """

    def __init__(self, sim, latency, ordered=False, name="net", bandwidth=None,
                 fault_plan=None):
        self.sim = sim
        self.latency = latency
        self.ordered = ordered
        self.name = name
        #: messages per tick the fabric can carry (None = unlimited).
        #: Models shared-link contention — what a flooding accelerator
        #: actually steals from the host (Section 2.5).
        self.bandwidth = bandwidth
        #: optional :class:`~repro.sim.faults.FaultPlan` consulted on
        #: every send (None = perfectly reliable fabric).
        self.fault_plan = fault_plan
        self._next_slot = 0.0
        self._endpoints = {}
        self._endpoint_delay = {}
        self._last_arrival = {}
        self.stats = sim.stats_for(f"network.{name}")
        # hot-path caches: the stats counter dict (two increments per
        # message) and the per-mtype counter-key strings (so the
        # f"msg.{...}" string is built once per message type, not once
        # per message). ``None`` when the simulator runs metrics-off —
        # one identity check skips the whole counter block.
        self._counters = self.stats.counters
        self._mtype_keys = {}
        # (dest, port) -> (component, buffer): validated once, then every
        # later send is a single dict probe instead of two lookups plus a
        # port-membership check.
        self._routes = {}
        # FixedLatency is the overwhelmingly common model; resolve it to a
        # constant so the per-send sample() call disappears.
        self._fixed_latency = latency.latency if isinstance(latency, FixedLatency) else None
        # sim.events is assigned once in Simulator.__init__; bind it here
        # to save two attribute loads per delivery.
        self._events = sim.events
        sim.register_network(self)

    def attach(self, component):
        """Register a component as routable by its name."""
        if component.name in self._endpoints:
            raise ValueError(f"duplicate endpoint {component.name!r} on {self.name}")
        self._endpoints[component.name] = component

    def endpoints(self):
        return list(self._endpoints)

    def set_endpoint_delay(self, name, extra):
        """Add ``extra`` ticks to every message to or from ``name``.

        Models a physically distant agent — e.g. an accelerator-side cache
        on the far side of the host/accelerator crossing (Figure 2a).
        """
        self._endpoint_delay[name] = extra

    def send(self, msg, port, delay=0):
        """Send ``msg`` to ``msg.dest``'s input ``port``.

        ``delay`` adds sender-side ticks before the network latency applies.
        Raises KeyError for unknown destinations — a real hardware message
        to a nonexistent agent is a design error, never silently dropped.
        """
        route = self._routes.get((msg.dest, port))
        if route is None:
            dest = self._endpoints.get(msg.dest)
            if dest is None:
                raise KeyError(f"{self.name}: unknown destination {msg.dest!r} for {msg}")
            buf = dest.in_ports.get(port)
            if buf is None:
                raise KeyError(f"{self.name}: {msg.dest!r} has no port {port!r}")
            route = self._routes[(msg.dest, port)] = (dest, buf)
        dest, buf = route
        sim = self.sim
        now = sim.tick
        msg.send_tick = now
        latency = self._fixed_latency
        if latency is None:
            latency = self.latency.sample(sim.rng)
        delays = self._endpoint_delay
        if delays:
            latency += delays.get(msg.sender, 0) + delays.get(msg.dest, 0)
        wire = delay + latency
        arrival = now + wire
        if self.bandwidth is not None:
            slot = max(float(now), self._next_slot)
            self._next_slot = slot + 1.0 / self.bandwidth
            queueing = int(slot) - now
            if queueing > 0:
                self.stats.inc("queueing_ticks", queueing)
            arrival += queueing
        plan = self.fault_plan
        if plan is not None:
            decision = plan.decide(self.name, msg, now)
            if decision is not None and decision:
                obs = sim.obs
                if decision.drop:
                    # The fabric ate the message: no delivery, no lane
                    # slot — survivors keep their relative order.
                    self.stats.inc("fault.dropped")
                    if obs is not None:
                        obs.record_fault(now, self.name, "drop", msg)
                    if self.sim.trace is not None:
                        self.sim.record_trace(self.name, msg, note="dropped")
                    return arrival
                if decision.extra_delay:
                    self.stats.inc("fault.delayed")
                    self.stats.inc("fault.delay_ticks", decision.extra_delay)
                    if obs is not None:
                        obs.record_fault(now, self.name, "delay", msg)
                    arrival += decision.extra_delay
                if decision.corrupt and msg.data is not None:
                    self.stats.inc("fault.corrupted")
                    if obs is not None:
                        obs.record_fault(now, self.name, "corrupt", msg)
                    msg.data = plan.corrupted_copy(msg.data)
                if decision.duplicate:
                    self.stats.inc("fault.duplicated")
                    if obs is not None:
                        obs.record_fault(now, self.name, "duplicate", msg)
                    arrival = self._deliver(dest, buf, msg, arrival, wire)
                    # Link-layer replay: same uid, own payload copy,
                    # trailing the original by at least one tick.
                    self._deliver(dest, buf, msg.clone(), arrival + 1, wire, note="dup")
                    return arrival
        return self._deliver(dest, buf, msg, arrival, wire)

    def _deliver(self, dest, buf, msg, arrival, wire, note=""):
        """Put ``msg`` in flight to ``buf`` of ``dest``, arriving at ``arrival``.

        The one delivery tail behind every send, original or fault-path
        replay: lane clamp, counters, trace, buffer insert, wakeup and
        lineage. ``wire`` is the modeled latency (sender delay + latency
        model + endpoint delays); lineage books the rest of
        ``arrival - send_tick`` (bandwidth queueing, injected delay, the
        lane clamp) as queue_wait. Returns the possibly clamped arrival.
        """
        # try/except counter bumps lean on 3.11's zero-cost exceptions:
        # the KeyError path runs once per counter name, ever.
        if self.ordered:
            # One serial lane per (sender, dest) pair across ALL ports:
            # the paper's ordered accel link must keep a Put ordered ahead
            # of the InvAck that follows it even though they arrive on
            # different virtual channels. Strictly increasing arrivals so
            # the receiver's port priorities cannot reorder same-tick pairs.
            lane = (msg.sender, msg.dest)
            last = self._last_arrival
            try:
                previous = last[lane]
                if arrival <= previous:
                    arrival = previous + 1
            except KeyError:
                pass
            last[lane] = arrival
        counters = self._counters
        if counters is not None:
            try:
                counters["messages"] += 1
            except KeyError:
                counters["messages"] = 1
            mtype = msg.mtype
            key = self._mtype_keys.get(mtype)
            if key is None:
                key = f"msg.{getattr(mtype, 'name', mtype)}"
                self._mtype_keys[mtype] = key
            try:
                counters[key] += 1
            except KeyError:
                counters[key] = 1
            if msg.data is not None:
                try:
                    counters["data_messages"] += 1
                except KeyError:
                    counters["data_messages"] = 1
        sim = self.sim
        if sim.trace is not None:
            sim.record_trace(self.name, msg, note=note)
        # inlined MessageBuffer.enqueue (append fast path; arrivals on a
        # lane are non-decreasing, so out-of-order insort is the rare case)
        seq = buf._seq + 1
        buf._seq = seq
        entries = buf._entries
        if not entries or entries[-1][0] <= arrival:
            entries.append((arrival, seq, msg))
        else:
            insort(entries, (arrival, seq, msg), lo=buf._head)
        # inlined Component.request_wakeup with same-tick coalescing:
        # latency >= 1 guarantees arrival > now, so no clamp is needed,
        # and an equal-or-earlier pending wakeup absorbs this delivery.
        pending = dest._wakeup_tick
        if pending is None:
            dest._wakeup_tick = arrival
            dest._wakeup_token = self._events.schedule_cb(arrival, dest._wakeup_cb)
        elif pending > arrival:
            events = self._events
            events.cancel_token(dest._wakeup_token)
            dest._wakeup_tick = arrival
            dest._wakeup_token = events.schedule_cb(arrival, dest._wakeup_cb)
        lineage = sim.lineage
        if lineage is not None:
            lineage.record_send(msg, msg.send_tick, arrival, wire)
        return arrival

    def broadcast(self, msg_factory, dests, port, delay=0):
        """Send one message per destination; ``msg_factory(dest)`` builds it.

        The factory may set ``msg.dest`` itself (e.g. a prebuilt per-dest
        message table); a destination it set is respected, not clobbered.
        """
        arrivals = []
        for dest in dests:
            msg = msg_factory(dest)
            if not msg.dest:
                msg.dest = dest
            arrivals.append(self.send(msg, port, delay=delay))
        return arrivals

    def __repr__(self):
        kind = "ordered" if self.ordered else "unordered"
        return f"Network({self.name!r}, {kind}, {self.latency!r})"
