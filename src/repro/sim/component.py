"""Component and message-buffer primitives.

A :class:`Component` is anything attached to the simulator (cache
controllers, directories, sequencers, Crossing Guard). Components receive
messages through named :class:`MessageBuffer` input ports; the network
enqueues messages at their arrival tick and schedules a component wakeup.
"""

from bisect import bisect_right, insort

from repro.sim.stats import NULL_STATS, Stats


class MessageBuffer:
    """An input port: messages become visible at their arrival tick.

    The buffer preserves arrival order. ``peek``/``pop`` only expose
    messages whose arrival tick is <= the current tick.

    Storage is a list of ``(tick, seq, msg)`` entries with a head index
    (popping advances the head; the dead prefix is trimmed in batches).
    ``seq`` increases per enqueue so equal-tick messages keep FIFO order,
    and decreases per :meth:`push_front` so re-inserted messages sort
    ahead of everything already queued. The not-yet-visible suffix is
    always sorted by ``(tick, seq)``, which makes out-of-order inserts
    (unordered networks) a ``bisect.insort`` instead of a full rebuild.
    """

    #: Trim the consumed prefix once it is this long and at least half
    #: the list (amortized O(1) per pop, bounded memory on busy ports).
    TRIM_MIN = 64

    __slots__ = ("name", "_entries", "_head", "_seq", "_front_seq")

    def __init__(self, name=""):
        self.name = name
        self._entries = []
        self._head = 0
        self._seq = 0
        self._front_seq = 0

    def enqueue(self, arrival_tick, msg):
        """Insert a message that becomes visible at ``arrival_tick``.

        Arrival ticks are non-decreasing per sender on ordered links; on
        unordered links messages may be enqueued out of tick order, so we
        insert in sorted position (stable for equal ticks).
        """
        self._seq += 1
        entry = (arrival_tick, self._seq, msg)
        entries = self._entries
        if not entries or entries[-1][0] <= arrival_tick:
            entries.append(entry)
        else:
            # Out-of-order insert (unordered network). Everything already
            # visible compares below ``entry`` (older tick, or equal tick
            # with smaller seq), so bisecting the whole live region lands
            # exactly where the old linear scan did — stably.
            insort(entries, entry, lo=self._head)

    def push_front(self, tick, msg):
        """Re-insert a message at the head (used to wake stalled messages)."""
        self._front_seq -= 1
        entry = (tick, self._front_seq, msg)
        head = self._head
        if head:
            # reuse a slot from the consumed prefix instead of shifting
            self._head = head - 1
            self._entries[head - 1] = entry
        else:
            self._entries.insert(0, entry)

    def peek(self, now):
        """Head message if it has arrived by ``now``, else None."""
        entries = self._entries
        head = self._head
        if head < len(entries):
            entry = entries[head]
            if entry[0] <= now:
                return entry[2]
        return None

    def pop(self, now):
        """Remove and return the head message if arrived, else None."""
        entries = self._entries
        head = self._head
        n = len(entries)
        if head < n:
            entry = entries[head]
            if entry[0] <= now:
                head += 1
                if head == n:
                    entries.clear()
                    head = 0
                elif head >= self.TRIM_MIN and head * 2 >= n:
                    del entries[:head]
                    head = 0
                self._head = head
                return entry[2]
        return None

    def next_arrival_tick(self):
        """Arrival tick of the head message, or None when empty."""
        entries = self._entries
        if self._head < len(entries):
            return entries[self._head][0]
        return None

    def next_arrival_after(self, now):
        """Earliest arrival tick strictly greater than ``now``, or None.

        Skips already-visible messages (which a RETRYing controller may
        legitimately leave queued) so wakeup re-arming keys off genuinely
        future deliveries. Visible entries all compare below the probe
        key and the future suffix is sorted, so this is a binary search.
        """
        entries = self._entries
        index = bisect_right(entries, (now, self._seq + 1), self._head)
        if index < len(entries):
            return entries[index][0]
        return None

    def oldest_visible_tick(self, now):
        """Arrival tick of the head message if visible at ``now``."""
        entries = self._entries
        head = self._head
        if head < len(entries) and entries[head][0] <= now:
            return entries[head][0]
        return None

    def __len__(self):
        return len(self._entries) - self._head

    def __iter__(self):
        entries = self._entries
        return (entries[i][2] for i in range(self._head, len(entries)))


class Component:
    """Base class for everything attached to the simulator.

    Subclasses declare input port names in ``PORTS`` (highest priority
    first; responses must outrank requests to avoid protocol deadlock) and
    implement :meth:`wakeup` to drain them.
    """

    PORTS = ()

    #: When True the deadlock watchdog ignores this component. Used for
    #: deliberately-misbehaving accelerator models in the fuzz harness —
    #: only the *host* must stay deadlock-free (paper Section 4).
    watchdog_exempt = False

    def __init__(self, sim, name):
        self.sim = sim
        self.name = name
        stats_on = getattr(sim, "metrics_enabled", True)
        self.stats = Stats(owner=name) if stats_on else NULL_STATS
        self.in_ports = {port: MessageBuffer(f"{name}.{port}") for port in self.PORTS}
        # ports are fixed at construction; cache the buffers for the
        # per-wakeup scans below
        self._port_buffers = tuple(self.in_ports.values())
        # One outstanding wakeup max, tracked as its tick and the queue's
        # int cancel token. ``None`` tick means no wakeup is pending.
        self._wakeup_tick = None
        self._wakeup_token = 0
        self._wakeup_cb = self._wakeup_wrapper
        sim.register(self)

    # -- message delivery (called by the network) ---------------------------

    def deliver(self, port, arrival_tick, msg):
        """Enqueue ``msg`` on ``port`` and ensure a wakeup at arrival."""
        self.in_ports[port].enqueue(arrival_tick, msg)
        self.request_wakeup(arrival_tick)

    def request_wakeup(self, tick=None):
        """Schedule :meth:`wakeup` at ``tick`` (default: now).

        At most ONE wakeup event is outstanding per component: an
        equal-or-earlier pending wakeup absorbs the request, a later one
        is cancelled and rescheduled earlier. Without this invariant,
        wakeups that reschedule themselves (e.g. rate-limiter retries)
        compound into an event storm.
        """
        pending = self._wakeup_tick
        if pending is not None and tick is not None and pending <= tick:
            # Fast absorb: a pending wakeup is never in the past, so it
            # also absorbs any request that clamping would only raise.
            return
        sim = self.sim
        now = sim.tick
        if tick is None or tick < now:
            tick = now
        if pending is not None:
            if pending <= tick:
                return
            sim.events.cancel(self._wakeup_token)
        # tick is clamped >= now, so schedule_at's validation is redundant;
        # go straight to the event queue (this path fires per delivery)
        self._wakeup_tick = tick
        self._wakeup_token = sim.events.schedule(tick, self._wakeup_cb)

    def _wakeup_wrapper(self):
        self._wakeup_tick = None
        self.wakeup()
        # If messages remain that arrive in the future, wake again then.
        # Visible-but-unconsumed (RETRYing) messages must not mask them.
        # Fully-drained ports (the common case after a wakeup) are skipped
        # without paying the bisect in next_arrival_after.
        now = self.sim.tick
        earliest = None
        for buf in self._port_buffers:
            if not buf._entries:
                continue
            tick = buf.next_arrival_after(now)
            if tick is not None and (earliest is None or tick < earliest):
                earliest = tick
        if earliest is not None:
            self.request_wakeup(earliest)

    def next_pending_tick(self):
        """Earliest arrival tick over all input ports, or None."""
        earliest = None
        for buf in self._port_buffers:
            tick = buf.next_arrival_tick()
            if tick is not None and (earliest is None or tick < earliest):
                earliest = tick
        return earliest

    # -- hooks ---------------------------------------------------------------

    def wakeup(self):
        """Process arrived messages. Subclasses override."""

    def oldest_pending_tick(self, now):
        """Oldest visible-but-unprocessed message tick (deadlock watchdog).

        Returns None when the component has no visible pending work.
        """
        oldest = None
        for buf in self._port_buffers:
            tick = buf.oldest_visible_tick(now)
            if tick is not None and (oldest is None or tick < oldest):
                oldest = tick
        return oldest

    def __repr__(self):
        return f"{type(self).__name__}({self.name!r})"
