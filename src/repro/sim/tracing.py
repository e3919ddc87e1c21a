"""Message-level tracing for debugging coherence flows.

Attach a :class:`MessageTracer` to any set of networks and it records
every message (optionally filtered by block address or endpoint) with its
send tick — the exact tool used to diagnose protocol races during this
reproduction's development, promoted to a first-class utility.
"""

from repro.memory.datablock import block_align


class _MsgSnapshot:
    """Immutable view of a message at record time.

    Tracer rings outlive the messages they observe, so entries snapshot
    the fields queries and formatting need instead of holding the live
    instance, which would pin its payload and show whatever later
    handling did to it.
    """

    __slots__ = ("mtype", "addr", "sender", "dest", "requestor", "uid", "dirty")

    def __init__(self, msg):
        self.mtype = msg.mtype
        self.addr = msg.addr
        self.sender = msg.sender
        self.dest = msg.dest
        self.requestor = msg.requestor
        self.uid = msg.uid
        self.dirty = msg.dirty

    def __repr__(self):
        mname = getattr(self.mtype, "name", self.mtype)
        addr_s = f"{self.addr:#x}" if isinstance(self.addr, int) else str(self.addr)
        return f"Message({mname}, addr={addr_s}, {self.sender}->{self.dest})"


class TraceEntry:
    __slots__ = ("tick", "network", "port", "msg")

    def __init__(self, tick, network, port, msg):
        self.tick = tick
        self.network = network
        self.port = port
        self.msg = _MsgSnapshot(msg)

    def __repr__(self):
        return f"[{self.tick:>8}] {self.network:<6} {self.port:<14} {self.msg}"


def _rebuild_send(net):
    """Recompose ``net.send`` from the base method plus live tracer layers."""
    stack = net._tracer_stack
    if not stack:
        net.send = net._tracer_base_send
        del net._tracer_stack
        del net._tracer_base_send
        return
    send = net._tracer_base_send
    for tracer in stack:
        send = tracer._make_send(net, send)
    net.send = send


class MessageTracer:
    """Records messages crossing the given networks.

    Args:
        networks: Network objects to wrap.
        addr_filter: only record messages whose block matches one of
            these block addresses (None = all).
        endpoint_filter: only record messages to/from these names.
        capacity: ring-buffer size (oldest entries dropped).
    """

    def __init__(self, networks, addr_filter=None, endpoint_filter=None,
                 capacity=10_000, block_size=64):
        self.entries = []
        self.capacity = capacity
        self.block_size = block_size
        self.addr_filter = (
            {block_align(a, block_size) for a in addr_filter}
            if addr_filter is not None
            else None
        )
        self.endpoint_filter = set(endpoint_filter) if endpoint_filter else None
        self._wrapped = []
        for net in networks:
            self._wrap(net)

    def _wrap(self, net):
        # Tracers on a shared network form a layer stack hung off the
        # network itself; ``net.send`` is rebuilt from the saved base
        # method whenever a layer joins or leaves, so tracers can attach
        # and detach in any order without clobbering each other.
        stack = getattr(net, "_tracer_stack", None)
        if stack is None:
            net._tracer_stack = stack = []
            net._tracer_base_send = net.send
        stack.append(self)
        self._wrapped.append(net)
        _rebuild_send(net)

    def _make_send(self, net, inner):
        def send(msg, port, delay=0):
            if self._matches(msg):
                self._record(net, port, msg)
            return inner(msg, port, delay=delay)

        return send

    def _matches(self, msg):
        if self.addr_filter is not None:
            if block_align(msg.addr, self.block_size) not in self.addr_filter:
                return False
        if self.endpoint_filter is not None:
            if msg.sender not in self.endpoint_filter and msg.dest not in self.endpoint_filter:
                return False
        return True

    def _record(self, net, port, msg):
        self.entries.append(TraceEntry(net.sim.tick, net.name, port, msg))
        if len(self.entries) > self.capacity:
            del self.entries[: len(self.entries) - self.capacity]

    def detach(self):
        """Remove this tracer's layer from every wrapped network.

        Other tracers sharing a network keep recording; the network's
        original ``send`` is restored only once the last layer leaves.
        Idempotent.
        """
        for net in self._wrapped:
            stack = getattr(net, "_tracer_stack", None)
            if stack and self in stack:
                stack.remove(self)
                _rebuild_send(net)
        self._wrapped = []

    # -- queries -------------------------------------------------------------

    def for_block(self, addr):
        base = block_align(addr, self.block_size)
        return [
            e for e in self.entries
            if block_align(e.msg.addr, self.block_size) == base
        ]

    def between(self, lo_tick, hi_tick):
        return [e for e in self.entries if lo_tick <= e.tick <= hi_tick]

    def tail(self, n=20):
        return self.entries[-n:]

    def format(self, entries=None):
        return "\n".join(repr(e) for e in (entries if entries is not None else self.entries))

    def __len__(self):
        return len(self.entries)
