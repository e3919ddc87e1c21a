"""Hot-path rewrites: the semantics the engine optimizations must keep.

Every structure here was rewritten for throughput (sorted-list message
buffers, event queue with heap rebuilds, trace-free fast mode,
dict-indexed component lookup, dest-respecting broadcast); these tests
pin the observable behavior the rest of the repo depends on.
"""

import random

import pytest

from repro.sim.component import Component, MessageBuffer
from repro.sim.event import EventQueue
from repro.sim.message import Message
from repro.sim.network import FixedLatency, Network
from repro.sim.simulator import DeadlockError, Simulator


# -- MessageBuffer -----------------------------------------------------------


def test_buffer_equal_tick_inserts_stay_fifo():
    buf = MessageBuffer()
    # interleave two ticks out of order; equal-tick messages must drain
    # in enqueue order (stable sort on (tick, seq))
    for i, tick in enumerate([5, 3, 5, 3, 5, 3]):
        buf.enqueue(tick, Message("m", 64 * i))
    drained = []
    while True:
        msg = buf.pop(10)
        if msg is None:
            break
        drained.append(msg.addr)
    assert drained == [64 * i for i in (1, 3, 5, 0, 2, 4)]


def test_buffer_random_insert_order_matches_stable_sort():
    rng = random.Random(1234)
    buf = MessageBuffer()
    arrivals = []
    for i in range(500):
        tick = rng.randint(0, 40)
        arrivals.append((tick, i))
        buf.enqueue(tick, Message("m", i))
    drained = []
    while True:
        msg = buf.pop(100)
        if msg is None:
            break
        drained.append(msg.addr)
    assert drained == [i for _t, i in sorted(arrivals, key=lambda p: p[0])]


def test_buffer_push_front_outranks_equal_tick_entries():
    buf = MessageBuffer()
    buf.enqueue(4, Message("m", 0))
    buf.enqueue(4, Message("m", 64))
    first = buf.pop(4)
    assert first.addr == 0
    # a stalled message pushed back must come out before the tick-4 peer,
    # and before anything pushed front *earlier* (LIFO among re-inserts)
    buf.push_front(4, first)
    assert buf.peek(4) is first
    assert buf.pop(4) is first
    assert buf.pop(4).addr == 64
    assert len(buf) == 0


def test_buffer_push_front_reuses_consumed_prefix():
    buf = MessageBuffer()
    for i in range(8):
        buf.enqueue(1, Message("m", 64 * i))
    assert buf.pop(1).addr == 0
    assert buf.pop(1).addr == 64
    retry = Message("m", 0x999)
    buf.push_front(1, retry)  # lands in the consumed slot, no list shift
    assert buf.pop(1) is retry
    drained = [buf.pop(1).addr for _ in range(6)]
    assert drained == [64 * i for i in range(2, 8)]


def test_buffer_trims_consumed_prefix_in_batches():
    buf = MessageBuffer()
    n = 6 * MessageBuffer.TRIM_MIN
    for i in range(n):
        buf.enqueue(1, Message("m", i))
    for i in range(n):
        assert len(buf) == n - i
        assert buf.pop(1).addr == i
        # the backing list never holds more than ~2x the live entries
        # once the trim threshold is reachable
        assert len(buf._entries) <= max(2 * len(buf), 2 * MessageBuffer.TRIM_MIN)
    assert len(buf) == 0
    assert buf._entries == []


def test_buffer_next_arrival_after_with_out_of_order_suffix():
    buf = MessageBuffer()
    for tick in (9, 2, 7, 4):
        buf.enqueue(tick, Message("m", tick))
    assert buf.next_arrival_after(0) == 2
    assert buf.next_arrival_after(2) == 4
    assert buf.next_arrival_after(4) == 7
    assert buf.next_arrival_after(8) == 9
    assert buf.next_arrival_after(9) is None
    buf.pop(3)  # consume tick-2; visible prefix must still be skipped
    assert buf.next_arrival_after(3) == 4


# -- EventQueue --------------------------------------------------------------


def test_event_queue_len_tracks_live_counter():
    sim = Simulator()
    q = sim.events
    tokens = [sim.schedule_at(t, lambda: None) for t in range(10)]
    assert len(q) == 10
    for token in tokens[::2]:
        q.cancel(token)
    assert len(q) == 5
    assert q.cancel(tokens[1])
    assert not q.cancel(tokens[1])  # double-cancel must not decrement twice
    assert len(q) == 4
    assert sim.run() == "idle"
    assert sim._events_fired == 4
    assert len(q) == 0


def test_event_queue_compaction_preserves_pop_order():
    sim = Simulator()
    q = sim.events
    fired = []
    keep = []
    cancelled = []
    for t in range(4 * EventQueue.COMPACT_MIN):
        token = sim.schedule_at(t, fired.append, t)
        (keep if t % 4 == 0 else cancelled).append(token)
    for token in cancelled:
        q.cancel(token)  # >half cancelled: the heap is rebuilt mid-loop
    assert len(q._heap) <= 2 * len(q) + EventQueue.COMPACT_MIN
    assert len(q._heap) < len(keep) + len(cancelled), "heap was rebuilt"
    sim.run()
    assert fired == list(range(0, 4 * EventQueue.COMPACT_MIN, 4))


def test_cancel_after_pop_does_not_corrupt_counts():
    sim = Simulator()
    q = sim.events
    first = sim.schedule_at(3, lambda: None)
    sim.schedule_at(5, lambda: None)
    assert sim.run(max_events=1) == "max_events"
    assert sim.tick == 3
    assert not q.cancel(first)  # already fired: must not touch the live count
    assert len(q) == 1
    assert sim.run() == "idle"
    assert len(q) == 0


# -- trace-free fast mode ----------------------------------------------------


class _Echo(Component):
    PORTS = ("inbox",)

    def wakeup(self):
        while self.in_ports["inbox"].pop(self.sim.tick) is not None:
            pass


def test_trace_depth_zero_runs_and_records_nothing():
    sim = Simulator(trace_depth=0)
    assert sim.trace is None
    net = Network(sim, FixedLatency(1), ordered=True, name="t")
    net.attach(_Echo(sim, "echo"))
    for i in range(5):
        net.send(Message("m", 64 * i, sender="src", dest="echo"), "inbox")
    sim.record_trace("t", Message("m", 0, sender="x", dest="echo"))  # no-op
    assert sim.run() == "idle"
    assert sim.trace is None
    assert net.stats.get("messages") == 5


def test_diagnose_degrades_without_trace_ring():
    class Lazy(Component):
        PORTS = ("inbox",)

        def wakeup(self):
            pass

    for depth, expect_disabled in ((0, True), (16, False)):
        sim = Simulator(trace_depth=depth)
        lazy = Lazy(sim, "lazy")
        lazy.deliver("inbox", 1, Message("m", 0, dest="lazy"))
        with pytest.raises(DeadlockError) as info:
            sim.run()
        text = info.value.diagnose()
        assert "components with pending work" in text
        assert ("trace disabled" in text) == expect_disabled


def test_trace_depth_zero_same_result_as_traced():
    def run(depth):
        sim = Simulator(seed=42, trace_depth=depth)
        net = Network(sim, FixedLatency(2), ordered=True, name="t")
        echo = _Echo(sim, "echo")
        net.attach(echo)
        for i in range(20):
            net.send(Message("m", 64 * (i % 4), sender="s", dest="echo"), "inbox")
        sim.run()
        return sim.tick, sim._events_fired, net.stats.get("messages")

    assert run(0) == run(64)


# -- component index & broadcast ---------------------------------------------


def test_component_index_lookup_and_missing():
    sim = Simulator()
    a = _Echo(sim, "alpha")
    _Echo(sim, "beta")
    assert sim.component("alpha") is a
    with pytest.raises(KeyError, match="alpha-missing"):
        sim.component("alpha-missing")


def test_component_index_first_registration_wins():
    sim = Simulator()
    first = _Echo(sim, "dup")
    second = _Echo(sim, "dup")
    assert sim.component("dup") is first
    assert second in sim.components


def test_broadcast_respects_factory_set_destination():
    sim = Simulator()
    net = Network(sim, FixedLatency(1), name="t")
    got = {}

    class Sink(Component):
        PORTS = ("inbox",)

        def wakeup(self):
            while True:
                msg = self.in_ports["inbox"].pop(self.sim.tick)
                if msg is None:
                    return
                got.setdefault(self.name, []).append(msg.dest)

    for name in ("x", "y"):
        net.attach(Sink(sim, name))
    # a factory that pre-routes everything to "y": broadcast must not
    # clobber the destination it set
    net.broadcast(lambda dest: Message("m", 0, sender="s", dest="y"), ["x", "y"], "inbox")
    # and one that leaves dest empty: broadcast fills it per destination
    net.broadcast(lambda dest: Message("m", 64, sender="s"), ["x", "y"], "inbox")
    sim.run()
    assert got.get("x") == ["x"]
    assert got["y"] == ["y", "y", "y"]
