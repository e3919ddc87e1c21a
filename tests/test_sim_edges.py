"""Edge-case tests for the simulation substrate."""

import pytest

from repro.sim.component import Component, MessageBuffer
from repro.sim.message import Message
from repro.sim.network import FixedLatency, Network, RandomLatency
from repro.sim.simulator import Simulator


def test_latency_models_validate():
    with pytest.raises(ValueError):
        FixedLatency(0)
    with pytest.raises(ValueError):
        RandomLatency(0, 5)
    with pytest.raises(ValueError):
        RandomLatency(6, 5)


def test_broadcast_builds_one_message_per_destination():
    sim = Simulator()
    net = Network(sim, FixedLatency(1), name="t")

    received = []

    class Sink(Component):
        PORTS = ("inbox",)

        def wakeup(self):
            while True:
                msg = self.in_ports["inbox"].pop(self.sim.tick)
                if msg is None:
                    return
                received.append((self.name, msg.uid))

    for name in ("x", "y", "z"):
        net.attach(Sink(sim, name))
    net.broadcast(lambda dest: Message("probe", 0x40, sender="src"), ["x", "y", "z"], "inbox")
    sim.run()
    assert sorted(n for n, _u in received) == ["x", "y", "z"]
    assert len({u for _n, u in received}) == 3, "distinct message objects"


def test_bandwidth_cap_queues_messages():
    sim = Simulator()
    net = Network(sim, FixedLatency(1), name="t", bandwidth=0.5)  # 1 msg / 2 ticks

    arrivals = []

    class Sink(Component):
        PORTS = ("inbox",)

        def wakeup(self):
            while True:
                msg = self.in_ports["inbox"].pop(self.sim.tick)
                if msg is None:
                    return
                arrivals.append(self.sim.tick)

    net.attach(Sink(sim, "sink"))
    for i in range(4):
        net.send(Message("m", 64 * i, sender="s", dest="sink"), "inbox")
    sim.run()
    assert arrivals == sorted(arrivals)
    assert arrivals[-1] - arrivals[0] >= 6, "queueing spread the burst"
    assert net.stats.get("queueing_ticks") > 0


def test_unordered_buffer_many_out_of_order_inserts():
    buf = MessageBuffer()
    order = [9, 3, 7, 1, 5, 2, 8]
    for tick in order:
        buf.enqueue(tick, Message("m", tick))
    drained = []
    while True:
        msg = buf.pop(100)
        if msg is None:
            break
        drained.append(msg.addr)
    assert drained == sorted(order)


def test_simulator_run_final_check_flag():
    from repro.sim.simulator import DeadlockError

    sim = Simulator()

    class Lazy(Component):
        PORTS = ("inbox",)

        def wakeup(self):
            pass  # never consumes

    lazy = Lazy(sim, "lazy")
    lazy.deliver("inbox", 1, Message("m", 0, dest="lazy"))
    assert sim.run(final_check=False) == "idle"
    with pytest.raises(DeadlockError):
        sim.run()


def test_component_next_pending_tick():
    sim = Simulator()

    class Sink(Component):
        PORTS = ("a", "b")

    sink = Sink(sim, "s")
    assert sink.next_pending_tick() is None
    sink.in_ports["a"].enqueue(9, Message("m", 0))
    sink.in_ports["b"].enqueue(4, Message("m", 64))
    assert sink.next_pending_tick() == 4


def test_event_cancel_via_component_wakeup_dedup():
    """request_wakeup keeps exactly one outstanding event, cancelling a
    later one when an earlier request arrives."""
    sim = Simulator()

    class Sink(Component):
        PORTS = ("inbox",)
        wakeups = 0

        def wakeup(self):
            type(self).wakeups += 1

    sink = Sink(sim, "s")
    sink.request_wakeup(100)
    first_token = sink._wakeup_token
    assert len(sim.events) == 1
    sink.request_wakeup(50)
    # the tick-100 entry was cancelled: its token is stale and the queue
    # holds exactly one live event again
    assert not sim.events.cancel(first_token)
    assert len(sim.events) == 1
    sink.request_wakeup(70)  # later than pending: absorbed
    assert sink._wakeup_tick == 50
    assert len(sim.events) == 1
    sim.run()
    assert Sink.wakeups == 1
    assert sim.tick == 50
