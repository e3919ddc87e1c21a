"""Unit tests for the simulator core."""

import pytest

from repro.sim.component import Component
from repro.sim.message import Message
from repro.sim.simulator import DeadlockError, Simulator


class _Sink(Component):
    PORTS = ("inbox",)

    def __init__(self, sim, name, consume=True):
        super().__init__(sim, name)
        self.consume = consume
        self.seen = []

    def wakeup(self):
        if not self.consume:
            return
        while True:
            msg = self.in_ports["inbox"].pop(self.sim.tick)
            if msg is None:
                return
            self.seen.append(msg)


def test_run_until_idle():
    sim = Simulator()
    ticks = []
    sim.schedule(5, ticks.append, 5)
    sim.schedule(10, ticks.append, 10)
    assert sim.run() == "idle"
    assert ticks == [5, 10]
    assert sim.tick == 10


def test_max_ticks_stops_clock():
    sim = Simulator()
    fired = []
    sim.schedule(5, fired.append, 1)
    sim.schedule(50, fired.append, 2)
    assert sim.run(max_ticks=20) == "max_ticks"
    assert fired == [1]
    assert sim.tick == 20
    # the remaining event still fires later
    assert sim.run() == "idle"
    assert fired == [1, 2]


def test_max_ticks_in_the_past_rejected():
    """The clock never moves backwards: a limit before now is an error."""
    sim = Simulator()
    fired = []
    sim.schedule(100, fired.append, 100)
    assert sim.run(max_ticks=50) == "max_ticks"
    assert sim.tick == 50
    with pytest.raises(ValueError):
        sim.run(max_ticks=20)
    assert sim.tick == 50
    # A limit equal to now is legal: it runs only the work due now.
    sim.schedule(0, fired.append, 50)
    assert sim.run(max_ticks=50) == "max_ticks"
    assert (sim.tick, fired) == (50, [50])
    assert sim.run() == "idle"
    assert (sim.tick, fired) == (100, [50, 100])


def test_max_events_limit():
    sim = Simulator()
    for i in range(10):
        sim.schedule(i + 1, lambda: None)
    assert sim.run(max_events=3) == "max_events"


def test_deterministic_rng_per_seed():
    a = [Simulator(seed=42).rng.random() for _ in range(1)]
    b = [Simulator(seed=42).rng.random() for _ in range(1)]
    c = [Simulator(seed=43).rng.random() for _ in range(1)]
    assert a == b != c


def test_idle_with_unconsumed_message_is_deadlock():
    sim = Simulator()
    sink = _Sink(sim, "sink", consume=False)
    sink.deliver("inbox", 1, Message("ping", 0x0, dest="sink"))
    with pytest.raises(DeadlockError):
        sim.run()


def test_watchdog_threshold_fires_while_running():
    sim = Simulator(deadlock_threshold=100)
    sink = _Sink(sim, "sink", consume=False)
    sink.deliver("inbox", 1, Message("ping", 0x0, dest="sink"))

    def heartbeat(tick=0):
        if tick < 1000:
            sim.schedule(10, heartbeat, tick + 10)

    heartbeat()
    with pytest.raises(DeadlockError) as excinfo:
        sim.run()
    assert excinfo.value.component is sink


def test_watchdog_exemption():
    sim = Simulator(deadlock_threshold=100)
    sink = _Sink(sim, "sink", consume=False)
    sink.watchdog_exempt = True
    sink.deliver("inbox", 1, Message("ping", 0x0, dest="sink"))
    assert sim.run() == "idle"


def test_consumed_messages_do_not_deadlock():
    sim = Simulator()
    sink = _Sink(sim, "sink")
    for i in range(4):
        sink.deliver("inbox", i + 1, Message("ping", 64 * i, dest="sink"))
    assert sim.run() == "idle"
    assert len(sink.seen) == 4


def test_component_lookup_and_stats_aggregation():
    sim = Simulator()
    sink = _Sink(sim, "sink")
    assert sim.component("sink") is sink
    with pytest.raises(KeyError):
        sim.component("nope")
    sink.stats.inc("things", 3)
    assert sim.stats_report()["sink"]["things"] == 3


def test_schedule_in_past_rejected():
    sim = Simulator()
    sim.schedule(10, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.schedule_at(5, lambda: None)
