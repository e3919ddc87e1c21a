"""Unit tests for the event queue, through the simulator that drains it."""

import pytest

from repro.sim.event import EventQueue
from repro.sim.simulator import Simulator


def _logged(sim, fired):
    """A callback that records ``(tick, label)`` when it fires."""
    def log(label):
        fired.append((sim.tick, label))
    return log


def test_events_fire_in_tick_order():
    sim = Simulator()
    fired = []
    log = _logged(sim, fired)
    sim.schedule_at(30, log, "c")
    sim.schedule_at(10, log, "a")
    sim.schedule_at(20, log, "b")
    assert sim.run() == "idle"
    assert fired == [(10, "a"), (20, "b"), (30, "c")]


def test_same_tick_events_fire_in_insertion_order():
    sim = Simulator()
    fired = []
    for label in "abcdef":
        sim.schedule_at(5, fired.append, label)
    sim.run()
    assert fired == list("abcdef")


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    sim.schedule_at(1, fired.append, "keep")
    drop = sim.schedule_at(1, fired.append, "drop")
    assert sim.events.cancel(drop)
    sim.run()
    assert fired == ["keep"]


def test_peek_tick_skips_cancelled():
    sim = Simulator()
    fired = []
    first = sim.schedule_at(1, fired.append, "first")
    sim.schedule_at(2, fired.append, "second")
    sim.events.cancel(first)
    assert sim.events.peek_tick() == 2
    sim.run()
    assert fired == ["second"] and sim.tick == 2


def test_len_counts_only_live_events():
    sim = Simulator()
    fired = []
    tokens = [sim.schedule_at(i, fired.append, i) for i in range(5)]
    sim.events.cancel(tokens[0])
    sim.events.cancel(tokens[3])
    assert len(sim.events) == 3
    sim.run()
    assert fired == [1, 2, 4]
    assert len(sim.events) == 0


def test_negative_tick_rejected():
    queue = EventQueue()
    with pytest.raises(ValueError):
        queue.schedule(-1, lambda: None)
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule(-1, lambda: None)


def test_empty_queue_pop_returns_none():
    """An empty queue peeks None, is falsy, and a run on it pops nothing."""
    sim = Simulator()
    assert sim.events.peek_tick() is None
    assert not sim.events
    assert sim.run() == "idle"
    assert sim.tick == 0 and sim._events_fired == 0


def test_tie_break_is_insertion_order_not_event_comparison():
    """Same-tick ordering comes from the ``seq`` half of each heap pair.

    Entries with and without arguments, and a cancelled one between
    them, fire in the order they were scheduled; the heap compares int
    pairs only, never the callbacks.
    """
    sim = Simulator()
    fired = []
    sim.schedule_at(7, fired.append, "a")
    sim.schedule_at(7, lambda: fired.append("b"))
    dropped = sim.schedule_at(7, fired.append, "DROPPED")
    sim.schedule_at(7, fired.append, "c")
    sim.schedule_at(7, lambda: fired.append("d"))
    sim.events.cancel(dropped)
    assert all(type(pair) is tuple and len(pair) == 2 for pair in sim.events._heap)
    sim.run()
    assert fired == ["a", "b", "c", "d"]


def test_cancelled_token_goes_stale():
    sim = Simulator()
    fired = []
    token = sim.schedule(3, fired.append, "x")
    assert sim.events.cancel(token)
    assert not sim.events.cancel(token), "second cancel must be a stale no-op"
    assert sim.run() == "idle"
    assert fired == [] and sim.tick == 0


def test_token_goes_stale_after_fire():
    sim = Simulator()
    fired = []
    token = sim.schedule(1, fired.append, "x")
    sim.run()
    assert fired == ["x"]
    # seq is never reused: the fired token cancels nothing scheduled later
    assert not sim.events.cancel(token)
    relay = sim.schedule(1, fired.append, "y")
    assert relay != token
    assert not sim.events.cancel(token)
    sim.run()
    assert fired == ["x", "y"]
    assert sim.events.cancel(relay) is False


def test_peek_tick_retires_tombstones_with_cancel_accounting():
    """peek_tick pops the pairs of cancelled entries it walks past, so
    the heap keeps only live pairs ahead of the live minimum."""
    sim = Simulator()
    queue = sim.events
    fired = []
    first = sim.schedule_at(5, fired.append, "first")
    second = sim.schedule_at(5, fired.append, "second")
    sim.schedule_at(9, fired.append, "third")
    queue.cancel(first)
    queue.cancel(second)
    assert len(queue._heap) == 3 and len(queue) == 1
    assert queue.peek_tick() == 9
    assert len(queue._heap) == 1
    assert len(queue) == 1
    sim.run()
    assert fired == ["third"]


def test_peek_tick_garbage_sweep_keeps_later_events():
    sim = Simulator()
    fired = []
    cancelled = [sim.schedule_at(2, fired.append, "dropped") for _ in range(4)]
    sim.schedule_at(2, fired.append, "keep")
    for token in cancelled:
        sim.events.cancel(token)
    assert sim.events.peek_tick() == 2
    assert len(sim.events._heap) == 1
    sim.run()
    assert fired == ["keep"]


def test_compaction_drops_tombstones_and_preserves_order():
    sim = Simulator()
    queue = sim.events
    fired = []
    keepers = []
    victims = []
    for i in range(200):
        tick = 10 + (i % 7)
        target = keepers if i % 4 == 0 else victims
        target.append((tick, i, sim.schedule_at(tick, fired.append, i)))
    for _tick, _i, token in victims:
        queue.cancel(token)
        # a cancel leaves its pair; garbage never outgrows the bound
        assert len(queue._heap) <= 2 * len(queue) + EventQueue.COMPACT_MIN
    assert len(queue) == len(keepers)
    assert len(queue._heap) < len(keepers) + len(victims), "heap was rebuilt"
    sim.run()
    assert fired == [i for _tick, i, _token in sorted(keepers)]


def test_cancelled_only_queue_is_falsy_but_slots_recycle():
    """A queue holding only cancelled entries is empty to every reader;
    a run pops their pairs without moving the clock, and scheduling goes
    on with fresh tokens."""
    sim = Simulator()
    tokens = [sim.schedule_at(4, lambda: None) for _ in range(3)]
    for token in tokens:
        sim.events.cancel(token)
    assert not sim.events
    assert len(sim.events) == 0
    assert sim.run() == "idle"
    assert sim.tick == 0 and sim.events._heap == []
    token = sim.schedule_at(6, lambda: None)
    assert token not in tokens
    assert len(sim.events) == 1
    assert sim.events.cancel(token)


def test_cancel_and_reschedule_fires_at_new_place():
    """The request_wakeup pattern: a cancelled entry rescheduled at the
    same or another tick fires where the new schedule puts it."""
    sim = Simulator()
    fired = []
    moved = sim.schedule_at(10, fired.append, "moved")
    sim.schedule_at(10, fired.append, "b")
    sim.schedule_at(5, fired.append, "a")
    sim.events.cancel(moved)
    sim.schedule_at(10, fired.append, "moved")
    early = sim.schedule_at(20, fired.append, "early")
    sim.events.cancel(early)
    sim.schedule_at(5, fired.append, "early")
    sim.run()
    assert fired == ["a", "early", "b", "moved"]


def test_max_ticks_stops_before_the_entry_and_max_events_resumes():
    sim = Simulator()
    fired = []
    log = _logged(sim, fired)
    for label in "abcd":
        sim.schedule_at(3, log, label)
    sim.schedule_at(8, log, "e")
    assert sim.run(max_events=2) == "max_events"
    assert fired == [(3, "a"), (3, "b")]
    # resumes mid-tick, exactly where it stopped
    assert sim.run(max_events=1) == "max_events"
    assert fired[-1] == (3, "c")
    # stops before the tick-8 entry and freezes the clock at the limit
    assert sim.run(max_ticks=7) == "max_ticks"
    assert fired[-1] == (3, "d") and sim.tick == 7
    assert sim.events.peek_tick() == 8
    assert sim.run() == "idle"
    assert fired[-1] == (8, "e") and sim.tick == 8
    assert sim._events_fired == 5


def test_far_future_cancel_churn_keeps_heap_bounded():
    """XG's timeout pattern: every request arms a far-future timeout and
    cancels it when answered. The cancelled pairs never reach the top of
    the heap, so only the rebuild in cancel bounds them."""
    sim = Simulator()
    queue = sim.events
    timeout = 1 << 30
    answered = []

    def request(n):
        token = sim.schedule(timeout, answered.append, "timed out")
        sim.schedule(2, answer, n, token)

    def answer(n, token):
        assert queue.cancel(token)
        answered.append(n)
        assert len(queue._heap) <= 2 * len(queue) + EventQueue.COMPACT_MIN
        if n < 1000:
            request(n + 1)

    request(0)
    sim.run()
    assert answered == list(range(1001))
    assert sim.tick == 2002
    assert queue._heap == [] and len(queue) == 0
