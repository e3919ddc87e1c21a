"""Unit tests for the SLICC-like controller framework."""

import enum

import pytest

from repro.coherence.controller import (
    CONSUMED,
    RETRY,
    STALL,
    CoherenceController,
    ProtocolError,
)
from repro.sim.message import Message
from repro.sim.simulator import Simulator


class St(enum.Enum):
    A = 1
    B = 2


class Ev(enum.Enum):
    Go = 1
    Block = 2
    Free = 3


class _Toy(CoherenceController):
    """Single-port controller: Block stalls an address until Free."""

    CONTROLLER_TYPE = "toy"
    PORTS = ("inbox",)

    def __init__(self, sim, name):
        self.blocked = set()
        self.processed = []
        super().__init__(sim, name)

    def _build_transitions(self):
        self.transitions[(St.A, Ev.Go)] = self._go
        self.transitions[(St.A, Ev.Block)] = self._block
        self.transitions[(St.A, Ev.Free)] = self._free

    def handle_message(self, port, msg):
        if msg.mtype is Ev.Go and msg.addr in self.blocked:
            return STALL
        return self.fire(St.A, msg.mtype, msg)

    def _go(self, msg):
        self.processed.append(msg.addr)
        return CONSUMED

    def _block(self, msg):
        self.blocked.add(msg.addr)
        return CONSUMED

    def _free(self, msg):
        self.blocked.discard(msg.addr)
        self.wake_stalled(msg.addr)
        return CONSUMED


def _send(ctrl, mtype, addr, tick=1):
    ctrl.deliver("inbox", tick, Message(mtype, addr, dest=ctrl.name))


def test_fire_records_coverage():
    sim = Simulator()
    ctrl = _Toy(sim, "toy")
    _send(ctrl, Ev.Go, 0x40)
    sim.run()
    assert ctrl.coverage[(St.A, Ev.Go)] == 1
    assert (St.A, Ev.Go) in ctrl.possible_transitions()


def test_undefined_transition_raises_protocol_error():
    sim = Simulator()
    ctrl = _Toy(sim, "toy")
    # mutating the table at runtime requires a recompile, like a SLICC
    # regeneration — the compiled fast path serves the flattened copy
    del ctrl.transitions[(St.A, Ev.Go)]
    ctrl.recompile_dispatch()
    _send(ctrl, Ev.Go, 0x40)
    with pytest.raises(ProtocolError):
        sim.run()


def test_messages_arriving_together_are_handled_in_their_tick():
    """Handling takes no simulated time: four messages that arrive at tick
    5 are all handled at tick 5, in arrival order."""
    sim = Simulator()
    ctrl = _Toy(sim, "toy")
    for i in range(4):
        _send(ctrl, Ev.Go, 64 * i, tick=5)
    sim.run()
    assert ctrl.processed == [0x0, 0x40, 0x80, 0xC0]
    assert sim.tick == 5


def test_stall_and_wake_preserves_order():
    sim = Simulator()
    ctrl = _Toy(sim, "toy")
    _send(ctrl, Ev.Block, 0x40, tick=1)
    _send(ctrl, Ev.Go, 0x40, tick=2)
    _send(ctrl, Ev.Go, 0x40, tick=3)
    _send(ctrl, Ev.Go, 0x80, tick=4)  # different address: not stalled
    sim.run(final_check=False)
    assert ctrl.processed == [0x80]
    assert ctrl.stalled_count() == 2
    _send(ctrl, Ev.Free, 0x40, tick=sim.tick + 1)
    sim.run()
    assert ctrl.processed == [0x80, 0x40, 0x40]
    assert ctrl.stalled_count() == 0


def test_stall_index_wakes_only_the_freed_address():
    """Per-address stall buckets: waking one address releases exactly its
    messages, in arrival order, and the O(1) count tracks every step."""
    sim = Simulator()
    ctrl = _Toy(sim, "toy")
    _send(ctrl, Ev.Block, 0x40, tick=1)
    _send(ctrl, Ev.Block, 0x80, tick=2)
    _send(ctrl, Ev.Go, 0x40, tick=3)
    _send(ctrl, Ev.Go, 0x80, tick=4)
    _send(ctrl, Ev.Go, 0x40, tick=5)
    _send(ctrl, Ev.Go, 0x80, tick=6)
    sim.run(final_check=False)
    assert ctrl.processed == []
    assert ctrl.stalled_count() == 4
    _send(ctrl, Ev.Free, 0x80, tick=sim.tick + 1)
    sim.run(final_check=False)
    assert ctrl.processed == [0x80, 0x80]
    assert ctrl.stalled_count() == 2
    _send(ctrl, Ev.Free, 0x40, tick=sim.tick + 1)
    sim.run()
    assert ctrl.processed == [0x80, 0x80, 0x40, 0x40]
    assert ctrl.stalled_count() == 0
    assert ctrl.stats.get("stalls") == 4


def test_diagnose_reports_stalled_messages():
    from repro.sim.simulator import DeadlockError

    sim = Simulator()
    ctrl = _Toy(sim, "toy")
    _send(ctrl, Ev.Block, 0x40)
    _send(ctrl, Ev.Go, 0x40, tick=2)
    _send(ctrl, Ev.Go, 0x40, tick=3)
    with pytest.raises(DeadlockError) as info:
        sim.run()
    report = info.value.diagnose()
    assert "stalled_msgs=2" in report


def test_dispatch_mode_legacy_matches_compiled():
    from repro.coherence.controller import dispatch_mode

    results = {}
    for mode in ("compiled", "legacy"):
        with dispatch_mode(mode):
            sim = Simulator()
            ctrl = _Toy(sim, "toy")
            # compiled mode installs the per-instance closure; legacy
            # keeps the class method
            assert ("fire" in ctrl.__dict__) == (mode == "compiled")
            _send(ctrl, Ev.Block, 0x40, tick=1)
            _send(ctrl, Ev.Go, 0x40, tick=2)
            _send(ctrl, Ev.Go, 0x80, tick=3)
            _send(ctrl, Ev.Free, 0x40, tick=4)
            sim.run()
        results[mode] = (ctrl.processed, dict(ctrl.coverage), ctrl.stats.as_dict())
    assert results["compiled"] == results["legacy"]


def test_stalled_forever_is_a_deadlock():
    """Messages left in stall buffers at idle are exactly the deadlock the
    watchdog exists to catch (a wedged accelerator transaction)."""
    from repro.sim.simulator import DeadlockError

    sim = Simulator()
    ctrl = _Toy(sim, "toy")
    _send(ctrl, Ev.Block, 0x40)
    _send(ctrl, Ev.Go, 0x40, tick=2)
    with pytest.raises(DeadlockError):
        sim.run()
    assert ctrl.oldest_pending_tick(sim.tick) is not None


def test_coverage_exempt_excluded_from_denominator():
    sim = Simulator()
    ctrl = _Toy(sim, "toy")
    ctrl.coverage_exempt.add((St.A, Ev.Free))
    assert (St.A, Ev.Free) not in ctrl.possible_transitions()
    assert (St.A, Ev.Go) in ctrl.possible_transitions()


class _WakerDuringHandle(CoherenceController):
    """Regression: a handler that wakes stalled messages onto its own port
    head must not cause the just-handled message to be processed twice."""

    CONTROLLER_TYPE = "waker"
    PORTS = ("inbox",)

    def __init__(self, sim, name):
        self.log = []
        self.armed = False
        super().__init__(sim, name)

    def _build_transitions(self):
        return

    def handle_message(self, port, msg):
        self.log.append(msg.mtype)
        if msg.mtype == "stall_me" and not self.armed:
            self.armed = True
            return STALL
        if msg.mtype == "waker":
            self.wake_stalled(msg.addr)
        return CONSUMED


def test_wake_during_handle_no_double_processing():
    sim = Simulator()
    ctrl = _WakerDuringHandle(sim, "w")
    ctrl.deliver("inbox", 1, Message("stall_me", 0x40, dest="w"))
    ctrl.deliver("inbox", 2, Message("waker", 0x40, dest="w"))
    sim.run()
    # "waker" must be consumed exactly once even though waking pushed
    # "stall_me" to the port head mid-handle (the double-pop regression).
    assert ctrl.log == ["stall_me", "waker", "stall_me"]


class _Retrier(CoherenceController):
    """RETRY blocks its own port head; an unlock on a higher-priority
    port releases it (mirrors mandatory-queue vs response-port shape)."""

    CONTROLLER_TYPE = "retrier"
    PORTS = ("control", "inbox")

    def __init__(self, sim, name):
        self.attempts = 0
        self.ready = False
        super().__init__(sim, name)

    def _build_transitions(self):
        return

    def handle_message(self, port, msg):
        if msg.mtype == "unlock":
            self.ready = True
            return CONSUMED
        self.attempts += 1
        return CONSUMED if self.ready else RETRY


def test_retry_leaves_message_at_head():
    sim = Simulator()
    ctrl = _Retrier(sim, "r")
    ctrl.deliver("inbox", 1, Message("work", 0x0, dest="r"))
    ctrl.deliver("control", 10, Message("unlock", 0x0, dest="r"))
    sim.run(max_ticks=5, final_check=False)
    assert not ctrl.ready and ctrl.attempts >= 1
    assert len(ctrl.in_ports["inbox"]) == 1  # "work" still at head
    sim.run()
    assert ctrl.ready
    assert len(ctrl.in_ports["inbox"]) == 0


def test_note_protocol_anomaly_counted():
    sim = Simulator()
    ctrl = _Toy(sim, "toy")
    ctrl.note_protocol_anomaly("weird", None)
    assert ctrl.stats.get("protocol_anomalies") == 1
    assert len(ctrl.protocol_errors) == 1
