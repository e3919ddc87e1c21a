"""Pathological accelerator models (paper Section 4 safety evaluation).

None of these are protocol state machines — they are adversaries aimed at
Crossing Guard. The fuzz harness asserts that no matter what they emit,
the *host* never crashes (no ProtocolError), never deadlocks, and every
violation lands in the OS error log. All models are watchdog-exempt: the
accelerator itself is allowed to wedge, the host is not.
"""

from repro.sim.component import Component
from repro.sim.message import Message
from repro.memory.datablock import DataBlock
from repro.xg.interface import ACCEL_RESPONSES, AccelMsg

_ALL_ACCEL_TYPES = list(AccelMsg)


class _AdversaryBase(Component):
    """Common plumbing: a wired XG target and helpers to emit messages."""

    PORTS = ("fromxg",)
    watchdog_exempt = True

    def __init__(self, sim, name, net, xg_name, block_size=64):
        super().__init__(sim, name)
        self.net = net
        self.xg_name = xg_name
        self.block_size = block_size

    def _emit(self, mtype, addr, port, data=None, dirty=False):
        msg = Message(
            mtype, addr, sender=self.name, dest=self.xg_name, data=data, dirty=dirty
        )
        self.net.send(msg, port)
        self.stats.inc("adversary_msgs")
        return msg

    def _random_block(self, rng):
        data = DataBlock(self.block_size)
        for offset in range(0, self.block_size, 8):
            data.write_byte(offset, rng.randrange(256))
        return data


class FuzzingAccel(_AdversaryBase):
    """Sends completely random interface messages to random addresses.

    Message type, channel (request vs response), payload presence, and
    timing are all random — including interface-illegal combinations
    (responses with no request, requests with missing data, data where
    none belongs). This is the paper's "bombard the Crossing Guard with a
    stream of random coherence messages" experiment.
    """

    def __init__(self, sim, name, net, xg_name, addr_pool, mean_gap=10, block_size=64):
        super().__init__(sim, name, net, xg_name, block_size=block_size)
        self.addr_pool = list(addr_pool)
        self.mean_gap = mean_gap
        self.messages_sent = 0
        self.stopped = False

    def start(self):
        self.sim.schedule(1, self._tick)

    def stop(self):
        self.stopped = True

    def _tick(self):
        if self.stopped:
            return
        rng = self.sim.rng
        mtype = rng.choice(_ALL_ACCEL_TYPES)
        addr = rng.choice(self.addr_pool)
        port = rng.choice(["accel_request", "accel_response"])
        data = self._random_block(rng) if rng.random() < 0.5 else None
        self._emit(mtype, addr, port, data=data, dirty=rng.random() < 0.5)
        self.messages_sent += 1
        self.sim.schedule(rng.randint(1, 2 * self.mean_gap), self._tick)

    def wakeup(self):
        # Drain and ignore everything XG sends us.
        for port in self.PORTS:
            while self.in_ports[port].pop(self.sim.tick) is not None:
                self.stats.inc("ignored_from_xg")


class DeafAccel(_AdversaryBase):
    """Issues legitimate Gets but never answers an Invalidate (G2c).

    The host's probes must still complete via XG's timeout surrogate
    responses.
    """

    def __init__(self, sim, name, net, xg_name, addr_pool, gap=50, block_size=64):
        super().__init__(sim, name, net, xg_name, block_size=block_size)
        self.addr_pool = list(addr_pool)
        self.gap = gap
        self.requests_sent = 0
        self.invalidates_ignored = 0
        self.stopped = False

    def start(self):
        self.sim.schedule(1, self._tick)

    def stop(self):
        self.stopped = True

    def _tick(self):
        if self.stopped:
            return
        rng = self.sim.rng
        addr = rng.choice(self.addr_pool)
        mtype = AccelMsg.GetM if rng.random() < 0.5 else AccelMsg.GetS
        self._emit(mtype, addr, "accel_request")
        self.requests_sent += 1
        self.sim.schedule(rng.randint(1, 2 * self.gap), self._tick)

    def wakeup(self):
        while True:
            msg = self.in_ports["fromxg"].pop(self.sim.tick)
            if msg is None:
                return
            if msg.mtype is AccelMsg.Invalidate:
                self.invalidates_ignored += 1  # say nothing, ever


class WrongResponderAccel(_AdversaryBase):
    """Tracks its blocks like a real cache but answers Invalidates wrong.

    Owned blocks get an InvAck (the paper's zero-writeback correction
    case, G2a); shared blocks get a DirtyWB of garbage (the forwarded-
    data tolerance case).
    """

    def __init__(self, sim, name, net, xg_name, addr_pool, gap=50, block_size=64):
        super().__init__(sim, name, net, xg_name, block_size=block_size)
        self.addr_pool = list(addr_pool)
        self.gap = gap
        self.blocks = {}  # addr -> 'S' | 'O'
        self.pending = set()
        self.wrong_responses = 0
        self.stopped = False

    def start(self):
        self.sim.schedule(1, self._tick)

    def stop(self):
        self.stopped = True

    def _tick(self):
        if self.stopped:
            return
        rng = self.sim.rng
        candidates = [a for a in self.addr_pool if a not in self.pending and a not in self.blocks]
        if candidates:
            addr = rng.choice(candidates)
            mtype = AccelMsg.GetM if rng.random() < 0.5 else AccelMsg.GetS
            self._emit(mtype, addr, "accel_request")
            self.pending.add(addr)
        self.sim.schedule(rng.randint(1, 2 * self.gap), self._tick)

    def wakeup(self):
        while True:
            msg = self.in_ports["fromxg"].pop(self.sim.tick)
            if msg is None:
                return
            if msg.mtype in (AccelMsg.DataS, AccelMsg.DataE, AccelMsg.DataM):
                self.pending.discard(msg.addr)
                self.blocks[msg.addr] = (
                    "O" if msg.mtype in (AccelMsg.DataE, AccelMsg.DataM) else "S"
                )
            elif msg.mtype is AccelMsg.Invalidate:
                held = self.blocks.pop(msg.addr, None)
                if held == "O":
                    # Owner answering with a bare ack: XG must substitute
                    # a zero-block writeback.
                    self._emit(AccelMsg.InvAck, msg.addr, "accel_response")
                else:
                    # Non-owner answering with dirty garbage.
                    self._emit(
                        AccelMsg.DirtyWB,
                        msg.addr,
                        "accel_response",
                        data=self._random_block(self.sim.rng),
                        dirty=True,
                    )
                self.wrong_responses += 1


class FloodingAccel(_AdversaryBase):
    """Denial-of-service: legitimate requests at line rate (Section 2.5).

    Every request is well-formed; the attack is volume. Used to evaluate
    the rate limiter's protection of host throughput.
    """

    def __init__(self, sim, name, net, xg_name, addr_pool, gap=1, block_size=64,
                 retry_after=None):
        super().__init__(sim, name, net, xg_name, block_size=block_size)
        self.addr_pool = list(addr_pool)
        self._distinct = len(set(self.addr_pool))
        self.gap = gap
        self.requests_sent = 0
        self.responses_seen = 0
        #: addr -> tick the current request/writeback was issued at.
        self.held = {}
        #: when set, re-issue a GetM for an address whose transaction has
        #: been pending this long — keeps the flood alive on a lossy link
        #: (the chaos campaigns drop its messages on the floor).
        self.retry_after = retry_after
        self.retries_sent = 0
        self.stopped = False

    def start(self):
        self.sim.schedule(1, self._tick)

    def stop(self):
        self.stopped = True

    def _tick(self):
        # Fires every tick for a whole campaign, mostly with every address
        # held. ``held`` only ever holds pool addresses, so each candidate
        # list below is built only when it is non-empty: the same choices,
        # messages and RNG draws, without two list scans per idle tick.
        if self.stopped:
            return
        held = self.held
        now = self.sim.tick
        if len(held) < self._distinct:
            free = [a for a in self.addr_pool if a not in held]
            addr = self.sim.rng.choice(free)
            held[addr] = now
            self._emit(AccelMsg.GetM, addr, "accel_request")
            self.requests_sent += 1
        elif (self.retry_after is not None and held
              and now - min(held.values()) >= self.retry_after):
            stuck = [a for a, since in held.items()
                     if now - since >= self.retry_after]
            addr = self.sim.rng.choice(stuck)
            held[addr] = now
            self._emit(AccelMsg.GetM, addr, "accel_request")
            self.retries_sent += 1
        self.sim.schedule(self.gap, self._tick)

    def wakeup(self):
        while True:
            msg = self.in_ports["fromxg"].pop(self.sim.tick)
            if msg is None:
                return
            if msg.mtype in (AccelMsg.DataS, AccelMsg.DataE, AccelMsg.DataM):
                self.responses_seen += 1
                # Immediately put the block back so it can be re-requested:
                # maximal request traffic with fully legal behavior.
                data = msg.data.copy() if msg.data is not None else DataBlock(self.block_size)
                self._emit(AccelMsg.PutM, msg.addr, "accel_request", data=data, dirty=True)
            elif msg.mtype is AccelMsg.WBAck:
                self.held.pop(msg.addr, None)
            elif msg.mtype is AccelMsg.Invalidate:
                self._emit(AccelMsg.InvAck, msg.addr, "accel_response")
                self.held.pop(msg.addr, None)
