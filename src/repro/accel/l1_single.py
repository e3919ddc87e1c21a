"""Single-level accelerator L1 cache — the paper's Table 1, verbatim.

Four stable states (MESI) and a *single* transient state B. Compare with
the host MESI L1, which needs six transient states, ack counters, and
seven response kinds: the entire point of the Crossing Guard interface is
that this table is all an accelerator designer must implement.

Degenerate modes (Section 2.1):

* ``MSI`` — treat DataE as DataM and send only Dirty Writebacks;
* ``VI`` — issue only GetM, hold blocks only in M.
"""

import enum

from repro.coherence.controller import CONSUMED, RETRY, STALL
from repro.protocols.common import CacheControllerBase, CpuOp
from repro.sim.idenum import IdEnum
from repro.sim.message import Message
from repro.xg.interface import AccelMsg


class AL1State(IdEnum):
    I = enum.auto()
    S = enum.auto()
    E = enum.auto()
    M = enum.auto()
    B = enum.auto()  # the single transient: any request outstanding


class AL1Event(IdEnum):
    Load = enum.auto()
    Store = enum.auto()
    Replacement = enum.auto()
    Invalidate = enum.auto()
    DataM = enum.auto()
    DataE = enum.auto()
    DataS = enum.auto()
    WBAck = enum.auto()


class AccelL1Mode(IdEnum):
    MESI = enum.auto()
    MSI = enum.auto()
    VI = enum.auto()


_XG_EVENTS = {
    AccelMsg.DataM: AL1Event.DataM,
    AccelMsg.DataE: AL1Event.DataE,
    AccelMsg.DataS: AL1Event.DataS,
    AccelMsg.WBAck: AL1Event.WBAck,
    AccelMsg.Invalidate: AL1Event.Invalidate,
}


class AccelL1(CacheControllerBase):
    """Customized accelerator cache speaking the XG interface."""

    CONTROLLER_TYPE = "accel_l1"
    PORTS = ("fromxg", "mandatory")
    INVALID_STATE = AL1State.I

    def __init__(
        self,
        sim,
        name,
        net,
        xg_name,
        num_sets=64,
        assoc=4,
        block_size=64,
        mode=AccelL1Mode.MESI,
    ):
        self.net = net
        self.xg_name = xg_name
        self.mode = mode
        super().__init__(sim, name, num_sets=num_sets, assoc=assoc, block_size=block_size)

    # -- helpers ----------------------------------------------------------------

    def _to_xg(self, mtype, addr, port="accel_request", **kw):
        msg = Message(mtype, addr, sender=self.name, dest=self.xg_name, **kw)
        self.net.send(msg, port)
        return msg

    # -- dispatch --------------------------------------------------------------------

    def handle_message(self, port, msg):
        # Monomorphic fast path: grants/probes from XG dominate, and
        # "fromxg" is also the higher-priority port — check it first.
        if port == "fromxg":
            try:
                event = _XG_EVENTS[msg.mtype]
            except KeyError:
                # XG-originated administrative traffic (e.g. a Nack to a
                # quarantined sibling) is outside Table 1; a real
                # accelerator ignores what it does not implement.
                self.stats.inc("unexpected_from_xg")
                return CONSUMED
            return self.fire(self.block_state(msg.addr), event, msg)
        return self._handle_mandatory(msg)

    def _handle_mandatory(self, msg):
        addr = self.align(msg.addr)
        state = self.block_state(addr)
        event = AL1Event.Load if msg.mtype is CpuOp.Load else AL1Event.Store
        if state is AL1State.B:
            return STALL
        if state is AL1State.I and self.cache.fill_room(addr, self.tbes) <= 0:
            victim = self.cache.stable_victim(addr, self.tbes)
            if victim is not None:
                synthetic = Message(event, victim.addr, sender=self.name, dest=self.name)
                self.fire(victim.state, AL1Event.Replacement, synthetic)
            return RETRY
        return self.fire(state, event, msg)

    # -- Table 1 ------------------------------------------------------------------------

    def _build_transitions(self):
        t = self.transitions
        S, E = AL1State, AL1Event
        t[(S.M, E.Load)] = self._hit_load
        t[(S.M, E.Store)] = self._hit_store
        t[(S.M, E.Replacement)] = self._m_repl
        t[(S.M, E.Invalidate)] = self._m_inv
        t[(S.E, E.Load)] = self._hit_load
        t[(S.E, E.Store)] = self._e_store
        t[(S.E, E.Replacement)] = self._e_repl
        t[(S.E, E.Invalidate)] = self._e_inv
        t[(S.S, E.Load)] = self._hit_load
        t[(S.S, E.Store)] = self._s_store
        t[(S.S, E.Replacement)] = self._s_repl
        t[(S.S, E.Invalidate)] = self._stable_inv_ack
        t[(S.I, E.Load)] = self._i_load
        t[(S.I, E.Store)] = self._i_store
        t[(S.I, E.Invalidate)] = self._i_inv
        t[(S.B, E.Invalidate)] = self._b_inv
        t[(S.B, E.DataM)] = self._b_data_m
        t[(S.B, E.DataE)] = self._b_data_e
        t[(S.B, E.DataS)] = self._b_data_s
        t[(S.B, E.WBAck)] = self._b_wback

    # -- stable-state CPU ops ----------------------------------------------------------

    def _hit_load(self, msg):
        entry = self.cache.lookup(msg.addr)
        self.respond_to_cpu(msg, entry.data)
        self.stats.inc("accel_load_hits")
        return CONSUMED

    def _hit_store(self, msg):
        entry = self.cache.lookup(msg.addr)
        entry.data.write_byte(self.offset(msg.addr), msg.value)
        entry.dirty = True
        self.respond_to_cpu(msg, entry.data)
        self.stats.inc("accel_store_hits")
        return CONSUMED

    def _e_store(self, msg):
        entry = self.cache.lookup(msg.addr)
        entry.state = AL1State.M  # silent E->M, allowed by the interface
        return self._hit_store(msg)

    def _s_store(self, msg):
        addr = self.align(msg.addr)
        tbe = self.tbes.allocate(addr, AL1State.B, now=self.sim.tick)
        tbe.origin = msg
        self._to_xg(AccelMsg.GetM, addr)
        self.stats.inc("accel_upgrades")
        return CONSUMED

    def _i_load(self, msg):
        addr = self.align(msg.addr)
        tbe = self.tbes.allocate(addr, AL1State.B, now=self.sim.tick)
        tbe.origin = msg
        tbe.meta["needs_slot"] = True
        if self.mode is AccelL1Mode.VI:
            self._to_xg(AccelMsg.GetM, addr)
        else:
            self._to_xg(AccelMsg.GetS, addr)
        self.stats.inc("accel_load_misses")
        return CONSUMED

    def _i_store(self, msg):
        addr = self.align(msg.addr)
        tbe = self.tbes.allocate(addr, AL1State.B, now=self.sim.tick)
        tbe.origin = msg
        tbe.meta["needs_slot"] = True
        self._to_xg(AccelMsg.GetM, addr)
        self.stats.inc("accel_store_misses")
        return CONSUMED

    # -- replacements -----------------------------------------------------------------------

    def _m_repl(self, msg):
        addr = msg.addr
        entry = self.cache.lookup(addr, touch=False)
        tbe = self.tbes.allocate(addr, AL1State.B, now=self.sim.tick)
        tbe.meta["put"] = True
        self._to_xg(AccelMsg.PutM, addr, data=entry.data.copy(), dirty=True)
        return CONSUMED

    def _e_repl(self, msg):
        addr = msg.addr
        entry = self.cache.lookup(addr, touch=False)
        tbe = self.tbes.allocate(addr, AL1State.B, now=self.sim.tick)
        tbe.meta["put"] = True
        if self.mode is AccelL1Mode.MESI:
            self._to_xg(AccelMsg.PutE, addr, data=entry.data.copy(), dirty=False)
        else:
            # MSI/VI modes only ever send Dirty Writebacks / PutM.
            self._to_xg(AccelMsg.PutM, addr, data=entry.data.copy(), dirty=True)
        return CONSUMED

    def _s_repl(self, msg):
        addr = msg.addr
        tbe = self.tbes.allocate(addr, AL1State.B, now=self.sim.tick)
        tbe.meta["put"] = True
        self._to_xg(AccelMsg.PutS, addr)
        return CONSUMED

    # -- invalidations ---------------------------------------------------------------------------

    def _m_inv(self, msg):
        entry = self.cache.lookup(msg.addr, touch=False)
        self._to_xg(
            AccelMsg.DirtyWB, msg.addr, port="accel_response", data=entry.data.copy(), dirty=True
        )
        self.cache.deallocate(msg.addr)
        return CONSUMED

    def _e_inv(self, msg):
        entry = self.cache.lookup(msg.addr, touch=False)
        if self.mode is AccelL1Mode.MESI:
            self._to_xg(
                AccelMsg.CleanWB, msg.addr, port="accel_response", data=entry.data.copy()
            )
        else:
            self._to_xg(
                AccelMsg.DirtyWB,
                msg.addr,
                port="accel_response",
                data=entry.data.copy(),
                dirty=True,
            )
        self.cache.deallocate(msg.addr)
        return CONSUMED

    def _stable_inv_ack(self, msg):
        self._to_xg(AccelMsg.InvAck, msg.addr, port="accel_response")
        self.cache.deallocate(msg.addr)
        return CONSUMED

    def _i_inv(self, msg):
        self._to_xg(AccelMsg.InvAck, msg.addr, port="accel_response")
        return CONSUMED

    def _b_inv(self, msg):
        # "If the block is not in a stable state, the accelerator cache
        # should always return an InvAck ... and take no further action."
        self._to_xg(AccelMsg.InvAck, msg.addr, port="accel_response")
        return CONSUMED

    # -- data / writeback completions --------------------------------------------------------------

    def _b_data_m(self, msg):
        return self._fill(msg, AL1State.M, dirty=True)

    def _b_data_e(self, msg):
        if self.mode is AccelL1Mode.MESI:
            return self._fill(msg, AL1State.E, dirty=False)
        # MSI/VI: treat DataE as DataM.
        return self._fill(msg, AL1State.M, dirty=True)

    def _b_data_s(self, msg):
        return self._fill(msg, AL1State.S, dirty=False)

    def _fill(self, msg, state, dirty):
        addr = msg.addr
        tbe = self.tbes.lookup(addr)
        entry = self.cache.lookup(addr, touch=False)
        if entry is None:
            entry = self.cache.allocate(addr, state, data=msg.data.copy(), dirty=dirty)
        else:
            entry.state = state
            entry.data = msg.data.copy()
            entry.dirty = dirty
        op = tbe.origin
        if op.mtype is CpuOp.Store:
            if state in (AL1State.S,):
                # Grant was only shared but we wanted M: re-request.
                # (Cannot happen with a correct XG; defensive.)
                tbe.origin = op
                self._to_xg(AccelMsg.GetM, addr)
                return CONSUMED
            entry.data.write_byte(self.offset(op.addr), op.value)
            entry.dirty = True
            if entry.state is AL1State.E:
                entry.state = AL1State.M
            self.stats.inc("accel_stores_completed")
        else:
            self.stats.inc("accel_loads_completed")
        self.respond_to_cpu(op, entry.data)
        self.sim.stats_for("latency").observe(
            "accel_miss_latency", self.sim.tick - tbe.opened_at
        )
        self.tbes.deallocate(addr)
        self.wake_stalled(addr)
        return CONSUMED

    def _b_wback(self, msg):
        addr = msg.addr
        if self.cache.lookup(addr, touch=False) is not None:
            self.cache.deallocate(addr)
        self.tbes.deallocate(addr)
        self.wake_stalled(addr)
        return CONSUMED
