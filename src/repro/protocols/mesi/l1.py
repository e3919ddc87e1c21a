"""MESI two-level private L1 controller.

This is the baseline the paper compares the accelerator interface against:
it must handle four host request kinds and seven response kinds and needs
six+ transient states with ack counters — exactly the complexity Table 1's
accelerator cache avoids.

Notable races handled here (Sorin et al. style):

* ``SM_AD`` + Inv — upgrade loses to a remote GetM: ack the winner, fall
  back to ``IM_AD`` and wait for fresh data;
* ``MI_A``/``EI_A`` + Fwd/Recall — replacement races a forward: serve the
  forward, enter ``II_A``, and absorb the directory's WBNack;
* ``II_A`` + Inv — after an owner downgraded during its own writeback it
  is a sharer again and must still ack invalidations.

The handlers read their vocabulary from class attributes — ``STATE``,
``EVENT``, ``MSG``, the message-to-event maps and ``FWD_GETS_DATA`` —
and the rows only MESI has (the PutS eviction through ``SI_A``) sit in
one hook, :meth:`MesiL1._build_policy_rows`. The MESIF L1
(:class:`~repro.protocols.mesif.l1.MesifL1`) is this class plus its
F-state policy.
"""

import enum

from repro.coherence.controller import CONSUMED, RETRY, STALL
from repro.protocols.common import CacheControllerBase, CpuOp
from repro.protocols.mesi.messages import MesiMsg
from repro.sim.idenum import IdEnum
from repro.sim.message import Message


class L1State(IdEnum):
    I = enum.auto()
    S = enum.auto()
    E = enum.auto()
    M = enum.auto()
    IS_D = enum.auto()  # GetS issued, waiting data
    IM_AD = enum.auto()  # GetM issued, waiting data + acks
    IM_A = enum.auto()  # have data, waiting acks
    SM_AD = enum.auto()  # upgrade issued, waiting data/grant + acks
    SM_A = enum.auto()  # upgrade has grant, waiting acks
    MI_A = enum.auto()  # PutM issued, waiting WBAck
    EI_A = enum.auto()  # PutE issued, waiting WBAck
    SI_A = enum.auto()  # PutS issued, waiting WBAck
    II_A = enum.auto()  # block surrendered mid-writeback, waiting WBNack


class L1Event(IdEnum):
    Load = enum.auto()
    Store = enum.auto()
    Replacement = enum.auto()
    DataS = enum.auto()
    DataE = enum.auto()
    DataM = enum.auto()
    InvAck = enum.auto()
    Inv = enum.auto()
    Fwd_GetS = enum.auto()
    Fwd_GetM = enum.auto()
    Recall = enum.auto()
    WBAck = enum.auto()
    WBNack = enum.auto()


class MesiL1(CacheControllerBase):
    """Private MESI L1 (one per CPU core)."""

    CONTROLLER_TYPE = "mesi_l1"
    PORTS = ("response", "forward", "mandatory")
    INVALID_STATE = L1State.I

    #: the protocol's vocabulary: state, event and message enums
    STATE = L1State
    EVENT = L1Event
    MSG = MesiMsg
    FORWARD_EVENTS = {
        MesiMsg.Inv: L1Event.Inv,
        MesiMsg.Fwd_GetS: L1Event.Fwd_GetS,
        MesiMsg.Fwd_GetM: L1Event.Fwd_GetM,
        MesiMsg.Recall: L1Event.Recall,
        MesiMsg.WBAck: L1Event.WBAck,
        MesiMsg.WBNack: L1Event.WBNack,
    }
    RESPONSE_EVENTS = {
        MesiMsg.DataS: L1Event.DataS,
        MesiMsg.DataE: L1Event.DataE,
        MesiMsg.DataM: L1Event.DataM,
        MesiMsg.InvAck: L1Event.InvAck,
    }
    #: states with a transaction open: CPU requests stall on them
    TRANSIENT = frozenset({
        L1State.IS_D,
        L1State.IM_AD,
        L1State.IM_A,
        L1State.SM_AD,
        L1State.SM_A,
        L1State.MI_A,
        L1State.EI_A,
        L1State.SI_A,
        L1State.II_A,
    })
    #: what an E/M owner sends the requestor of a forwarded GetS
    FWD_GETS_DATA = MesiMsg.DataS
    #: stable states whose replacement frees the way at once (none: a
    #: MESI eviction always waits for the L2's WBAck). A tuple, so the
    #: membership test costs no enum hashing on the MESI path.
    SILENT_EVICTIONS = ()

    def __init__(self, sim, name, net, l2_name, num_sets=64, assoc=4, block_size=64):
        self.net = net
        self.l2_name = l2_name
        super().__init__(sim, name, num_sets=num_sets, assoc=assoc, block_size=block_size)

    # -- helpers --------------------------------------------------------------

    def _send(self, mtype, addr, dest, port, **kw):
        msg = Message(mtype, addr, sender=self.name, dest=dest, **kw)
        self.net.send(msg, port)
        return msg

    def _to_l2(self, mtype, addr, port="request", **kw):
        return self._send(mtype, addr, self.l2_name, port, **kw)

    def _finish_read(self, addr, tbe, entry):
        """Complete the CPU load recorded in the TBE."""
        self.respond_to_cpu(tbe.origin, entry.data)
        self.stats.inc("loads_completed")
        self.sim.stats_for("latency").observe(
            "l1_miss_latency", self.sim.tick - tbe.opened_at
        )

    def _finish_write(self, addr, tbe, entry):
        """Apply the CPU store recorded in the TBE and complete it."""
        op = tbe.origin
        entry.data.write_byte(self.offset(op.addr), op.value)
        entry.dirty = True
        self.respond_to_cpu(op, entry.data)
        self.stats.inc("stores_completed")
        self.sim.stats_for("latency").observe(
            "l1_miss_latency", self.sim.tick - tbe.opened_at
        )

    def _close(self, addr):
        self.tbes.deallocate(addr)
        self.wake_stalled(addr)

    # -- message dispatch ------------------------------------------------------

    def handle_message(self, port, msg):
        # Monomorphic fast path: data/ack responses dominate steady-state
        # traffic, so resolve them on the first compare.
        if port == "response":
            return self.fire(
                self.block_state(msg.addr), self.RESPONSE_EVENTS[msg.mtype], msg
            )
        if port == "forward":
            return self.fire(
                self.block_state(msg.addr), self.FORWARD_EVENTS[msg.mtype], msg
            )
        if port == "mandatory":
            return self._handle_mandatory(msg)
        raise AssertionError(f"unknown port {port}")

    def _handle_mandatory(self, msg):
        addr = self.align(msg.addr)
        state = self.block_state(addr)
        E = self.EVENT
        event = E.Load if msg.mtype is CpuOp.Load else E.Store
        if state in self.TRANSIENT:
            return STALL
        if state is self.INVALID_STATE and self.cache.fill_room(addr, self.tbes) <= 0:
            victim = self.cache.stable_victim(addr, self.tbes)
            if victim is not None:
                victim_state = victim.state
                synthetic = Message(event, victim.addr, sender=self.name, dest=self.name)
                self.fire(victim_state, E.Replacement, synthetic)
                # A silent eviction frees the way now: issue the request
                # at once instead of waiting for a retry.
                if (victim_state in self.SILENT_EVICTIONS
                        and self.cache.fill_room(addr, self.tbes) > 0):
                    return self.fire(state, event, msg)
            return RETRY
        return self.fire(state, event, msg)

    # -- transition table ----------------------------------------------------------

    def _build_transitions(self):
        t = self.transitions
        S, E = self.STATE, self.EVENT
        # CPU requests on stable states
        t[(S.I, E.Load)] = self._i_load
        t[(S.I, E.Store)] = self._i_store
        t[(S.S, E.Load)] = self._hit_load
        t[(S.S, E.Store)] = self._s_store
        t[(S.E, E.Load)] = self._hit_load
        t[(S.E, E.Store)] = self._e_store
        t[(S.M, E.Load)] = self._hit_load
        t[(S.M, E.Store)] = self._m_store
        # replacements (S's row is a policy row: MESIF evicts S silently)
        t[(S.E, E.Replacement)] = self._e_repl
        t[(S.M, E.Replacement)] = self._m_repl
        # data/ack responses
        t[(S.IS_D, E.DataS)] = self._isd_data_s
        t[(S.IS_D, E.DataE)] = self._isd_data_e
        t[(S.IS_D, E.DataM)] = self._isd_data_m
        t[(S.IM_AD, E.DataM)] = self._imad_data_m
        t[(S.IM_AD, E.InvAck)] = self._count_ack
        t[(S.IM_A, E.InvAck)] = self._ima_ack
        t[(S.SM_AD, E.DataM)] = self._imad_data_m
        t[(S.SM_AD, E.InvAck)] = self._count_ack
        t[(S.SM_A, E.InvAck)] = self._ima_ack
        t[(S.SM_AD, E.Inv)] = self._smad_inv
        # forwards on stable states
        t[(S.S, E.Inv)] = self._s_inv
        t[(S.E, E.Fwd_GetS)] = self._owner_fwd_gets
        t[(S.M, E.Fwd_GetS)] = self._owner_fwd_gets
        t[(S.E, E.Fwd_GetM)] = self._owner_fwd_getm
        t[(S.M, E.Fwd_GetM)] = self._owner_fwd_getm
        t[(S.E, E.Recall)] = self._owner_recall
        t[(S.M, E.Recall)] = self._owner_recall
        # writeback transients
        t[(S.MI_A, E.WBAck)] = self._wb_done
        t[(S.EI_A, E.WBAck)] = self._wb_done
        t[(S.MI_A, E.Fwd_GetS)] = self._replacing_fwd_gets
        t[(S.EI_A, E.Fwd_GetS)] = self._replacing_fwd_gets
        t[(S.MI_A, E.Fwd_GetM)] = self._replacing_fwd_getm
        t[(S.EI_A, E.Fwd_GetM)] = self._replacing_fwd_getm
        t[(S.MI_A, E.Recall)] = self._replacing_recall
        t[(S.EI_A, E.Recall)] = self._replacing_recall
        t[(S.II_A, E.Inv)] = self._iia_inv
        t[(S.II_A, E.WBNack)] = self._wb_done
        self._build_policy_rows(t, S, E)

    def _build_policy_rows(self, t, S, E):
        """Rows of the shared-block policy, where MESI's table and MESIF's differ.

        MESI evicts S explicitly: a PutS, then ``SI_A`` until the L2's
        WBAck, acking any Inv that races it.
        """
        t[(S.S, E.Replacement)] = self._s_repl
        t[(S.SI_A, E.WBAck)] = self._wb_done
        t[(S.SI_A, E.Inv)] = self._sia_inv

    # -- CPU request handlers ---------------------------------------------------

    def _i_load(self, msg):
        addr = self.align(msg.addr)
        tbe = self.tbes.allocate(addr, self.STATE.IS_D, now=self.sim.tick)
        tbe.origin = msg
        tbe.meta["needs_slot"] = True
        self._to_l2(self.MSG.GetS, addr)
        self.stats.inc("l1_load_misses")
        return CONSUMED

    def _i_store(self, msg):
        addr = self.align(msg.addr)
        tbe = self.tbes.allocate(addr, self.STATE.IM_AD, now=self.sim.tick)
        tbe.origin = msg
        tbe.meta["needs_slot"] = True
        tbe.acks_needed = None
        self._to_l2(self.MSG.GetM, addr)
        self.stats.inc("l1_store_misses")
        return CONSUMED

    def _hit_load(self, msg):
        entry = self.cache.lookup(msg.addr)
        self.respond_to_cpu(msg, entry.data)
        self.stats.inc("l1_load_hits")
        return CONSUMED

    def _s_store(self, msg):
        addr = self.align(msg.addr)
        tbe = self.tbes.allocate(addr, self.STATE.SM_AD, now=self.sim.tick)
        tbe.origin = msg
        tbe.acks_needed = None
        self._to_l2(self.MSG.GetM, addr)
        self.stats.inc("l1_upgrade_misses")
        return CONSUMED

    def _e_store(self, msg):
        entry = self.cache.lookup(msg.addr)
        entry.state = self.STATE.M  # silent E->M upgrade
        entry.data.write_byte(self.offset(msg.addr), msg.value)
        entry.dirty = True
        self.respond_to_cpu(msg, entry.data)
        self.stats.inc("l1_store_hits")
        return CONSUMED

    def _m_store(self, msg):
        entry = self.cache.lookup(msg.addr)
        entry.data.write_byte(self.offset(msg.addr), msg.value)
        self.respond_to_cpu(msg, entry.data)
        self.stats.inc("l1_store_hits")
        return CONSUMED

    # -- replacements --------------------------------------------------------------

    def _s_repl(self, msg):
        addr = msg.addr
        self.tbes.allocate(addr, self.STATE.SI_A, now=self.sim.tick)
        self._to_l2(self.MSG.PutS, addr)
        self.stats.inc("l1_puts")
        return CONSUMED

    def _e_repl(self, msg):
        addr = msg.addr
        entry = self.cache.lookup(addr, touch=False)
        self.tbes.allocate(addr, self.STATE.EI_A, now=self.sim.tick)
        self._to_l2(self.MSG.PutE, addr, data=entry.data.copy(), dirty=False)
        self.stats.inc("l1_pute")
        return CONSUMED

    def _m_repl(self, msg):
        addr = msg.addr
        entry = self.cache.lookup(addr, touch=False)
        self.tbes.allocate(addr, self.STATE.MI_A, now=self.sim.tick)
        self._to_l2(self.MSG.PutM, addr, data=entry.data.copy(), dirty=True)
        self.stats.inc("l1_putm")
        return CONSUMED

    # -- fill responses ----------------------------------------------------------------

    def _isd_data_s(self, msg):
        addr = msg.addr
        tbe = self.tbes.lookup(addr)
        entry = self.cache.allocate(addr, self.STATE.S, data=msg.data.copy())
        self._finish_read(addr, tbe, entry)
        self._to_l2(self.MSG.UnblockS, addr, port="response")
        self._close(addr)
        return CONSUMED

    def _isd_data_e(self, msg):
        addr = msg.addr
        tbe = self.tbes.lookup(addr)
        entry = self.cache.allocate(addr, self.STATE.E, data=msg.data.copy())
        self._finish_read(addr, tbe, entry)
        self._to_l2(self.MSG.UnblockX, addr, port="response")
        self._close(addr)
        return CONSUMED

    def _isd_data_m(self, msg):
        # Dirty-migration grant: L2 hands over its dirty copy on a GetS.
        addr = msg.addr
        tbe = self.tbes.lookup(addr)
        entry = self.cache.allocate(addr, self.STATE.M, data=msg.data.copy(), dirty=True)
        self._finish_read(addr, tbe, entry)
        self._to_l2(self.MSG.UnblockX, addr, port="response")
        self._close(addr)
        return CONSUMED

    def _imad_data_m(self, msg):
        """Data (or upgrade grant) for an outstanding GetM; covers IM_AD/SM_AD."""
        addr = msg.addr
        tbe = self.tbes.lookup(addr)
        tbe.data = msg.data.copy() if msg.data is not None else tbe.data
        tbe.acks_needed = msg.ack_count
        tbe.data_received = True
        if tbe.acks_received >= tbe.acks_needed:
            self._complete_store(addr, tbe)
        else:
            S = self.STATE
            tbe.state = S.IM_A if tbe.state is S.IM_AD else S.SM_A
        return CONSUMED

    def _count_ack(self, msg):
        tbe = self.tbes.lookup(msg.addr)
        tbe.acks_received += 1
        return CONSUMED

    def _ima_ack(self, msg):
        tbe = self.tbes.lookup(msg.addr)
        tbe.acks_received += 1
        if tbe.acks_received >= tbe.acks_needed:
            self._complete_store(msg.addr, tbe)
        return CONSUMED

    def _complete_store(self, addr, tbe):
        entry = self.cache.lookup(addr, touch=False)
        if entry is None:
            entry = self.cache.allocate(addr, self.STATE.M, data=tbe.data)
        else:
            entry.state = self.STATE.M
            if tbe.data is not None:
                entry.data = tbe.data
        entry.dirty = True
        self._finish_write(addr, tbe, entry)
        self._to_l2(self.MSG.UnblockX, addr, port="response")
        self._close(addr)

    def _smad_inv(self, msg):
        """Upgrade lost the race: ack the winner, restart as a plain GetM."""
        addr = msg.addr
        tbe = self.tbes.lookup(addr)
        self._send(self.MSG.InvAck, addr, msg.requestor, "response")
        entry = self.cache.lookup(addr, touch=False)
        if entry is not None:
            self.cache.deallocate(addr)
        tbe.state = self.STATE.IM_AD
        tbe.meta["needs_slot"] = True
        tbe.data = None
        return CONSUMED

    # -- forwards on stable states -------------------------------------------------------

    def _s_inv(self, msg):
        addr = msg.addr
        self._send(self.MSG.InvAck, addr, msg.requestor, "response")
        self.cache.deallocate(addr)
        return CONSUMED

    def _owner_fwd_gets(self, msg):
        """E/M owner downgrades to S; data to requestor, CopyBack to L2."""
        addr = msg.addr
        entry = self.cache.lookup(addr, touch=False)
        self._send(self.FWD_GETS_DATA, addr, msg.requestor, "response", data=entry.data.copy())
        self._to_l2(
            self.MSG.CopyBack, addr, port="response", data=entry.data.copy(), dirty=entry.dirty
        )
        entry.state = self.STATE.S
        entry.dirty = False
        return CONSUMED

    def _owner_fwd_getm(self, msg):
        addr = msg.addr
        entry = self.cache.lookup(addr, touch=False)
        self._send(
            self.MSG.DataM,
            addr,
            msg.requestor,
            "response",
            data=entry.data.copy(),
            dirty=entry.dirty,
            ack_count=0,
        )
        self.cache.deallocate(addr)
        return CONSUMED

    def _owner_recall(self, msg):
        addr = msg.addr
        entry = self.cache.lookup(addr, touch=False)
        self._to_l2(
            self.MSG.CopyBackInv, addr, port="response", data=entry.data.copy(), dirty=entry.dirty
        )
        self.cache.deallocate(addr)
        return CONSUMED

    # -- writeback transients ---------------------------------------------------------------

    def _wb_done(self, msg):
        addr = msg.addr
        if self.cache.lookup(addr, touch=False) is not None:
            self.cache.deallocate(addr)
        self._close(addr)
        return CONSUMED

    def _replacing_fwd_gets(self, msg):
        """Replacement raced a Fwd_GetS: serve it; our Put will be Nacked."""
        addr = msg.addr
        tbe = self.tbes.lookup(addr)
        entry = self.cache.lookup(addr, touch=False)
        self._send(self.FWD_GETS_DATA, addr, msg.requestor, "response", data=entry.data.copy())
        self._to_l2(
            self.MSG.CopyBack, addr, port="response", data=entry.data.copy(), dirty=entry.dirty
        )
        tbe.state = self.STATE.II_A
        return CONSUMED

    def _replacing_fwd_getm(self, msg):
        addr = msg.addr
        tbe = self.tbes.lookup(addr)
        entry = self.cache.lookup(addr, touch=False)
        self._send(
            self.MSG.DataM,
            addr,
            msg.requestor,
            "response",
            data=entry.data.copy(),
            dirty=entry.dirty,
            ack_count=0,
        )
        tbe.state = self.STATE.II_A
        return CONSUMED

    def _replacing_recall(self, msg):
        addr = msg.addr
        tbe = self.tbes.lookup(addr)
        entry = self.cache.lookup(addr, touch=False)
        self._to_l2(
            self.MSG.CopyBackInv, addr, port="response", data=entry.data.copy(), dirty=entry.dirty
        )
        tbe.state = self.STATE.II_A
        return CONSUMED

    def _sia_inv(self, msg):
        addr = msg.addr
        tbe = self.tbes.lookup(addr)
        self._send(self.MSG.InvAck, addr, msg.requestor, "response")
        tbe.state = self.STATE.II_A
        return CONSUMED

    def _iia_inv(self, msg):
        """Still a sharer on L2's books after a downgrade; keep acking."""
        self._send(self.MSG.InvAck, msg.addr, msg.requestor, "response")
        return CONSUMED
