"""MESI two-level shared inclusive L2 with embedded directory.

The L2 is a *blocking* directory: each block has at most one open
transaction (TBE), closed by the requestor's Unblock; racing requests wait
in per-address stall buffers. Sharer tracking is exact (explicit PutS),
which is what lets stale Puts be detected and WBNack'd — the property the
paper leans on for Guarantee 1a tolerance.

The ``xg_tolerant`` flag enables the Section 3.2.2 host modifications for
Transactional Crossing Guard:

* a CopyBack that arrives when no copyback is expected (a buggy
  accelerator "wrote back" instead of acking an Inv) is absorbed and the
  L2 acks the requestor on the accelerator's behalf;
* a GetM/GetS from the cache the directory already considers owner is
  served gracefully instead of being a protocol error.

As in the L1, the handlers read their vocabulary from class attributes
(``STATE``, ``EVENT``, ``MSG`` and the message-to-event maps), so the
MESIF L2 (:class:`~repro.protocols.mesif.l2.MesifL2`) is this class plus
its F-state policy. The one MESI-only row, the exact PutS, sits in the
hook :meth:`MesiL2._build_policy_rows`.
"""

import enum

from repro.coherence.controller import (
    CONSUMED,
    RETRY,
    STALL,
    CoherenceController,
    ProtocolError,
)
from repro.coherence.tbe import TBETable
from repro.memory.cache_array import CacheArray
from repro.protocols.mesi.messages import MesiMsg
from repro.sim.idenum import IdEnum
from repro.sim.message import Message


class L2State(IdEnum):
    NP = enum.auto()  # not present
    V = enum.auto()  # valid at L2; zero or more sharers; no exclusive owner
    X = enum.auto()  # an L1 holds the block exclusively (E or M)
    IV = enum.auto()  # fetching from memory
    BUSY = enum.auto()  # transaction open, waiting Unblock (+CopyBack)
    EV_ACK = enum.auto()  # evicting: waiting sharer InvAcks
    EV_DATA = enum.auto()  # evicting: waiting owner CopyBackInv


class L2Event(IdEnum):
    GetS = enum.auto()
    GetM = enum.auto()
    GetS_Only = enum.auto()
    PutS = enum.auto()
    PutE = enum.auto()
    PutM = enum.auto()
    PutStale = enum.auto()
    MemData = enum.auto()
    UnblockS = enum.auto()
    UnblockX = enum.auto()
    CopyBack = enum.auto()
    CopyBackInv = enum.auto()
    InvAck = enum.auto()
    Replacement = enum.auto()


class MesiL2(CoherenceController):
    """Shared inclusive L2 / directory for the MESI two-level protocol."""

    CONTROLLER_TYPE = "mesi_l2"
    PORTS = ("response", "request")

    #: the protocol's vocabulary: state, event and message enums
    STATE = L2State
    EVENT = L2Event
    MSG = MesiMsg
    GET_EVENTS = {
        MesiMsg.GetS: L2Event.GetS,
        MesiMsg.GetM: L2Event.GetM,
        MesiMsg.GetS_Only: L2Event.GetS_Only,
    }
    PUT_TYPES = frozenset({MesiMsg.PutS, MesiMsg.PutE, MesiMsg.PutM})
    RESPONSE_EVENTS = {
        MesiMsg.UnblockS: L2Event.UnblockS,
        MesiMsg.UnblockX: L2Event.UnblockX,
        MesiMsg.CopyBack: L2Event.CopyBack,
        MesiMsg.CopyBackInv: L2Event.CopyBackInv,
        MesiMsg.InvAck: L2Event.InvAck,
    }
    #: states with a transaction open: requests stall on them
    TRANSIENT = (L2State.IV, L2State.BUSY, L2State.EV_ACK, L2State.EV_DATA)

    def __init__(
        self,
        sim,
        name,
        net,
        memory,
        num_sets=256,
        assoc=8,
        block_size=64,
        xg_tolerant=False,
    ):
        self.net = net
        self.memory = memory
        self.block_size = block_size
        self.xg_tolerant = xg_tolerant
        self.cache = CacheArray(num_sets, assoc, block_size=block_size, name=name)
        self.tbes = TBETable(name=name)
        super().__init__(sim, name)

    # -- helpers -----------------------------------------------------------------

    def _send(self, mtype, addr, dest, port, **kw):
        msg = Message(mtype, addr, sender=self.name, dest=dest, **kw)
        self.net.send(msg, port)
        return msg

    def _state(self, addr):
        tbe = self.tbes.lookup(addr)
        if tbe is not None:
            return tbe.state
        entry = self.cache.lookup(addr, touch=False)
        if entry is None:
            return self.STATE.NP
        return entry.state

    # -- dispatch --------------------------------------------------------------------

    def handle_message(self, port, msg):
        addr = msg.addr
        state = self._state(addr)
        # Monomorphic fast path: data/ack/unblock responses dominate
        # steady-state traffic, so resolve them on the first compare.
        if port == "response":
            return self.fire(state, self.RESPONSE_EVENTS[msg.mtype], msg)
        # request port
        if state in self.TRANSIENT:
            return STALL
        get_events = self.GET_EVENTS
        if msg.mtype in get_events:
            event = get_events[msg.mtype]
            if state is self.STATE.NP and self.cache.fill_room(addr, self.tbes) <= 0:
                victim = self.cache.stable_victim(addr, self.tbes)
                if victim is not None:
                    replacement = self.EVENT.Replacement
                    synthetic = Message(
                        replacement, victim.addr, sender=self.name, dest=self.name
                    )
                    self.fire(victim.state, replacement, synthetic)
                if self.cache.fill_room(addr, self.tbes) <= 0:
                    # Eviction is in flight (or impossible right now);
                    # its completion rescans this port.
                    return RETRY
            return self.fire(state, event, msg)
        if msg.mtype in self.PUT_TYPES:
            event = self._classify_put(msg, state)
            return self.fire(state, event, msg)
        raise ProtocolError(self, state, msg.mtype, msg, note="bad request type")

    def _classify_put(self, msg, state):
        """The owner's PutE/PutM and a listed sharer's PutS are current;
        any other Put lost a race and is PutStale."""
        S, E, M = self.STATE, self.EVENT, self.MSG
        entry = self.cache.lookup(msg.addr, touch=False)
        if state is S.X and msg.mtype in (M.PutM, M.PutE):
            if entry.meta["owner"] == msg.sender:
                return E.PutM if msg.mtype is M.PutM else E.PutE
        if state is S.V and msg.mtype is M.PutS:
            if msg.sender in entry.meta["sharers"]:
                return E.PutS
        return E.PutStale

    # -- transition table ----------------------------------------------------------------

    def _build_transitions(self):
        t = self.transitions
        S, E = self.STATE, self.EVENT
        t[(S.NP, E.GetS)] = self._np_get
        t[(S.NP, E.GetM)] = self._np_get
        t[(S.NP, E.GetS_Only)] = self._np_get
        t[(S.V, E.GetS)] = self._v_gets
        t[(S.V, E.GetS_Only)] = self._v_gets_only
        t[(S.V, E.GetM)] = self._v_getm
        t[(S.X, E.GetS)] = self._x_gets
        t[(S.X, E.GetS_Only)] = self._x_gets
        t[(S.X, E.GetM)] = self._x_getm
        t[(S.X, E.PutM)] = self._x_put
        t[(S.X, E.PutE)] = self._x_put
        t[(S.NP, E.PutStale)] = self._put_stale
        t[(S.V, E.PutStale)] = self._put_stale
        t[(S.X, E.PutStale)] = self._put_stale
        t[(S.IV, E.MemData)] = self._iv_mem_data
        t[(S.BUSY, E.UnblockS)] = self._busy_unblock
        t[(S.BUSY, E.UnblockX)] = self._busy_unblock
        t[(S.BUSY, E.CopyBack)] = self._busy_copyback
        t[(S.EV_ACK, E.InvAck)] = self._ev_ack
        t[(S.EV_ACK, E.CopyBack)] = self._ev_ack_copyback
        t[(S.EV_DATA, E.CopyBackInv)] = self._ev_data
        t[(S.V, E.Replacement)] = self._v_repl
        t[(S.X, E.Replacement)] = self._x_repl
        # Reachable only via a misbehaving accelerator behind Transactional
        # XG (Section 3.2.2 tolerance); excluded from baseline coverage.
        self.coverage_exempt.add((S.EV_ACK, E.CopyBack))
        self._build_policy_rows(t, S, E)

    def _build_policy_rows(self, t, S, E):
        """Rows of the shared-block policy, where MESI's table and MESIF's differ.

        MESI sharers leave explicitly with a PutS, so the sharer list is exact.
        """
        t[(S.V, E.PutS)] = self._v_puts

    # -- request handlers ----------------------------------------------------------

    def _np_get(self, msg):
        addr = msg.addr
        tbe = self.tbes.allocate(addr, self.STATE.IV, now=self.sim.tick)
        tbe.requestor = msg.sender
        tbe.meta["needs_slot"] = True
        tbe.meta["op"] = msg.mtype
        self.stats.inc("l2_misses")
        self.sim.schedule(self.memory.latency, self._mem_data_arrived, addr)
        return CONSUMED

    def _mem_data_arrived(self, addr):
        tbe = self.tbes.lookup(addr)
        synthetic = Message(self.EVENT.MemData, addr, sender="memory", dest=self.name)
        synthetic.data = self.memory.read(addr)
        self.fire(tbe.state, self.EVENT.MemData, synthetic)
        self.request_wakeup()

    def _iv_mem_data(self, msg):
        addr = msg.addr
        tbe = self.tbes.lookup(addr)
        entry = self.cache.allocate(addr, self.STATE.V, data=msg.data)
        entry.meta["sharers"] = set()
        entry.meta["owner"] = None
        tbe.meta["needs_slot"] = False
        op = tbe.meta["op"]
        if op is self.MSG.GetM:
            self._send(
                self.MSG.DataM,
                addr,
                tbe.requestor,
                "response",
                data=entry.data.copy(),
                ack_count=0,
            )
        elif op is self.MSG.GetS_Only:
            self._send(self.MSG.DataS, addr, tbe.requestor, "response", data=entry.data.copy())
        else:  # GetS with no sharers: grant E
            self._send(self.MSG.DataE, addr, tbe.requestor, "response", data=entry.data.copy())
        tbe.state = self.STATE.BUSY
        return CONSUMED

    def _v_gets(self, msg):
        addr = msg.addr
        entry = self.cache.lookup(addr)
        tbe = self.tbes.allocate(addr, self.STATE.BUSY, now=self.sim.tick)
        tbe.requestor = msg.sender
        tbe.meta["op"] = msg.mtype
        if not entry.meta["sharers"]:
            if entry.dirty:
                # Dirty-migration grant: hand the dirty block over in M.
                self._send(
                    self.MSG.DataM,
                    addr,
                    msg.sender,
                    "response",
                    data=entry.data.copy(),
                    dirty=True,
                    ack_count=0,
                )
                self.stats.inc("l2_dirty_grants")
            else:
                self._send(
                    self.MSG.DataE, addr, msg.sender, "response", data=entry.data.copy()
                )
        else:
            self._send(self.MSG.DataS, addr, msg.sender, "response", data=entry.data.copy())
        return CONSUMED

    def _v_gets_only(self, msg):
        addr = msg.addr
        entry = self.cache.lookup(addr)
        tbe = self.tbes.allocate(addr, self.STATE.BUSY, now=self.sim.tick)
        tbe.requestor = msg.sender
        tbe.meta["op"] = msg.mtype
        self._send(self.MSG.DataS, addr, msg.sender, "response", data=entry.data.copy())
        return CONSUMED

    def _v_getm(self, msg):
        addr = msg.addr
        entry = self.cache.lookup(addr)
        tbe = self.tbes.allocate(addr, self.STATE.BUSY, now=self.sim.tick)
        tbe.requestor = msg.sender
        tbe.meta["op"] = msg.mtype
        to_invalidate = entry.meta["sharers"] - {msg.sender}
        for sharer in sorted(to_invalidate):
            self._send(self.MSG.Inv, addr, sharer, "forward", requestor=msg.sender)
        self._send(
            self.MSG.DataM,
            addr,
            msg.sender,
            "response",
            data=entry.data.copy(),
            dirty=entry.dirty,
            ack_count=len(to_invalidate),
        )
        self.stats.inc("l2_invalidations", len(to_invalidate))
        return CONSUMED

    def _x_gets(self, msg):
        addr = msg.addr
        entry = self.cache.lookup(addr)
        owner = entry.meta["owner"]
        if owner == msg.sender:
            # Only a misbehaving accelerator behind Transactional XG does
            # this; a correct L1 already holds the block.
            if not self.xg_tolerant:
                raise ProtocolError(
                    self, self.STATE.X, self.EVENT.GetS, msg, note="GetS from owner"
                )
            self.note_protocol_anomaly("GetS from current owner", msg)
            tbe = self.tbes.allocate(addr, self.STATE.BUSY, now=self.sim.tick)
            tbe.requestor = msg.sender
            tbe.meta["op"] = msg.mtype
            self._send(
                self.MSG.DataM,
                addr,
                msg.sender,
                "response",
                data=entry.data.copy(),
                dirty=True,
                ack_count=0,
            )
            return CONSUMED
        tbe = self.tbes.allocate(addr, self.STATE.BUSY, now=self.sim.tick)
        tbe.requestor = msg.sender
        tbe.meta["op"] = msg.mtype
        tbe.meta["need_copyback"] = True
        fwd = self.MSG.Fwd_GetS
        self._send(fwd, addr, owner, "forward", requestor=msg.sender)
        return CONSUMED

    def _x_getm(self, msg):
        addr = msg.addr
        entry = self.cache.lookup(addr)
        owner = entry.meta["owner"]
        if owner == msg.sender:
            if not self.xg_tolerant:
                raise ProtocolError(
                    self, self.STATE.X, self.EVENT.GetM, msg, note="GetM from owner"
                )
            self.note_protocol_anomaly("GetM from current owner", msg)
            tbe = self.tbes.allocate(addr, self.STATE.BUSY, now=self.sim.tick)
            tbe.requestor = msg.sender
            tbe.meta["op"] = msg.mtype
            self._send(
                self.MSG.DataM,
                addr,
                msg.sender,
                "response",
                data=entry.data.copy(),
                dirty=True,
                ack_count=0,
            )
            return CONSUMED
        tbe = self.tbes.allocate(addr, self.STATE.BUSY, now=self.sim.tick)
        tbe.requestor = msg.sender
        tbe.meta["op"] = msg.mtype
        self._send(self.MSG.Fwd_GetM, addr, owner, "forward", requestor=msg.sender)
        return CONSUMED

    # -- writebacks --------------------------------------------------------------------

    def _v_puts(self, msg):
        entry = self.cache.lookup(msg.addr, touch=False)
        entry.meta["sharers"].discard(msg.sender)
        self._send(self.MSG.WBAck, msg.addr, msg.sender, "forward")
        self.stats.inc("l2_puts_accepted")
        return CONSUMED

    def _x_put(self, msg):
        entry = self.cache.lookup(msg.addr, touch=False)
        entry.data = msg.data.copy()
        entry.dirty = msg.mtype is self.MSG.PutM
        entry.meta["owner"] = None
        entry.state = self.STATE.V
        self._send(self.MSG.WBAck, msg.addr, msg.sender, "forward")
        self.stats.inc("l2_writebacks_accepted")
        return CONSUMED

    def _put_stale(self, msg):
        """A Put that raced a forward/invalidate: benign, Nack it."""
        entry = self.cache.lookup(msg.addr, touch=False)
        if entry is not None:
            entry.meta["sharers"].discard(msg.sender)
        self._send(self.MSG.WBNack, msg.addr, msg.sender, "forward")
        self.stats.inc("l2_stale_puts")
        return CONSUMED

    # -- transaction closure ----------------------------------------------------------------

    def _busy_unblock(self, msg):
        tbe = self.tbes.lookup(msg.addr)
        tbe.meta["got_unblock"] = True
        tbe.meta["unblock_exclusive"] = msg.mtype is self.MSG.UnblockX
        self._maybe_close(msg.addr)
        return CONSUMED

    def _busy_copyback(self, msg):
        addr = msg.addr
        tbe = self.tbes.lookup(addr)
        entry = self.cache.lookup(addr, touch=False)
        if not tbe.meta.get("need_copyback"):
            # Buggy accelerator wrote back instead of acking an Inv
            # (Section 3.2.2): ack the requestor on its behalf.
            if not self.xg_tolerant:
                raise ProtocolError(
                    self, self.STATE.BUSY, self.EVENT.CopyBack, msg, note="unexpected copyback"
                )
            self.note_protocol_anomaly("copyback instead of InvAck; acking requestor", msg)
            self._send(self.MSG.InvAck, addr, tbe.requestor, "response")
            return CONSUMED
        entry.data = msg.data.copy()
        entry.dirty = msg.dirty
        entry.meta["sharers"].add(msg.sender)
        entry.meta["owner"] = None
        tbe.meta["got_copyback"] = True
        self._maybe_close(addr)
        return CONSUMED

    def _maybe_close(self, addr):
        tbe = self.tbes.lookup(addr)
        if tbe.meta.get("need_copyback") and not tbe.meta.get("got_copyback"):
            return
        if not tbe.meta.get("got_unblock"):
            return
        entry = self.cache.lookup(addr, touch=False)
        if tbe.meta["unblock_exclusive"]:
            entry.meta["sharers"] = set()
            entry.meta["owner"] = tbe.requestor
            entry.state = self.STATE.X
            entry.dirty = False
        else:
            entry.meta["sharers"].add(tbe.requestor)
            if entry.meta["owner"] is None:
                entry.state = self.STATE.V
        self.tbes.deallocate(addr)
        self.wake_stalled(addr)

    # -- inclusive evictions --------------------------------------------------------------------

    def _v_repl(self, msg):
        addr = msg.addr
        entry = self.cache.lookup(addr, touch=False)
        sharers = entry.meta["sharers"]
        if not sharers:
            if entry.dirty:
                self.memory.write(addr, entry.data)
            self.cache.deallocate(addr)
            self.stats.inc("l2_evictions")
            return CONSUMED
        tbe = self.tbes.allocate(addr, self.STATE.EV_ACK, now=self.sim.tick)
        tbe.acks_needed = len(sharers)
        for sharer in sorted(sharers):
            self._send(self.MSG.Inv, addr, sharer, "forward", requestor=self.name)
        self.stats.inc("l2_recall_invs", len(sharers))
        return CONSUMED

    def _x_repl(self, msg):
        addr = msg.addr
        entry = self.cache.lookup(addr, touch=False)
        self.tbes.allocate(addr, self.STATE.EV_DATA, now=self.sim.tick)
        self._send(self.MSG.Recall, addr, entry.meta["owner"], "forward")
        self.stats.inc("l2_recalls")
        return CONSUMED

    def _ev_ack(self, msg):
        addr = msg.addr
        tbe = self.tbes.lookup(addr)
        tbe.acks_received += 1
        if tbe.acks_received < tbe.acks_needed:
            return CONSUMED
        entry = self.cache.lookup(addr, touch=False)
        if entry.dirty:
            self.memory.write(addr, entry.data)
        self.cache.deallocate(addr)
        self.tbes.deallocate(addr)
        self.stats.inc("l2_evictions")
        self.wake_stalled(addr)
        return CONSUMED

    def _ev_ack_copyback(self, msg):
        """Ack/Data equivalence on eviction Invs (Section 3.2.2 tolerance).

        A buggy accelerator answered an eviction Inv with data; count it
        as the ack and ignore the untrusted payload.
        """
        if not self.xg_tolerant:
            raise ProtocolError(
                self, self.STATE.EV_ACK, self.EVENT.CopyBack, msg, note="data on eviction Inv"
            )
        self.note_protocol_anomaly("copyback counted as eviction InvAck", msg)
        return self._ev_ack(msg)

    def _ev_data(self, msg):
        addr = msg.addr
        entry = self.cache.lookup(addr, touch=False)
        if msg.dirty:
            self.memory.write(addr, msg.data)
        elif entry.dirty:
            self.memory.write(addr, entry.data)
        self.cache.deallocate(addr)
        self.tbes.deallocate(addr)
        self.stats.inc("l2_evictions")
        self.wake_stalled(addr)
        return CONSUMED
