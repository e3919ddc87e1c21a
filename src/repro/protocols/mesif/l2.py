"""MESIF shared inclusive L2: the MESI L2 plus the F-state policy.

:class:`~repro.protocols.mesi.l2.MesiL2` supplies the blocking directory,
the inclusive evictions and every shared row; this class holds only the
deltas:

* per-block ``f_holder``: the sharer designated to forward clean data;
  a GetS is sent to it (``Fwd_GetS_F``) and the requestor inherits F.
  ``UnblockF`` sets the designation and ``UnblockX`` clears it;
* the sharer list is *conservative*: S/F evict silently, so Inv fan-outs
  may hit caches that no longer hold the block (they ack anyway), a
  forward may bounce (``FNack``, and the L2 serves the data), and a
  stale Put leaves its sender listed;
* there is no PutS at all.
"""

import enum

from repro.coherence.controller import CONSUMED
from repro.protocols.mesi.l2 import MesiL2
from repro.protocols.mesif.messages import MesifMsg
from repro.sim.idenum import IdEnum


class FL2State(IdEnum):
    NP = enum.auto()
    V = enum.auto()
    X = enum.auto()
    IV = enum.auto()
    BUSY = enum.auto()
    EV_ACK = enum.auto()
    EV_DATA = enum.auto()


class FL2Event(IdEnum):
    GetS = enum.auto()
    GetM = enum.auto()
    GetS_Only = enum.auto()
    PutE = enum.auto()
    PutM = enum.auto()
    PutStale = enum.auto()
    MemData = enum.auto()
    UnblockS = enum.auto()
    UnblockF = enum.auto()
    UnblockX = enum.auto()
    CopyBack = enum.auto()
    CopyBackInv = enum.auto()
    InvAck = enum.auto()
    FNack = enum.auto()
    Replacement = enum.auto()


class MesifL2(MesiL2):
    """Shared inclusive L2 / directory for the MESIF protocol.

    Where a delta sits inside a MESI handler (``_v_gets``,
    ``_maybe_close``), the whole handler is overridden instead of adding
    a hook to it, so the MESI path makes no extra call per message.
    """

    CONTROLLER_TYPE = "mesif_l2"

    STATE = FL2State
    EVENT = FL2Event
    MSG = MesifMsg
    GET_EVENTS = {
        MesifMsg.GetS: FL2Event.GetS,
        MesifMsg.GetM: FL2Event.GetM,
        MesifMsg.GetS_Only: FL2Event.GetS_Only,
    }
    PUT_TYPES = frozenset({MesifMsg.PutE, MesifMsg.PutM})
    RESPONSE_EVENTS = {
        MesifMsg.UnblockS: FL2Event.UnblockS,
        MesifMsg.UnblockF: FL2Event.UnblockF,
        MesifMsg.UnblockX: FL2Event.UnblockX,
        MesifMsg.CopyBack: FL2Event.CopyBack,
        MesifMsg.CopyBackInv: FL2Event.CopyBackInv,
        MesifMsg.InvAck: FL2Event.InvAck,
        MesifMsg.FNack: FL2Event.FNack,
    }
    TRANSIENT = (FL2State.IV, FL2State.BUSY, FL2State.EV_ACK, FL2State.EV_DATA)

    def _build_policy_rows(self, t, S, E):
        """No PutS; the F designation moves with UnblockF, and a declined
        forward (FNack) falls back to the L2's copy."""
        t[(S.BUSY, E.UnblockF)] = self._busy_unblock
        t[(S.BUSY, E.FNack)] = self._busy_fnack

    def _classify_put(self, msg, state):
        """Only the exclusive owner's PutE/PutM is current."""
        entry = self.cache.lookup(msg.addr, touch=False)
        if state is FL2State.X and entry.meta["owner"] == msg.sender:
            return FL2Event.PutM if msg.mtype is MesifMsg.PutM else FL2Event.PutE
        return FL2Event.PutStale

    # -- the F designation -------------------------------------------------------------

    def _iv_mem_data(self, msg):
        """A block fetched from memory starts with no F holder."""
        outcome = super()._iv_mem_data(msg)
        self.cache.lookup(msg.addr, touch=False).meta["f_holder"] = None
        return outcome

    def _v_gets(self, msg):
        """A GetS on a shared block goes to the F holder, or is answered
        with DataF when there is none (or the requestor is it)."""
        addr = msg.addr
        entry = self.cache.lookup(addr, touch=False)
        if not entry.meta["sharers"]:
            return super()._v_gets(msg)  # E or dirty-M grant, as in MESI
        self.cache.lookup(addr)  # touch LRU, as the MESI handler does
        tbe = self.tbes.allocate(addr, FL2State.BUSY, now=self.sim.tick)
        tbe.requestor = msg.sender
        tbe.meta["op"] = msg.mtype
        f_holder = entry.meta["f_holder"]
        if f_holder is not None and f_holder != msg.sender:
            # cache-to-cache transfer from the designated responder
            self._send(MesifMsg.Fwd_GetS_F, addr, f_holder, "forward", requestor=msg.sender)
            self.stats.inc("f_forwards")
        else:
            self._send(MesifMsg.DataF, addr, msg.sender, "response", data=entry.data.copy())
        return CONSUMED

    def _put_stale(self, msg):
        """Nack a Put that raced a forward; the conservative sharer list
        keeps its sender."""
        self._send(MesifMsg.WBNack, msg.addr, msg.sender, "forward")
        self.stats.inc("l2_stale_puts")
        return CONSUMED

    def _busy_unblock(self, msg):
        """Record which of the three Unblocks arrived; closure reads it."""
        tbe = self.tbes.lookup(msg.addr)
        tbe.meta["got_unblock"] = True
        tbe.meta["unblock_kind"] = msg.mtype
        self._maybe_close(msg.addr)
        return CONSUMED

    def _busy_fnack(self, msg):
        """The designated responder declined (silent eviction, or a
        Crossing Guard that cannot serve F): serve the requestor from the
        inclusive copy. The decliner must REMAIN a sharer — an XG's
        accelerator may still hold the block in S even though it cannot
        forward it, so only the designation is cleared.
        """
        addr = msg.addr
        tbe = self.tbes.lookup(addr)
        entry = self.cache.lookup(addr, touch=False)
        if entry.meta["f_holder"] == msg.sender:
            entry.meta["f_holder"] = None
        self._send(MesifMsg.DataF, addr, tbe.requestor, "response", data=entry.data.copy())
        self.stats.inc("fnack_fallbacks")
        return CONSUMED

    def _maybe_close(self, addr):
        """MESI's closure, keyed on which of the three Unblocks arrived."""
        tbe = self.tbes.lookup(addr)
        if tbe.meta.get("need_copyback") and not tbe.meta.get("got_copyback"):
            return
        if not tbe.meta.get("got_unblock"):
            return
        entry = self.cache.lookup(addr, touch=False)
        kind = tbe.meta["unblock_kind"]
        if kind is MesifMsg.UnblockX:
            entry.meta["sharers"] = set()
            entry.meta["owner"] = tbe.requestor
            entry.meta["f_holder"] = None
            entry.state = FL2State.X
            entry.dirty = False
        else:
            entry.meta["sharers"].add(tbe.requestor)
            if kind is MesifMsg.UnblockF:
                entry.meta["f_holder"] = tbe.requestor
            if entry.meta["owner"] is None:
                entry.state = FL2State.V
        self.tbes.deallocate(addr)
        self.wake_stalled(addr)
