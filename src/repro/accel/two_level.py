"""Two-level accelerator cache hierarchy (paper Section 2.1).

Private per-core L1s share an inclusive accelerator L2; blocks migrate
between L1s through the L2 *without* involving Crossing Guard or the host
directory (the paper's stated benefit). The L2 exports the very same
Crossing Guard interface downward to its L1s, so the L1 is literally the
Table 1 cache (:class:`repro.accel.l1_single.AccelL1`) pointed at the L2
instead of at XG — the interface composes.

Design points:

* all invalidation-ack collection happens at the L2, keeping L1s at one
  transient state;
* the L2's upward face follows Table 1's rules too: Invalidate during a
  block's busy state is answered with InvAck, and the Put/Invalidate race
  is resolved by the (ordered) network exactly as at XG.
"""

import enum

from repro.coherence.controller import CONSUMED, RETRY, STALL, ProtocolError
from repro.coherence.tbe import TBETable
from repro.coherence.controller import CoherenceController
from repro.memory.cache_array import CacheArray
from repro.memory.datablock import block_align
from repro.sim.idenum import IdEnum
from repro.sim.message import Message
from repro.xg.interface import AccelMsg

from repro.accel.l1_single import AccelL1

#: The two-level L1 is exactly the single-level design re-pointed at the
#: shared accelerator L2.
AccelL1Two = AccelL1


class AL2State(IdEnum):
    NP = enum.auto()  # not present
    S = enum.auto()  # shared-clean from XG; L1s may hold S
    O = enum.auto()  # exclusive from XG (DataE/DataM); an L1 may own it
    B_FETCH = enum.auto()  # Get outstanding toward XG
    B_LOCAL = enum.auto()  # collecting local L1 invalidations
    B_PUT = enum.auto()  # Put outstanding toward XG
    B_EVICT = enum.auto()  # inclusive eviction: collecting local copies


class AL2Event(IdEnum):
    GetS = enum.auto()
    GetM = enum.auto()
    PutS = enum.auto()
    PutE = enum.auto()
    PutM = enum.auto()
    InvAck = enum.auto()
    CleanWB = enum.auto()
    DirtyWB = enum.auto()
    DataS = enum.auto()
    DataE = enum.auto()
    DataM = enum.auto()
    WBAck = enum.auto()
    Invalidate = enum.auto()
    Replacement = enum.auto()


_L1_REQ = {
    AccelMsg.GetS: AL2Event.GetS,
    AccelMsg.GetM: AL2Event.GetM,
    AccelMsg.PutS: AL2Event.PutS,
    AccelMsg.PutE: AL2Event.PutE,
    AccelMsg.PutM: AL2Event.PutM,
}
_L1_RESP = {
    AccelMsg.InvAck: AL2Event.InvAck,
    AccelMsg.CleanWB: AL2Event.CleanWB,
    AccelMsg.DirtyWB: AL2Event.DirtyWB,
}
_XG_MSGS = {
    AccelMsg.DataS: AL2Event.DataS,
    AccelMsg.DataE: AL2Event.DataE,
    AccelMsg.DataM: AL2Event.DataM,
    AccelMsg.WBAck: AL2Event.WBAck,
    AccelMsg.Invalidate: AL2Event.Invalidate,
}


class AccelL2Shared(CoherenceController):
    """Shared inclusive accelerator L2 speaking the XG interface upward."""

    CONTROLLER_TYPE = "accel_l2"
    PORTS = ("fromxg", "accel_response", "accel_request")

    def __init__(
        self,
        sim,
        name,
        l1_net,
        xg_net,
        xg_name,
        num_sets=128,
        assoc=8,
        block_size=64,
    ):
        self.l1_net = l1_net
        self.xg_net = xg_net
        self.xg_name = xg_name
        self.block_size = block_size
        self.cache = CacheArray(num_sets, assoc, block_size=block_size, name=name)
        self.tbes = TBETable(name=name)
        super().__init__(sim, name)

    # -- helpers -----------------------------------------------------------------

    def align(self, addr):
        return block_align(addr, self.block_size)

    def stall_key(self, msg):
        return self.align(msg.addr)

    def _to_l1(self, mtype, addr, dest, **kw):
        msg = Message(mtype, addr, sender=self.name, dest=dest, **kw)
        self.l1_net.send(msg, "fromxg")
        return msg

    def _to_xg(self, mtype, addr, port, **kw):
        msg = Message(mtype, addr, sender=self.name, dest=self.xg_name, **kw)
        self.xg_net.send(msg, port)
        return msg

    def _state(self, addr):
        tbe = self.tbes.lookup(addr)
        if tbe is not None:
            return tbe.state
        entry = self.cache.lookup(addr, touch=False)
        return entry.state if entry is not None else AL2State.NP

    # -- dispatch --------------------------------------------------------------------

    def handle_message(self, port, msg):
        addr = self.align(msg.addr)
        state = self._state(addr)
        # Monomorphic fast path: grants/probes from XG dominate, and
        # "fromxg" is also the highest-priority port — check it first.
        if port == "fromxg":
            try:
                event = _XG_MSGS[msg.mtype]
            except KeyError:
                # Administrative traffic outside Table 1 (e.g. a Nack to a
                # quarantined endpoint): ignore rather than wedge the L2.
                self.stats.inc("unexpected_from_xg")
                return CONSUMED
            return self.fire(state, event, msg)
        if port == "accel_response":
            try:
                event = _L1_RESP[msg.mtype]
            except KeyError:
                self.stats.inc("unexpected_from_l1")
                return CONSUMED
            return self.fire(state, event, msg)
        if port == "accel_request":
            try:
                event = _L1_REQ[msg.mtype]
            except KeyError:
                self.stats.inc("unexpected_from_l1")
                return CONSUMED
            if state in (AL2State.B_FETCH, AL2State.B_LOCAL, AL2State.B_PUT, AL2State.B_EVICT):
                tbe = self.tbes.lookup(addr)
                if (
                    msg.mtype in (AccelMsg.PutS, AccelMsg.PutE, AccelMsg.PutM)
                    and tbe.meta.get("awaiting_l1") == msg.sender
                ):
                    # The L1's Put crossed our Invalidate: use it as the
                    # response and absorb the InvAck that follows.
                    return self._l1_put_race(msg, addr, tbe)
                return STALL
            if state is AL2State.NP and msg.mtype in (AccelMsg.GetS, AccelMsg.GetM):
                if self.cache.fill_room(addr, self.tbes) <= 0:
                    victim = self.cache.stable_victim(addr, self.tbes)
                    if victim is not None:
                        synthetic = Message(
                            AL2Event.Replacement, victim.addr, sender=self.name, dest=self.name
                        )
                        self.fire(victim.state, AL2Event.Replacement, synthetic)
                    if self.cache.fill_room(addr, self.tbes) <= 0:
                        return RETRY
            return self.fire(self._state(addr), event, msg)
        raise AssertionError(f"unknown port {port}")

    # -- transition table ----------------------------------------------------------------

    def _build_transitions(self):
        t = self.transitions
        S, E = AL2State, AL2Event
        t[(S.NP, E.GetS)] = self._np_get
        t[(S.NP, E.GetM)] = self._np_get
        t[(S.S, E.GetS)] = self._s_gets
        t[(S.O, E.GetS)] = self._o_gets
        t[(S.S, E.GetM)] = self._s_getm
        t[(S.O, E.GetM)] = self._o_getm
        for st in (S.S, S.O):
            t[(st, E.PutS)] = self._l1_puts
            t[(st, E.PutE)] = self._l1_putx
            t[(st, E.PutM)] = self._l1_putx
        t[(S.NP, E.PutS)] = self._l1_put_stale
        t[(S.NP, E.PutE)] = self._l1_put_stale
        t[(S.NP, E.PutM)] = self._l1_put_stale
        t[(S.B_FETCH, E.DataS)] = self._fetch_data
        t[(S.B_FETCH, E.DataE)] = self._fetch_data
        t[(S.B_FETCH, E.DataM)] = self._fetch_data
        t[(S.B_LOCAL, E.InvAck)] = self._local_ack
        t[(S.B_LOCAL, E.CleanWB)] = self._local_wb
        t[(S.B_LOCAL, E.DirtyWB)] = self._local_wb
        t[(S.B_EVICT, E.InvAck)] = self._local_ack
        t[(S.B_EVICT, E.CleanWB)] = self._local_wb
        t[(S.B_EVICT, E.DirtyWB)] = self._local_wb
        t[(S.B_PUT, E.WBAck)] = self._put_done
        t[(S.S, E.Invalidate)] = self._xg_inv
        t[(S.O, E.Invalidate)] = self._xg_inv
        t[(S.NP, E.Invalidate)] = self._xg_inv_np
        t[(S.B_PUT, E.Invalidate)] = self._busy_inv
        t[(S.B_FETCH, E.Invalidate)] = self._busy_inv
        t[(S.B_LOCAL, E.Invalidate)] = self._busy_inv_stall
        t[(S.B_EVICT, E.Invalidate)] = self._busy_inv_stall
        t[(S.S, E.Replacement)] = self._repl
        t[(S.O, E.Replacement)] = self._repl
        # Stall rows never execute as transitions (stalls are dispatch
        # behavior), and stale-Put rows are only reachable with buggy L1s;
        # exclude both from the coverage denominator.
        # (NP, PutS) stays in the denominator: a sharer's PutS can race an
        # inclusive eviction and legitimately arrive after the block left.
        self.coverage_exempt |= {
            (S.B_LOCAL, E.Invalidate),
            (S.B_EVICT, E.Invalidate),
            (S.NP, E.PutE),
            (S.NP, E.PutM),
            (S.S, E.PutE),
            (S.S, E.PutM),
        }

    # -- L1 Gets ---------------------------------------------------------------------------

    def _np_get(self, msg):
        addr = msg.addr
        tbe = self.tbes.allocate(addr, AL2State.B_FETCH, now=self.sim.tick)
        tbe.requestor = msg.sender
        tbe.meta["needs_slot"] = True
        tbe.meta["op"] = msg.mtype
        self._to_xg(
            AccelMsg.GetM if msg.mtype is AccelMsg.GetM else AccelMsg.GetS,
            addr,
            "accel_request",
        )
        self.stats.inc("al2_misses")
        return CONSUMED

    def _fetch_data(self, msg):
        addr = msg.addr
        tbe = self.tbes.lookup(addr)
        granted_excl = msg.mtype in (AccelMsg.DataE, AccelMsg.DataM)
        entry = self.cache.allocate(
            addr,
            AL2State.O if granted_excl else AL2State.S,
            data=msg.data.copy(),
            dirty=msg.mtype is AccelMsg.DataM,
        )
        entry.meta["sharers"] = set()
        entry.meta["l1_owner"] = None
        tbe.meta["needs_slot"] = False
        self._grant(entry, tbe.requestor, tbe.meta["op"])
        self.tbes.deallocate(addr)
        self.wake_stalled(addr)
        return CONSUMED

    def _grant(self, entry, requestor, op):
        """Give ``requestor`` its data per our rights and current sharers."""
        addr = entry.addr
        if op is AccelMsg.GetM:
            entry.meta["l1_owner"] = requestor
            entry.meta["sharers"] = set()
            self._to_l1(AccelMsg.DataM, addr, requestor, data=entry.data.copy(), dirty=True)
            entry.dirty = True
        elif (
            entry.state is AL2State.O
            and not entry.meta["sharers"]
            and entry.meta["l1_owner"] is None
        ):
            entry.meta["l1_owner"] = requestor
            if entry.dirty:
                self._to_l1(
                    AccelMsg.DataM, addr, requestor, data=entry.data.copy(), dirty=True
                )
            else:
                self._to_l1(AccelMsg.DataE, addr, requestor, data=entry.data.copy())
        else:
            entry.meta["sharers"].add(requestor)
            self._to_l1(AccelMsg.DataS, addr, requestor, data=entry.data.copy())

    def _s_gets(self, msg):
        entry = self.cache.lookup(msg.addr)
        if entry.meta["l1_owner"] is not None:
            return self._recall_then(msg, entry)
        self._grant(entry, msg.sender, AccelMsg.GetS)
        self.stats.inc("al2_local_hits")
        return CONSUMED

    def _o_gets(self, msg):
        return self._s_gets(msg)

    def _s_getm(self, msg):
        """GetM on a block we only hold shared: upgrade through XG."""
        addr = msg.addr
        entry = self.cache.lookup(addr)
        tbe = self.tbes.allocate(addr, AL2State.B_LOCAL, now=self.sim.tick)
        tbe.requestor = msg.sender
        tbe.meta["op"] = AccelMsg.GetM
        tbe.meta["then_upgrade"] = True
        self._start_local_invalidate(entry, tbe, exclude=msg.sender)
        if tbe.acks_needed == 0:
            self._local_done(addr, tbe)
        return CONSUMED

    def _o_getm(self, msg):
        addr = msg.addr
        entry = self.cache.lookup(addr)
        tbe = self.tbes.allocate(addr, AL2State.B_LOCAL, now=self.sim.tick)
        tbe.requestor = msg.sender
        tbe.meta["op"] = AccelMsg.GetM
        self._start_local_invalidate(entry, tbe, exclude=msg.sender)
        if tbe.acks_needed == 0:
            self._local_done(addr, tbe)
        return CONSUMED

    def _recall_then(self, msg, entry):
        """An L1 owns the block; recall it before serving the request."""
        addr = entry.addr
        tbe = self.tbes.allocate(addr, AL2State.B_LOCAL, now=self.sim.tick)
        tbe.requestor = msg.sender
        tbe.meta["op"] = msg.mtype
        self._start_local_invalidate(entry, tbe, exclude=msg.sender)
        if tbe.acks_needed == 0:
            self._local_done(addr, tbe)
        return CONSUMED

    def _start_local_invalidate(self, entry, tbe, exclude=None):
        addr = entry.addr
        targets = set(entry.meta["sharers"])
        owner = entry.meta["l1_owner"]
        if owner is not None:
            targets.add(owner)
        if exclude is not None:
            targets.discard(exclude)
        tbe.acks_needed = len(targets)
        tbe.acks_received = 0
        for l1 in sorted(targets):
            self._to_l1(AccelMsg.Invalidate, addr, l1)
        tbe.meta["awaiting_l1"] = owner if owner is not None and owner != exclude else None
        entry.meta["sharers"] -= targets
        if owner is not None and owner != exclude:
            entry.meta["l1_owner"] = None

    def _local_ack(self, msg):
        addr = msg.addr
        tbe = self.tbes.lookup(addr)
        tbe.acks_received += 1
        if tbe.acks_received >= tbe.acks_needed:
            self._local_done(addr, tbe)
        return CONSUMED

    def _local_wb(self, msg):
        addr = msg.addr
        tbe = self.tbes.lookup(addr)
        entry = self.cache.lookup(addr, touch=False)
        entry.data = msg.data.copy()
        if msg.mtype is AccelMsg.DirtyWB:
            entry.dirty = True
        tbe.acks_received += 1
        if tbe.acks_received >= tbe.acks_needed:
            self._local_done(addr, tbe)
        return CONSUMED

    def _l1_put_race(self, msg, addr, tbe):
        """An owner's Put crossed our Invalidate (ordered net semantics).

        Consume the Put as the data; the L1 is now in B and will still
        answer the Invalidate with an InvAck, which is what we count.
        """
        entry = self.cache.lookup(addr, touch=False)
        if entry is not None and msg.data is not None:
            entry.data = msg.data.copy()
            if msg.mtype is AccelMsg.PutM:
                entry.dirty = True
        self._to_l1(AccelMsg.WBAck, addr, msg.sender)
        tbe.meta["awaiting_l1"] = None
        self.stats.inc("al2_put_inv_races")
        return CONSUMED

    def _local_done(self, addr, tbe):
        """All local copies collected; continue the waiting operation."""
        entry = self.cache.lookup(addr, touch=False)
        if tbe.meta.get("xg_inv"):
            self._respond_to_xg_invalidate(addr, entry)
            self.tbes.deallocate(addr)
            self.wake_stalled(addr)
            return
        if tbe.meta.get("evicting"):
            self._issue_put_up(addr, entry, tbe)
            return
        if tbe.meta.get("then_upgrade") and entry.state is AL2State.S:
            tbe.state = AL2State.B_FETCH
            tbe.meta["op"] = AccelMsg.GetM
            self._to_xg(AccelMsg.GetM, addr, "accel_request")
            self.cache.deallocate(addr)
            tbe.meta["needs_slot"] = True
            # A stalled XG Invalidate must get its InvAck now (B_FETCH
            # answers immediately) or XG and the L2 deadlock on each other.
            self.wake_stalled(addr)
            return
        self._grant(entry, tbe.requestor, tbe.meta["op"])
        self.tbes.deallocate(addr)
        self.wake_stalled(addr)

    # -- L1 Puts ------------------------------------------------------------------------------

    def _l1_puts(self, msg):
        entry = self.cache.lookup(msg.addr, touch=False)
        entry.meta["sharers"].discard(msg.sender)
        self._to_l1(AccelMsg.WBAck, msg.addr, msg.sender)
        return CONSUMED

    def _l1_putx(self, msg):
        entry = self.cache.lookup(msg.addr, touch=False)
        if entry.meta["l1_owner"] == msg.sender:
            entry.data = msg.data.copy()
            if msg.mtype is AccelMsg.PutM:
                entry.dirty = True
            entry.meta["l1_owner"] = None
        self._to_l1(AccelMsg.WBAck, msg.addr, msg.sender)
        return CONSUMED

    def _l1_put_stale(self, msg):
        # Inclusive L2 lost the block already (should not happen for
        # correct L1s); ack so the L1 does not hang.
        self._to_l1(AccelMsg.WBAck, msg.addr, msg.sender)
        self.stats.inc("al2_stale_puts")
        return CONSUMED

    # -- XG-side events -----------------------------------------------------------------------------

    def _xg_inv(self, msg):
        addr = msg.addr
        entry = self.cache.lookup(addr, touch=False)
        tbe = self.tbes.allocate(addr, AL2State.B_LOCAL, now=self.sim.tick)
        tbe.meta["xg_inv"] = True
        self._start_local_invalidate(entry, tbe)
        if tbe.acks_needed == 0:
            self._local_done(addr, tbe)
        return CONSUMED

    def _xg_inv_np(self, msg):
        self._to_xg(AccelMsg.InvAck, msg.addr, "accel_response")
        return CONSUMED

    def _busy_inv(self, msg):
        # Our Put is outstanding: Table 1 semantics — InvAck and no
        # further action; XG resolves the race from the Put itself.
        self._to_xg(AccelMsg.InvAck, msg.addr, "accel_response")
        return CONSUMED

    def _busy_inv_stall(self, msg):
        return STALL

    def _respond_to_xg_invalidate(self, addr, entry):
        if entry is None:
            self._to_xg(AccelMsg.InvAck, addr, "accel_response")
            return
        if entry.state is AL2State.O:
            if entry.dirty:
                self._to_xg(
                    AccelMsg.DirtyWB, addr, "accel_response",
                    data=entry.data.copy(), dirty=True,
                )
            else:
                self._to_xg(
                    AccelMsg.CleanWB, addr, "accel_response", data=entry.data.copy()
                )
        else:
            self._to_xg(AccelMsg.InvAck, addr, "accel_response")
        self.cache.deallocate(addr)

    # -- inclusive eviction --------------------------------------------------------------------------

    def _repl(self, msg):
        addr = msg.addr
        entry = self.cache.lookup(addr, touch=False)
        tbe = self.tbes.allocate(addr, AL2State.B_EVICT, now=self.sim.tick)
        tbe.meta["evicting"] = True
        self._start_local_invalidate(entry, tbe)
        if tbe.acks_needed == 0:
            self._issue_put_up(addr, entry, tbe)
        return CONSUMED

    def _issue_put_up(self, addr, entry, tbe):
        tbe.state = AL2State.B_PUT
        if entry.state is AL2State.O:
            if entry.dirty:
                self._to_xg(
                    AccelMsg.PutM, addr, "accel_request", data=entry.data.copy(), dirty=True
                )
            else:
                self._to_xg(AccelMsg.PutE, addr, "accel_request", data=entry.data.copy())
        else:
            self._to_xg(AccelMsg.PutS, addr, "accel_request")
        self.cache.deallocate(addr)

    def _put_done(self, msg):
        addr = msg.addr
        self.tbes.deallocate(addr)
        self.wake_stalled(addr)
        return CONSUMED
