"""Hammer-like combined L1/L2 cache controller (one per core).

Every directory broadcast probes *every* other cache, so every state —
stable or transient — must answer ``Fwd_GetS``/``Fwd_GetM``/
``Fwd_GetS_Only``. A requestor counts exactly ``n_peers`` probe responses
plus the directory's memory response; this ack-counting burden is the
complexity Crossing Guard lifts off accelerator caches.

Data-grant rules:
* ``Fwd_GetS`` at an M owner → stays owner in O, ships dirty shared data;
* ``Fwd_GetS`` at an E owner → exclusive-clean transfer (requestor gets
  E; this is how a GetS can return DataE through Crossing Guard);
* ``Fwd_GetS_Only`` suppresses the exclusive transfer (E owner downgrades
  to S) — the request type added for Transactional XG's Guarantee 0b;
* ``Fwd_GetM`` at M/O/E → ship data, invalidate.

``xg_tolerant`` enables the Section 3.2.1 host modifications: count
responses instead of strictly typed acks (tolerating zero or multiple
data responses) and sink unexpected WBNacks.
"""

import enum

from repro.coherence.controller import CONSUMED, RETRY, STALL, ProtocolError
from repro.protocols.common import CacheControllerBase, CpuOp
from repro.protocols.hammer.messages import HammerMsg
from repro.sim.idenum import IdEnum
from repro.sim.message import Message


class HCState(IdEnum):
    I = enum.auto()
    S = enum.auto()
    E = enum.auto()
    M = enum.auto()
    O = enum.auto()
    IS_AD = enum.auto()  # GetS outstanding, counting responses
    IM_AD = enum.auto()  # GetM outstanding
    SM_AD = enum.auto()  # upgrade outstanding (still holds S data)
    OM_A = enum.auto()  # owner upgrading: own data authoritative
    MI_A = enum.auto()  # PutM sent (dirty), waiting WBAck
    OI_A = enum.auto()  # PutM sent from O
    EI_A = enum.auto()  # PutE sent (clean)
    II_A = enum.auto()  # lost ownership mid-writeback, waiting WBNack


class HCEvent(IdEnum):
    Load = enum.auto()
    Store = enum.auto()
    Replacement = enum.auto()
    Fwd_GetS = enum.auto()
    Fwd_GetM = enum.auto()
    Fwd_GetS_Only = enum.auto()
    PeerAck = enum.auto()
    PeerData = enum.auto()
    PeerDataExcl = enum.auto()
    MemData = enum.auto()
    WBAck = enum.auto()
    WBNack = enum.auto()


_PROBE_EVENTS = {
    HammerMsg.Fwd_GetS: HCEvent.Fwd_GetS,
    HammerMsg.Fwd_GetM: HCEvent.Fwd_GetM,
    HammerMsg.Fwd_GetS_Only: HCEvent.Fwd_GetS_Only,
    HammerMsg.WBAck: HCEvent.WBAck,
    HammerMsg.WBNack: HCEvent.WBNack,
}
_RESPONSE_EVENTS = {
    HammerMsg.PeerAck: HCEvent.PeerAck,
    HammerMsg.PeerData: HCEvent.PeerData,
    HammerMsg.PeerDataExcl: HCEvent.PeerDataExcl,
    HammerMsg.MemData: HCEvent.MemData,
}
_TRANSIENT = {
    HCState.IS_AD,
    HCState.IM_AD,
    HCState.SM_AD,
    HCState.OM_A,
    HCState.MI_A,
    HCState.OI_A,
    HCState.EI_A,
    HCState.II_A,
}
_COLLECTING = {HCState.IS_AD, HCState.IM_AD, HCState.SM_AD, HCState.OM_A}


class HammerCache(CacheControllerBase):
    """Per-core MOESI cache for the Hammer-like protocol."""

    CONTROLLER_TYPE = "hammer_cache"
    PORTS = ("response", "forward", "mandatory")
    INVALID_STATE = HCState.I

    def __init__(
        self,
        sim,
        name,
        net,
        dir_name,
        n_peers,
        num_sets=64,
        assoc=4,
        block_size=64,
        xg_tolerant=False,
    ):
        self.net = net
        self.dir_name = dir_name
        self.n_peers = n_peers
        self.xg_tolerant = xg_tolerant
        super().__init__(sim, name, num_sets=num_sets, assoc=assoc, block_size=block_size)

    # -- helpers ---------------------------------------------------------------

    def _send(self, mtype, addr, dest, port, **kw):
        msg = Message(mtype, addr, sender=self.name, dest=dest, **kw)
        self.net.send(msg, port)
        return msg

    def _to_dir(self, mtype, addr, port="request", **kw):
        return self._send(mtype, addr, self.dir_name, port, **kw)

    # -- dispatch ------------------------------------------------------------------

    def handle_message(self, port, msg):
        # Monomorphic fast path: data/ack responses dominate steady-state
        # traffic, so resolve them on the first compare.
        if port == "response":
            return self.fire(
                self.block_state(msg.addr), _RESPONSE_EVENTS[msg.mtype], msg
            )
        if port == "forward":
            return self.fire(self.block_state(msg.addr), _PROBE_EVENTS[msg.mtype], msg)
        return self._handle_mandatory(msg)

    def _handle_mandatory(self, msg):
        addr = self.align(msg.addr)
        state = self.block_state(addr)
        event = HCEvent.Load if msg.mtype is CpuOp.Load else HCEvent.Store
        if state in _TRANSIENT:
            return STALL
        if state is HCState.I and self.cache.fill_room(addr, self.tbes) <= 0:
            victim = self.cache.stable_victim(addr, self.tbes)
            if victim is not None:
                synthetic = Message(event, victim.addr, sender=self.name, dest=self.name)
                self.fire(victim.state, HCEvent.Replacement, synthetic)
                if self.cache.fill_room(addr, self.tbes) > 0:
                    return self.fire(state, event, msg)
            return RETRY
        return self.fire(state, event, msg)

    # -- transition table -----------------------------------------------------------

    def _build_transitions(self):
        t = self.transitions
        S, E = HCState, HCEvent
        # CPU ops
        t[(S.I, E.Load)] = self._i_load
        t[(S.I, E.Store)] = self._i_store
        for hit_state in (S.S, S.E, S.M, S.O):
            t[(hit_state, E.Load)] = self._hit_load
        t[(S.M, E.Store)] = self._m_store
        t[(S.E, E.Store)] = self._e_store
        t[(S.S, E.Store)] = self._s_store
        t[(S.O, E.Store)] = self._o_store
        # replacements
        t[(S.S, E.Replacement)] = self._s_repl
        t[(S.E, E.Replacement)] = self._e_repl
        t[(S.M, E.Replacement)] = self._m_repl
        t[(S.O, E.Replacement)] = self._o_repl
        # probes on stable states
        t[(S.I, E.Fwd_GetS)] = self._ack_probe
        t[(S.I, E.Fwd_GetM)] = self._ack_probe
        t[(S.I, E.Fwd_GetS_Only)] = self._ack_probe
        t[(S.S, E.Fwd_GetS)] = self._shared_ack
        t[(S.S, E.Fwd_GetS_Only)] = self._shared_ack
        t[(S.S, E.Fwd_GetM)] = self._s_fwd_getm
        t[(S.E, E.Fwd_GetS)] = self._e_fwd_gets
        t[(S.E, E.Fwd_GetS_Only)] = self._e_fwd_gets_only
        t[(S.E, E.Fwd_GetM)] = self._owner_fwd_getm
        t[(S.M, E.Fwd_GetS)] = self._m_fwd_gets
        t[(S.M, E.Fwd_GetS_Only)] = self._m_fwd_gets
        t[(S.M, E.Fwd_GetM)] = self._owner_fwd_getm
        t[(S.O, E.Fwd_GetS)] = self._o_fwd_gets
        t[(S.O, E.Fwd_GetS_Only)] = self._o_fwd_gets
        t[(S.O, E.Fwd_GetM)] = self._owner_fwd_getm
        # probes on transients
        for st in (S.IS_AD, S.IM_AD, S.II_A):
            t[(st, E.Fwd_GetS)] = self._ack_probe
            t[(st, E.Fwd_GetS_Only)] = self._ack_probe
            t[(st, E.Fwd_GetM)] = self._ack_probe
        t[(S.SM_AD, E.Fwd_GetS)] = self._shared_ack
        t[(S.SM_AD, E.Fwd_GetS_Only)] = self._shared_ack
        t[(S.SM_AD, E.Fwd_GetM)] = self._smad_fwd_getm
        t[(S.OM_A, E.Fwd_GetS)] = self._oma_fwd_gets
        t[(S.OM_A, E.Fwd_GetS_Only)] = self._oma_fwd_gets
        t[(S.OM_A, E.Fwd_GetM)] = self._oma_fwd_getm
        t[(S.MI_A, E.Fwd_GetS)] = self._replacing_owner_gets
        t[(S.MI_A, E.Fwd_GetS_Only)] = self._replacing_owner_gets
        t[(S.MI_A, E.Fwd_GetM)] = self._replacing_owner_getm
        t[(S.OI_A, E.Fwd_GetS)] = self._replacing_owner_gets
        t[(S.OI_A, E.Fwd_GetS_Only)] = self._replacing_owner_gets
        t[(S.OI_A, E.Fwd_GetM)] = self._replacing_owner_getm
        t[(S.EI_A, E.Fwd_GetS)] = self._eia_fwd_gets
        t[(S.EI_A, E.Fwd_GetS_Only)] = self._eia_fwd_gets_only
        t[(S.EI_A, E.Fwd_GetM)] = self._replacing_owner_getm
        # response collection
        for st in _COLLECTING:
            t[(st, E.PeerAck)] = self._collect
            t[(st, E.PeerData)] = self._collect
            t[(st, E.PeerDataExcl)] = self._collect
            t[(st, E.MemData)] = self._collect
        # Exclusive-clean transfers only answer GetS, and an O upgrader can
        # never see peer data (it is the owner); keep the defensive rows
        # but exclude them from the coverage denominator.
        self.coverage_exempt |= {
            (S.IM_AD, E.PeerDataExcl),
            (S.SM_AD, E.PeerDataExcl),
            (S.OM_A, E.PeerDataExcl),
            (S.OM_A, E.PeerData),
        }
        # writeback completion
        t[(S.MI_A, E.WBAck)] = self._wb_send_data
        t[(S.OI_A, E.WBAck)] = self._wb_send_data
        t[(S.EI_A, E.WBAck)] = self._wb_send_data
        t[(S.II_A, E.WBNack)] = self._wb_nacked
        # unexpected Nacks (sunk only in xg_tolerant hosts, Section 3.2.1)
        t[(S.I, E.WBNack)] = self._sink_nack
        t[(S.S, E.WBNack)] = self._sink_nack
        self.coverage_exempt |= {(S.I, E.WBNack), (S.S, E.WBNack)}

    # -- CPU ops --------------------------------------------------------------------

    def _start_get(self, msg, mtype, state):
        addr = self.align(msg.addr)
        tbe = self.tbes.allocate(addr, state, now=self.sim.tick)
        tbe.origin = msg
        tbe.acks_needed = self.n_peers + 1  # peers + memory response
        tbe.meta["op"] = mtype
        if state in (HCState.IS_AD, HCState.IM_AD):
            tbe.meta["needs_slot"] = True
        self._to_dir(mtype, addr)
        self.stats.inc(f"misses_{mtype.name}")
        return tbe

    def _i_load(self, msg):
        self._start_get(msg, HammerMsg.GetS, HCState.IS_AD)
        return CONSUMED

    def _i_store(self, msg):
        self._start_get(msg, HammerMsg.GetM, HCState.IM_AD)
        return CONSUMED

    def _s_store(self, msg):
        self._start_get(msg, HammerMsg.GetM, HCState.SM_AD)
        return CONSUMED

    def _o_store(self, msg):
        tbe = self._start_get(msg, HammerMsg.GetM, HCState.OM_A)
        tbe.meta["keep_own_data"] = True
        return CONSUMED

    def _hit_load(self, msg):
        entry = self.cache.lookup(msg.addr)
        self.respond_to_cpu(msg, entry.data)
        self.stats.inc("load_hits")
        return CONSUMED

    def _m_store(self, msg):
        entry = self.cache.lookup(msg.addr)
        entry.data.write_byte(self.offset(msg.addr), msg.value)
        self.respond_to_cpu(msg, entry.data)
        self.stats.inc("store_hits")
        return CONSUMED

    def _e_store(self, msg):
        entry = self.cache.lookup(msg.addr)
        entry.state = HCState.M  # silent upgrade
        entry.dirty = True
        entry.data.write_byte(self.offset(msg.addr), msg.value)
        self.respond_to_cpu(msg, entry.data)
        self.stats.inc("store_hits")
        return CONSUMED

    # -- replacements -------------------------------------------------------------------

    def _s_repl(self, msg):
        # Hammer allows silent eviction of S blocks — the reason XG's PutS
        # traffic is pure overhead on this host (Section 2.1).
        self.cache.deallocate(msg.addr)
        self.stats.inc("silent_s_evictions")
        return CONSUMED

    def _e_repl(self, msg):
        self.tbes.allocate(msg.addr, HCState.EI_A, now=self.sim.tick)
        self._to_dir(HammerMsg.PutE, msg.addr)
        return CONSUMED

    def _m_repl(self, msg):
        self.tbes.allocate(msg.addr, HCState.MI_A, now=self.sim.tick)
        self._to_dir(HammerMsg.PutM, msg.addr)
        return CONSUMED

    def _o_repl(self, msg):
        self.tbes.allocate(msg.addr, HCState.OI_A, now=self.sim.tick)
        self._to_dir(HammerMsg.PutM, msg.addr)
        return CONSUMED

    # -- probes ------------------------------------------------------------------------------

    def _ack_probe(self, msg):
        self._send(HammerMsg.PeerAck, msg.addr, msg.requestor, "response")
        return CONSUMED

    def _shared_ack(self, msg):
        self._send(HammerMsg.PeerAck, msg.addr, msg.requestor, "response", shared_hint=True)
        return CONSUMED

    def _s_fwd_getm(self, msg):
        self._send(HammerMsg.PeerAck, msg.addr, msg.requestor, "response")
        self.cache.deallocate(msg.addr)
        return CONSUMED

    def _e_fwd_gets(self, msg):
        """Exclusive-clean transfer: requestor will take E, we drop to I."""
        entry = self.cache.lookup(msg.addr, touch=False)
        self._send(
            HammerMsg.PeerDataExcl, msg.addr, msg.requestor, "response", data=entry.data.copy()
        )
        self.cache.deallocate(msg.addr)
        return CONSUMED

    def _e_fwd_gets_only(self, msg):
        """GetS_Only suppresses the transfer: downgrade to S instead."""
        entry = self.cache.lookup(msg.addr, touch=False)
        self._send(
            HammerMsg.PeerData,
            msg.addr,
            msg.requestor,
            "response",
            data=entry.data.copy(),
            shared_hint=True,
        )
        entry.state = HCState.S
        return CONSUMED

    def _m_fwd_gets(self, msg):
        entry = self.cache.lookup(msg.addr, touch=False)
        self._send(
            HammerMsg.PeerData,
            msg.addr,
            msg.requestor,
            "response",
            data=entry.data.copy(),
            dirty=True,
            shared_hint=True,
        )
        entry.state = HCState.O
        return CONSUMED

    def _o_fwd_gets(self, msg):
        entry = self.cache.lookup(msg.addr, touch=False)
        self._send(
            HammerMsg.PeerData,
            msg.addr,
            msg.requestor,
            "response",
            data=entry.data.copy(),
            dirty=True,
            shared_hint=True,
        )
        return CONSUMED

    def _owner_fwd_getm(self, msg):
        entry = self.cache.lookup(msg.addr, touch=False)
        self._send(
            HammerMsg.PeerData,
            msg.addr,
            msg.requestor,
            "response",
            data=entry.data.copy(),
            dirty=entry.dirty,
        )
        self.cache.deallocate(msg.addr)
        return CONSUMED

    def _smad_fwd_getm(self, msg):
        """Upgrade lost: ack, drop our S copy, wait for data like IM_AD."""
        tbe = self.tbes.lookup(msg.addr)
        self._send(HammerMsg.PeerAck, msg.addr, msg.requestor, "response")
        entry = self.cache.lookup(msg.addr, touch=False)
        if entry is not None:
            self.cache.deallocate(msg.addr)
        tbe.state = HCState.IM_AD
        tbe.meta["needs_slot"] = True
        return CONSUMED

    def _oma_fwd_gets(self, msg):
        entry = self.cache.lookup(msg.addr, touch=False)
        self._send(
            HammerMsg.PeerData,
            msg.addr,
            msg.requestor,
            "response",
            data=entry.data.copy(),
            dirty=True,
            shared_hint=True,
        )
        return CONSUMED

    def _oma_fwd_getm(self, msg):
        """Owner-upgrade lost ownership: ship data, fall back to IM_AD."""
        tbe = self.tbes.lookup(msg.addr)
        entry = self.cache.lookup(msg.addr, touch=False)
        self._send(
            HammerMsg.PeerData,
            msg.addr,
            msg.requestor,
            "response",
            data=entry.data.copy(),
            dirty=True,
        )
        self.cache.deallocate(msg.addr)
        tbe.state = HCState.IM_AD
        tbe.meta["keep_own_data"] = False
        tbe.meta["needs_slot"] = True
        return CONSUMED

    def _replacing_owner_gets(self, msg):
        """M/O replacement raced a GetS: still owner, serve dirty data."""
        entry = self.cache.lookup(msg.addr, touch=False)
        self._send(
            HammerMsg.PeerData,
            msg.addr,
            msg.requestor,
            "response",
            data=entry.data.copy(),
            dirty=True,
            shared_hint=True,
        )
        return CONSUMED

    def _replacing_owner_getm(self, msg):
        entry = self.cache.lookup(msg.addr, touch=False)
        tbe = self.tbes.lookup(msg.addr)
        self._send(
            HammerMsg.PeerData,
            msg.addr,
            msg.requestor,
            "response",
            data=entry.data.copy(),
            dirty=entry.dirty,
        )
        tbe.state = HCState.II_A
        return CONSUMED

    def _eia_fwd_gets(self, msg):
        entry = self.cache.lookup(msg.addr, touch=False)
        tbe = self.tbes.lookup(msg.addr)
        self._send(
            HammerMsg.PeerDataExcl, msg.addr, msg.requestor, "response", data=entry.data.copy()
        )
        tbe.state = HCState.II_A
        return CONSUMED

    def _eia_fwd_gets_only(self, msg):
        entry = self.cache.lookup(msg.addr, touch=False)
        self._send(
            HammerMsg.PeerData,
            msg.addr,
            msg.requestor,
            "response",
            data=entry.data.copy(),
            shared_hint=True,
        )
        return CONSUMED

    # -- response collection ------------------------------------------------------------------

    def _collect(self, msg):
        addr = msg.addr
        tbe = self.tbes.lookup(addr)
        tbe.responses_received += 1
        if msg.mtype is HammerMsg.PeerDataExcl:
            tbe.meta["excl_transfer"] = True
            tbe.data = msg.data.copy()
            tbe.dirty = False
            tbe.data_received = True
        elif msg.mtype is HammerMsg.PeerData:
            if tbe.data_received and not self.xg_tolerant and not tbe.meta.get("keep_own_data"):
                raise ProtocolError(
                    self, tbe.state, HCEvent.PeerData, msg, note="second data response"
                )
            if not tbe.meta.get("keep_own_data"):
                tbe.data = msg.data.copy()
                tbe.dirty = msg.dirty
            tbe.data_received = True
            tbe.meta["peer_data"] = True
        elif msg.mtype is HammerMsg.MemData:
            if not tbe.data_received and not tbe.meta.get("keep_own_data"):
                tbe.data = msg.data.copy()
                tbe.dirty = False
        if msg.shared_hint:
            tbe.meta["shared"] = True
        if tbe.responses_received >= tbe.acks_needed:
            self._complete_get(addr, tbe)
        return CONSUMED

    def _complete_get(self, addr, tbe):
        op = tbe.meta["op"]
        entry = self.cache.lookup(addr, touch=False)
        if op is HammerMsg.GetM:
            final = HCState.M
        elif tbe.meta.get("excl_transfer"):
            final = HCState.E
        elif op is HammerMsg.GetS_Only:
            final = HCState.S
        elif tbe.meta.get("peer_data") or tbe.meta.get("shared"):
            final = HCState.S
        else:
            final = HCState.E
        if entry is None:
            data = tbe.data if tbe.data is not None else None
            entry = self.cache.allocate(addr, final, data=data)
        else:
            entry.state = final
            if tbe.data is not None and not tbe.meta.get("keep_own_data"):
                entry.data = tbe.data
        entry.dirty = tbe.dirty or (tbe.meta.get("keep_own_data", False))
        origin = tbe.origin
        if origin.mtype is CpuOp.Store:
            entry.data.write_byte(self.offset(origin.addr), origin.value)
            entry.dirty = True
            self.stats.inc("stores_completed")
        else:
            self.stats.inc("loads_completed")
        self.respond_to_cpu(origin, entry.data)
        self.sim.stats_for("latency").observe("miss_latency", self.sim.tick - tbe.opened_at)
        unblock = {
            HCState.M: HammerMsg.UnblockM,
            HCState.E: HammerMsg.UnblockE,
            HCState.S: HammerMsg.UnblockS,
        }[final]
        self._to_dir(unblock, addr, port="response")
        self.tbes.deallocate(addr)
        self.wake_stalled(addr)

    # -- writeback completion ----------------------------------------------------------------------

    def _wb_send_data(self, msg):
        addr = msg.addr
        tbe = self.tbes.lookup(addr)
        entry = self.cache.lookup(addr, touch=False)
        dirty = tbe.state in (HCState.MI_A, HCState.OI_A)
        self._to_dir(
            HammerMsg.WBData, addr, port="response", data=entry.data.copy(), dirty=dirty
        )
        self.cache.deallocate(addr)
        self.tbes.deallocate(addr)
        self.wake_stalled(addr)
        return CONSUMED

    def _wb_nacked(self, msg):
        addr = msg.addr
        if self.cache.lookup(addr, touch=False) is not None:
            self.cache.deallocate(addr)
        self.tbes.deallocate(addr)
        self.wake_stalled(addr)
        return CONSUMED

    def _sink_nack(self, msg):
        """Sink an unexpected Nack (host modification for Transactional XG)."""
        if not self.xg_tolerant:
            raise ProtocolError(
                self, self.block_state(msg.addr), HCEvent.WBNack, msg, note="unexpected Nack"
            )
        self.note_protocol_anomaly("sank unexpected WBNack", msg)
        return CONSUMED
