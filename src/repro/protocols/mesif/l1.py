"""MESIF private L1 controller: the MESI L1 plus the F-state policy.

:class:`~repro.protocols.mesi.l1.MesiL1` supplies every shared row and
handler; this class holds only the deltas:

* stable state **F**: a clean shared copy designated to answer
  ``Fwd_GetS_F`` probes with a cache-to-cache ``DataF`` transfer; the
  requestor inherits F (Intel behavior) and this cache drops to S. A
  ``DataF`` fill enters F and sends ``UnblockF``, and an E/M owner
  (or one mid-replacement) answers a forwarded GetS with ``DataF``;
* S and F replace **silently** — no PutS, no SI_A transient — so an
  ``Inv`` (or a stale ``Fwd_GetS_F``) can legitimately arrive in I or a
  fill transient and is answered with InvAck / FNack.
"""

import enum

from repro.coherence.controller import CONSUMED
from repro.protocols.mesi.l1 import MesiL1
from repro.protocols.mesif.messages import MesifMsg
from repro.sim.idenum import IdEnum


class FL1State(IdEnum):
    I = enum.auto()
    S = enum.auto()
    F = enum.auto()
    E = enum.auto()
    M = enum.auto()
    IS_D = enum.auto()
    IM_AD = enum.auto()
    IM_A = enum.auto()
    SM_AD = enum.auto()
    SM_A = enum.auto()
    MI_A = enum.auto()
    EI_A = enum.auto()
    II_A = enum.auto()


class FL1Event(IdEnum):
    Load = enum.auto()
    Store = enum.auto()
    Replacement = enum.auto()
    DataS = enum.auto()
    DataF = enum.auto()
    DataE = enum.auto()
    DataM = enum.auto()
    InvAck = enum.auto()
    Inv = enum.auto()
    Fwd_GetS_F = enum.auto()
    Fwd_GetS = enum.auto()
    Fwd_GetM = enum.auto()
    Recall = enum.auto()
    WBAck = enum.auto()
    WBNack = enum.auto()


class MesifL1(MesiL1):
    """Private MESIF L1 (one per CPU core)."""

    CONTROLLER_TYPE = "mesif_l1"
    INVALID_STATE = FL1State.I

    STATE = FL1State
    EVENT = FL1Event
    MSG = MesifMsg
    FORWARD_EVENTS = {
        MesifMsg.Inv: FL1Event.Inv,
        MesifMsg.Fwd_GetS_F: FL1Event.Fwd_GetS_F,
        MesifMsg.Fwd_GetS: FL1Event.Fwd_GetS,
        MesifMsg.Fwd_GetM: FL1Event.Fwd_GetM,
        MesifMsg.Recall: FL1Event.Recall,
        MesifMsg.WBAck: FL1Event.WBAck,
        MesifMsg.WBNack: FL1Event.WBNack,
    }
    RESPONSE_EVENTS = {
        MesifMsg.DataS: FL1Event.DataS,
        MesifMsg.DataF: FL1Event.DataF,
        MesifMsg.DataE: FL1Event.DataE,
        MesifMsg.DataM: FL1Event.DataM,
        MesifMsg.InvAck: FL1Event.InvAck,
    }
    TRANSIENT = frozenset({
        FL1State.IS_D,
        FL1State.IM_AD,
        FL1State.IM_A,
        FL1State.SM_AD,
        FL1State.SM_A,
        FL1State.MI_A,
        FL1State.EI_A,
        FL1State.II_A,
    })
    FWD_GETS_DATA = MesifMsg.DataF
    SILENT_EVICTIONS = (FL1State.S, FL1State.F)

    # -- transition table ----------------------------------------------------------------

    def _build_policy_rows(self, t, S, E):
        """F joins S as a shared state; both evict silently."""
        t[(S.F, E.Load)] = self._hit_load
        t[(S.F, E.Store)] = self._s_store
        t[(S.F, E.Inv)] = self._s_inv
        t[(S.S, E.Replacement)] = self._silent_evict
        t[(S.F, E.Replacement)] = self._silent_evict
        # silent-eviction consequences: stale records at the L2 mean an
        # Inv / F-forward can arrive in I or in a fill transient (the
        # paper's "ISI" scenario: invalidation before the data). The data
        # we are waiting on belongs to a LATER transaction than the Inv
        # (blocking L2), so ack-and-stay is sufficient.
        t[(S.I, E.Inv)] = self._stale_inv
        t[(S.I, E.Fwd_GetS_F)] = self._fnack
        t[(S.S, E.Fwd_GetS_F)] = self._fnack  # F moved on; defensive
        for filling in (S.IS_D, S.IM_AD, S.IM_A):
            t[(filling, E.Inv)] = self._stale_inv
            t[(filling, E.Fwd_GetS_F)] = self._fnack
        # the F responder role
        t[(S.F, E.Fwd_GetS_F)] = self._serve_f
        t[(S.SM_AD, E.Fwd_GetS_F)] = self._serve_f
        t[(S.IS_D, E.DataF)] = self._isd_data_f
        self.coverage_exempt.add((S.S, E.Fwd_GetS_F))
        # Only GetS_Only is answered with DataS, and only Crossing Guard
        # issues GetS_Only — a host L1 never receives it.
        self.coverage_exempt.add((S.IS_D, E.DataS))

    # -- silent eviction and its stale probes ----------------------------------------------

    def _silent_evict(self, msg):
        self.cache.deallocate(msg.addr)
        self.stats.inc("silent_sf_evictions")
        return CONSUMED

    def _stale_inv(self, msg):
        # We dropped the block silently; the L2's sharer list is
        # conservative by design. Just ack.
        self._send(MesifMsg.InvAck, msg.addr, msg.requestor, "response")
        self.stats.inc("stale_invs_acked")
        return CONSUMED

    def _fnack(self, msg):
        self._to_l2(MesifMsg.FNack, msg.addr, port="response")
        self.stats.inc("fnacks")
        return CONSUMED

    # -- the F role ---------------------------------------------------------------------------

    def _serve_f(self, msg):
        """Forward clean data cache-to-cache; the requestor inherits F."""
        entry = self.cache.lookup(msg.addr, touch=False)
        self._send(
            MesifMsg.DataF, msg.addr, msg.requestor, "response", data=entry.data.copy()
        )
        if entry.state is FL1State.F:
            entry.state = FL1State.S
        self.stats.inc("f_transfers")
        return CONSUMED

    def _isd_data_f(self, msg):
        """A DataF fill takes the F designation and acknowledges it."""
        addr = msg.addr
        tbe = self.tbes.lookup(addr)
        entry = self.cache.allocate(addr, FL1State.F, data=msg.data.copy())
        self._finish_read(addr, tbe, entry)
        self._to_l2(MesifMsg.UnblockF, addr, port="response")
        self._close(addr)
        return CONSUMED
