"""Crossing Guard host port for the inclusive MESI two-level protocol.

To the MESI L2, Crossing Guard is just another private L1 (Section 3): it
issues GetS/GetM/GetS_Only and Puts, counts invalidation acks, sends
Unblocks, and answers Inv/Fwd/Recall — shielding the accelerator from all
of it. Races between an accelerator writeback and a host forward are
resolved from the writeback's data exactly like a host L1's ``MI_A``
transients.

The port reads its message vocabulary from two class attributes —
``MSG`` (the host protocol's message enum) and ``FWD_GETS_DATA`` (the
data type that answers a forwarded GetS) — so
:class:`~repro.xg.mesif_xg.MesifCrossingGuard` is this class plus the
F-state policy.
"""

from repro.coherence.controller import CONSUMED, ProtocolError
from repro.memory.datablock import DataBlock
from repro.protocols.mesi.messages import MesiMsg
from repro.xg.base import CrossingGuardBase
from repro.xg.errors import Guarantee
from repro.xg.interface import AccelMsg


class MesiCrossingGuard(CrossingGuardBase):
    """Crossing Guard appearing to the host as a MESI private L1."""

    CONTROLLER_TYPE = "xg_mesi"

    #: the host protocol's message enum
    MSG = MesiMsg
    #: what this port sends a requestor whose GetS was forwarded to it
    FWD_GETS_DATA = MesiMsg.DataS

    def __init__(self, sim, name, host_net, accel_net, l2_name, **kw):
        self.l2_name = l2_name
        super().__init__(sim, name, host_net, accel_net, **kw)
        # compiled host-response dispatch: one bound handler per message
        # type, mirroring the controllers' flattened transition tables
        M = self.MSG
        self._host_response_dispatch = {
            M.DataS: self._resp_data_s,
            M.DataE: self._resp_data_e,
            M.DataM: self._resp_data_m,
            M.InvAck: self._resp_inv_ack,
        }

    def _build_transitions(self):
        # XG is not table-driven; its flows are explicit methods. Keep an
        # empty table so coverage tooling sees no unvisited transitions.
        return

    # -- host-side sends ---------------------------------------------------------

    def _to_l2(self, mtype, addr, port="request", **kw):
        return self.send_to_host(mtype, addr, self.l2_name, port, **kw)

    # -- host messages --------------------------------------------------------------

    def handle_host_message(self, port, msg):
        addr = self.align(msg.addr)
        tbe = self.tbes.lookup(addr)
        if port == "response":
            return self._host_response(msg, addr, tbe)
        return self._host_forward(msg, addr, tbe)

    def _host_response(self, msg, addr, tbe):
        if tbe is None or tbe.meta.get("kind") != "accel_get":
            raise ProtocolError(self, "xg", msg.mtype, msg, note="response with no get open")
        handler = self._host_response_dispatch.get(msg.mtype)
        if handler is None:
            raise ProtocolError(self, "xg", msg.mtype, msg, note="bad host response")
        handler(msg, addr, tbe)
        return CONSUMED

    def _resp_data_s(self, msg, addr, tbe):
        self._to_l2(self.MSG.UnblockS, addr, port="response")
        self.finish_accel_get(addr, "S", msg.data, dirty=False)

    def _resp_data_e(self, msg, addr, tbe):
        self._to_l2(self.MSG.UnblockX, addr, port="response")
        self.finish_accel_get(addr, "E", msg.data, dirty=False)

    def _resp_data_m(self, msg, addr, tbe):
        tbe.data = msg.data.copy()
        tbe.dirty = msg.dirty
        tbe.acks_needed = msg.ack_count
        tbe.data_received = True
        if tbe.acks_received >= tbe.acks_needed:
            self._complete_getm(addr, tbe)

    def _resp_inv_ack(self, msg, addr, tbe):
        tbe.acks_received += 1
        if tbe.data_received and tbe.acks_received >= tbe.acks_needed:
            self._complete_getm(addr, tbe)

    def _complete_getm(self, addr, tbe):
        self._to_l2(self.MSG.UnblockX, addr, port="response")
        grant = "M" if tbe.meta["accel_req"] is AccelMsg.GetM else (
            "M" if tbe.dirty else "E"
        )
        self.finish_accel_get(addr, grant, tbe.data, dirty=tbe.dirty)

    def _host_forward(self, msg, addr, tbe):
        M = self.MSG
        mtype = msg.mtype
        if mtype in (M.WBAck, M.WBNack):
            if tbe is None or tbe.meta.get("kind") != "accel_put":
                raise ProtocolError(self, "xg", mtype, msg, note="WB ack with no put open")
            self.finish_accel_put(addr)
            return CONSUMED
        if tbe is not None and tbe.meta.get("kind") == "accel_put":
            return self._put_race_forward(msg, addr, tbe)
        if tbe is not None and tbe.meta.get("kind") == "accel_get":
            if mtype is M.Inv:
                # The accelerator's upgrade lost to a remote GetM (the host
                # L1's SM_AD+Inv race). The accelerator's stale S copy is
                # unreadable while it waits in B, so acking immediately is
                # coherent; fresh data arrives with the eventual DataM.
                self.send_to_host(M.InvAck, addr, msg.requestor, "response")
                self.stats.inc("upgrade_inv_races")
                return CONSUMED
            # A data-needing forward while a Get is open: only reachable
            # when a misbehaving accelerator re-requested a block it owns
            # (Transactional XG cannot pre-filter that, Guarantee 1a).
            # Never stall the host: answer with zeros — corrupt data on
            # the accelerator's own pages, but guaranteed convergence.
            self.report(
                Guarantee.G2A_STABLE_RESPONSE,
                addr,
                f"{mtype.name} during an open accelerator request; zero data supplied",
            )
            self._answer_with_data(msg, addr, DataBlock(self.block_size), dirty=True)
            return CONSUMED
        if tbe is not None:
            if tbe.meta.get("race_resolved"):
                # The previous probe was answered from a racing Put and the
                # host moved on; only the accelerator's trailing InvAck is
                # outstanding. The accelerator holds nothing now.
                self._answer_as_nonholder(msg, addr)
                return CONSUMED
            # The blocking L2 never probes a block with an open XG probe.
            raise ProtocolError(
                self, tbe.meta.get("kind"), mtype, msg, note="probe during open transaction"
            )
        return self._stable_forward(msg, addr)

    def _put_race_forward(self, msg, addr, tbe):
        """A forward overtook our Put: answer from the Put's data."""
        M = self.MSG
        mtype = msg.mtype
        data = tbe.data if tbe.data is not None else DataBlock(self.block_size)
        if mtype is M.Inv:
            self.send_to_host(M.InvAck, addr, msg.requestor, "response")
        elif mtype is M.Fwd_GetS:
            self.send_to_host(
                self.FWD_GETS_DATA, addr, msg.requestor, "response", data=data.copy()
            )
            self._to_l2(
                M.CopyBack, addr, port="response", data=data.copy(), dirty=tbe.dirty
            )
        elif mtype is M.Fwd_GetM:
            self.send_to_host(
                M.DataM,
                addr,
                msg.requestor,
                "response",
                data=data.copy(),
                dirty=tbe.dirty,
                ack_count=0,
            )
        elif mtype is M.Recall:
            self._to_l2(
                M.CopyBackInv, addr, port="response", data=data.copy(), dirty=tbe.dirty
            )
        else:
            raise ProtocolError(self, "accel_put", mtype, msg, note="bad forward")
        self.stats.inc("put_forward_races")
        return CONSUMED

    def _stable_forward(self, msg, addr):
        M = self.MSG
        mtype = msg.mtype
        # Inv wants only an ack; Fwd_GetS, Fwd_GetM and Recall want data.
        needs_data = mtype is not M.Inv
        entry = self.mirror_entry(addr)
        if self.is_full_state:
            if entry is None:
                # Accelerator holds nothing; answer as a clean non-holder.
                self._answer_as_nonholder(msg, addr)
                self.stats.inc("probes_answered_locally")
                return CONSUMED
            if entry.retained_data is not None and mtype is M.Fwd_GetS:
                # XG owns the block on behalf of a read-only sharer; serve
                # the data and stay a sharer — the accelerator's S copy
                # remains valid since a GetS does not invalidate sharers.
                self.send_to_host(
                    self.FWD_GETS_DATA, addr, msg.requestor, "response",
                    data=entry.retained_data.copy(),
                )
                self._to_l2(
                    M.CopyBack, addr, port="response",
                    data=entry.retained_data.copy(), dirty=entry.retained_dirty,
                )
                entry.retained_dirty = False
                self.stats.inc("probes_answered_locally")
                return CONSUMED
            if entry.accel_state == "I" and entry.retained_data is not None:
                # Only XG holds the (retained) block.
                self._answer_with_data(msg, addr, entry.retained_data, entry.retained_dirty)
                self.mirror_remove(addr)
                self.stats.inc("probes_answered_locally")
                return CONSUMED
        else:
            if not self.permissions.allows_read(addr):
                # No-permission blocks are answered without consulting the
                # accelerator — also closes the coherence side channel.
                self._answer_as_nonholder(msg, addr)
                self.stats.inc("probes_answered_locally")
                return CONSUMED
        context = {"mtype": mtype, "requestor": msg.requestor}
        self.start_probe(addr, needs_data, context)
        return CONSUMED

    def _answer_as_nonholder(self, msg, addr):
        """Answer a probe for a block neither XG nor the accelerator holds."""
        if msg.mtype is self.MSG.Inv:
            self.send_to_host(self.MSG.InvAck, addr, msg.requestor, "response")
            return
        # A data-needing forward for a block we do not hold: only possible
        # after an earlier error recovery; satisfy the host with zeros.
        self.stats.inc("zero_data_fabrications")
        self._answer_with_data(msg, addr, DataBlock(self.block_size), dirty=True)

    def _answer_with_data(self, msg, addr, data, dirty):
        M = self.MSG
        if msg.mtype is M.Fwd_GetS:
            self.send_to_host(
                self.FWD_GETS_DATA, addr, msg.requestor, "response", data=data.copy()
            )
            self._to_l2(M.CopyBack, addr, port="response", data=data.copy(), dirty=dirty)
        elif msg.mtype is M.Fwd_GetM:
            self.send_to_host(
                M.DataM, addr, msg.requestor, "response", data=data.copy(),
                dirty=dirty, ack_count=0,
            )
        elif msg.mtype is M.Recall:
            self._to_l2(
                M.CopyBackInv, addr, port="response", data=data.copy(), dirty=dirty
            )
        else:  # Inv
            self.send_to_host(M.InvAck, addr, msg.requestor, "response")

    # -- base hooks ------------------------------------------------------------------------

    def host_issue_get(self, addr, want_m, gets_only, tbe):
        M = self.MSG
        if want_m:
            tbe.acks_needed = None
            self._to_l2(M.GetM, addr)
        elif gets_only:
            self._to_l2(M.GetS_Only, addr)
        else:
            self._to_l2(M.GetS, addr)

    def host_issue_put(self, addr, put_type, tbe):
        M = self.MSG
        if put_type is AccelMsg.PutS:
            self._to_l2(M.PutS, addr)
        elif put_type is AccelMsg.PutE:
            self._to_l2(M.PutE, addr, data=tbe.data.copy(), dirty=False)
        else:
            self._to_l2(M.PutM, addr, data=tbe.data.copy(), dirty=True)

    def host_answer_probe(self, addr, tbe, got_wb, data, dirty):
        M = self.MSG
        context = tbe.meta["context"]
        mtype = context["mtype"]
        requestor = context["requestor"]
        if mtype is M.Inv:
            if got_wb:
                # Transactional XG forwards the unexpected data to the L2,
                # which acks the requestor on the accelerator's behalf
                # (Section 3.2.2 host modification).
                self._to_l2(
                    M.CopyBack, addr, port="response", data=data.copy(), dirty=dirty
                )
            else:
                self.send_to_host(M.InvAck, addr, requestor, "response")
            return
        payload = data if data is not None else DataBlock(self.block_size)
        if mtype is M.Fwd_GetS:
            self.send_to_host(
                self.FWD_GETS_DATA, addr, requestor, "response", data=payload.copy()
            )
            self._to_l2(
                M.CopyBack, addr, port="response", data=payload.copy(), dirty=dirty
            )
        elif mtype is M.Fwd_GetM:
            self.send_to_host(
                M.DataM, addr, requestor, "response", data=payload.copy(),
                dirty=dirty, ack_count=0,
            )
        elif mtype is M.Recall:
            self._to_l2(
                M.CopyBackInv, addr, port="response", data=payload.copy(), dirty=dirty
            )
        else:
            raise AssertionError(f"unknown probe context {mtype}")
