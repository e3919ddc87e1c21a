"""Crossing Guard host port for the inclusive MESIF protocol.

The MESI port plus the F-state policy: the accelerator interface cannot
express "designated responder" (an F holder must later supply data,
which a Transactional XG has no storage for), so Crossing Guard

* maps a ``DataF`` grant to plain ``DataS`` at the accelerator while
  acknowledging the designation (``UnblockF``) toward the host, and
* **declines** the role when probed: ``Fwd_GetS_F`` is answered with an
  ``FNack``, which the protocol already tolerates because any cache may
  silently drop F.

Because MESIF has no PutS, accelerator PutS requests complete locally —
the same "host does not need them" situation measured for Hammer in
experiment E8, arising here from protocol shape rather than a register.
A GetS forwarded to the port (it owns the block) is answered with
``DataF``, as a MESIF owner downgrading to S hands the requestor F.
"""

from repro.coherence.controller import CONSUMED
from repro.protocols.mesif.messages import MesifMsg
from repro.xg.interface import AccelMsg
from repro.xg.mesi_xg import MesiCrossingGuard


class MesifCrossingGuard(MesiCrossingGuard):
    """Crossing Guard appearing to the host as a MESIF private L1."""

    CONTROLLER_TYPE = "xg_mesif"
    MSG = MesifMsg
    FWD_GETS_DATA = MesifMsg.DataF

    def __init__(self, sim, name, host_net, accel_net, l2_name, **kw):
        super().__init__(sim, name, host_net, accel_net, l2_name, **kw)
        self._host_response_dispatch[MesifMsg.DataF] = self._resp_data_f

    def _resp_data_f(self, msg, addr, tbe):
        # Take the designation toward the host, grant only S inward;
        # a later Fwd_GetS_F will be FNacked.
        self._to_l2(MesifMsg.UnblockF, addr, port="response")
        self.finish_accel_get(addr, "S", msg.data, dirty=False)
        self.stats.inc("f_grants_taken_as_s")

    def _host_forward(self, msg, addr, tbe):
        if msg.mtype is MesifMsg.Fwd_GetS_F:
            # Decline the responder role; the L2 serves from its copy.
            self._to_l2(MesifMsg.FNack, addr, port="response")
            self.stats.inc("f_roles_declined")
            return CONSUMED
        return super()._host_forward(msg, addr, tbe)

    def host_issue_put(self, addr, put_type, tbe):
        if put_type is AccelMsg.PutS:
            # MESIF evicts shared blocks silently: there is no PutS to
            # forward at all — the interface message is absorbed here.
            self.stats.inc("puts_absorbed_no_host_message")
            self.finish_accel_put(addr)
            return
        super().host_issue_put(addr, put_type, tbe)
