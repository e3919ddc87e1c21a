"""Message vocabulary of the inclusive MESI two-level protocol.

This is the host-protocol surface an "accelerator-side cache" (Figure 2a
of the paper) must speak, and which Crossing Guard speaks on the
accelerator's behalf: four request kinds from the host and seven response
kinds, versus the accelerator interface's one and three.
"""

import enum

from repro.sim.idenum import IdEnum


class MesiMsg(IdEnum):
    """All MESI two-level message types."""

    # -- L1 -> L2 requests
    GetS = enum.auto()
    GetM = enum.auto()
    GetS_Only = enum.auto()  # non-upgradable read (Transactional XG, G0b)
    PutS = enum.auto()
    PutE = enum.auto()  # carries clean data
    PutM = enum.auto()  # carries dirty data

    # -- L2 -> L1 forwards
    Inv = enum.auto()  # invalidate; ack msg.requestor
    Fwd_GetS = enum.auto()  # owner: send DataS to requestor + CopyBack to L2
    Fwd_GetM = enum.auto()  # owner: send DataM to requestor, invalidate
    Recall = enum.auto()  # inclusive-eviction: owner returns CopyBackInv
    WBAck = enum.auto()
    WBNack = enum.auto()  # stale Put (legitimate race)

    # -- data/ack responses
    DataS = enum.auto()
    DataE = enum.auto()
    DataM = enum.auto()  # carries ack_count when from L2
    InvAck = enum.auto()

    # -- L1 -> L2 transaction closure
    UnblockS = enum.auto()
    UnblockX = enum.auto()  # requestor took E or M
    CopyBack = enum.auto()  # owner downgrade data (stays sharer)
    CopyBackInv = enum.auto()  # owner recall data (fully invalidated)


REQUEST_TYPES = frozenset(
    {MesiMsg.GetS, MesiMsg.GetM, MesiMsg.GetS_Only, MesiMsg.PutS, MesiMsg.PutE, MesiMsg.PutM}
)
FORWARD_TYPES = frozenset(
    {MesiMsg.Inv, MesiMsg.Fwd_GetS, MesiMsg.Fwd_GetM, MesiMsg.Recall, MesiMsg.WBAck, MesiMsg.WBNack}
)
RESPONSE_TYPES = frozenset(
    {
        MesiMsg.DataS,
        MesiMsg.DataE,
        MesiMsg.DataM,
        MesiMsg.InvAck,
        MesiMsg.UnblockS,
        MesiMsg.UnblockX,
        MesiMsg.CopyBack,
        MesiMsg.CopyBackInv,
    }
)
