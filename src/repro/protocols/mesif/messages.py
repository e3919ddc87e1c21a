"""Message vocabulary of the inclusive MESIF protocol."""

import enum

from repro.sim.idenum import IdEnum


class MesifMsg(IdEnum):
    """All MESIF message types."""

    # -- L1 -> L2 requests (no PutS: S and F evict silently)
    GetS = enum.auto()
    GetM = enum.auto()
    GetS_Only = enum.auto()
    PutE = enum.auto()  # carries clean data
    PutM = enum.auto()  # carries dirty data

    # -- L2 -> L1 forwards
    Inv = enum.auto()
    Fwd_GetS_F = enum.auto()  # to the designated F responder
    Fwd_GetM = enum.auto()  # to the exclusive owner
    Fwd_GetS = enum.auto()  # to the exclusive owner (downgrade)
    Recall = enum.auto()
    WBAck = enum.auto()
    WBNack = enum.auto()

    # -- data/ack responses
    DataS = enum.auto()
    DataF = enum.auto()  # shared + clean + forwarder designation
    DataE = enum.auto()
    DataM = enum.auto()
    InvAck = enum.auto()
    FNack = enum.auto()  # "I no longer hold F" (silent eviction happened)

    # -- L1 -> L2 closure
    UnblockS = enum.auto()
    UnblockF = enum.auto()  # requestor took the F designation
    UnblockX = enum.auto()
    CopyBack = enum.auto()
    CopyBackInv = enum.auto()
