"""Message vocabulary of the Hammer-like exclusive MOESI protocol."""

import enum

from repro.sim.idenum import IdEnum


class HammerMsg(IdEnum):
    """All Hammer-like message types."""

    # -- cache -> directory requests
    GetS = enum.auto()
    GetM = enum.auto()
    GetS_Only = enum.auto()  # non-upgradable read (Transactional XG, G0b)
    PutM = enum.auto()  # two-phase: no data; covers M and O
    PutE = enum.auto()  # two-phase: no data; clean
    PutS = enum.auto()  # only XG sends this; the host sinks it (Section 2.1)

    # -- directory -> cache
    Fwd_GetS = enum.auto()  # broadcast probe (with requestor)
    Fwd_GetM = enum.auto()
    Fwd_GetS_Only = enum.auto()  # suppresses exclusive-clean transfer
    WBAck = enum.auto()  # go ahead, send WBData
    WBNack = enum.auto()  # stale Put (lost a race)
    MemData = enum.auto()  # memory's response, sent to the requestor

    # -- cache -> requestor (probe responses)
    PeerAck = enum.auto()  # not owner; shared_hint says "I have it in S"
    PeerData = enum.auto()  # owner's data (dirty flag set from M/O)
    PeerDataExcl = enum.auto()  # exclusive-clean transfer from an E owner

    # -- cache -> directory (closure)
    UnblockS = enum.auto()
    UnblockE = enum.auto()
    UnblockM = enum.auto()
    WBData = enum.auto()  # second phase of a writeback


PROBE_TYPES = frozenset(
    {HammerMsg.Fwd_GetS, HammerMsg.Fwd_GetM, HammerMsg.Fwd_GetS_Only}
)
