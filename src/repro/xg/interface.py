"""The standardized accelerator coherence interface (paper Section 2.1).

The accelerator may send five requests and receives exactly one of four
responses per request; the host side of the interface may send one request
(Invalidate) and receives exactly one of three responses. The network
between Crossing Guard and the accelerator is *ordered*, so the only
remaining race is an accelerator Put passing a host Invalidate.
"""

import enum

from repro.sim.idenum import IdEnum


class AccelMsg(IdEnum):
    """Every message type that may cross the XG<->accelerator interface."""

    # -- accelerator -> XG requests
    GetS = enum.auto()  # shared, read-only
    GetM = enum.auto()  # exclusive, read-write
    PutS = enum.auto()  # replace a shared block (no data)
    PutE = enum.auto()  # replace an exclusive-clean block (carries data)
    PutM = enum.auto()  # replace a modified block (carries data)

    # -- XG -> accelerator responses
    DataS = enum.auto()  # shared + clean
    DataE = enum.auto()  # exclusive + clean
    DataM = enum.auto()  # exclusive + modified
    WBAck = enum.auto()  # the single response to any Put

    # -- XG -> accelerator request
    Invalidate = enum.auto()

    # -- accelerator -> XG responses (to Invalidate)
    InvAck = enum.auto()  # block not held in an owned state
    CleanWB = enum.auto()  # block was E: clean writeback (carries data)
    DirtyWB = enum.auto()  # block was M: dirty writeback (carries data)

    # -- XG -> accelerator abort: the request it answers will never
    # complete because the accelerator has been quarantined (disabled by
    # OS policy). Only ever sent to an already-disabled endpoint, so a
    # correct accelerator never sees one; receivers treat it as a
    # terminal completion of the aborted request.
    Nack = enum.auto()


ACCEL_REQUESTS = frozenset(
    {AccelMsg.GetS, AccelMsg.GetM, AccelMsg.PutS, AccelMsg.PutE, AccelMsg.PutM}
)
ACCEL_GET_REQUESTS = frozenset({AccelMsg.GetS, AccelMsg.GetM})
ACCEL_PUT_REQUESTS = frozenset({AccelMsg.PutS, AccelMsg.PutE, AccelMsg.PutM})
ACCEL_RESPONSES = frozenset({AccelMsg.InvAck, AccelMsg.CleanWB, AccelMsg.DirtyWB})
XG_DATA_RESPONSES = frozenset({AccelMsg.DataS, AccelMsg.DataE, AccelMsg.DataM})

#: Requests that must carry a data payload.
CARRIES_DATA = frozenset(
    {
        AccelMsg.PutE,
        AccelMsg.PutM,
        AccelMsg.DataS,
        AccelMsg.DataE,
        AccelMsg.DataM,
        AccelMsg.CleanWB,
        AccelMsg.DirtyWB,
    }
)


class XGVariant(IdEnum):
    """The two Crossing Guard implementations of Section 2.3."""

    FULL_STATE = enum.auto()
    TRANSACTIONAL = enum.auto()


def legal_data_grants(request):
    """Responses the interface allows for an accelerator Get.

    The accelerator may receive DataE or DataM on *either* a GetS or a
    GetM (Section 2.1) — exclusive grants on shared requests are an
    optimization for read-then-write patterns.
    """
    if request is AccelMsg.GetS:
        return (AccelMsg.DataS, AccelMsg.DataE, AccelMsg.DataM)
    if request is AccelMsg.GetM:
        return (AccelMsg.DataE, AccelMsg.DataM)
    raise ValueError(f"not a Get request: {request}")
