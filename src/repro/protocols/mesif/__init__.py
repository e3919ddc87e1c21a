"""Intel-like inclusive MESIF host protocol.

The paper's Section 1 names three industrial host protocols Crossing
Guard must absorb: AMD's exclusive MOESI (our ``hammer``), ARM's
MESI-like, and "Intel ... an inclusive cache hierarchy with a MESI(F)
protocol". This package adds the F (Forward) state to the inclusive
two-level design:

* exactly one sharer holds F — the designated responder for clean data;
  a GetS is forwarded to it (cache-to-cache transfer) and the *requestor*
  inherits F, as on Intel parts;
* S and F blocks evict **silently** (no PutS), so the L2's sharer list is
  conservative and invalidations must tolerate already-gone sharers;
* a stale forward (the F holder dropped the block silently) is answered
  with an FNack and the L2 serves the data itself.

:class:`MesifL1` and :class:`MesifL2` subclass the MESI L1 and L2 and
hold only this F-state policy; their state, event and message enums stay
separate (MESIF has no ``PutS`` and no ``SI_A``).

Crossing Guard integration: the accelerator interface cannot express F
(an F holder must later supply data, which a Transactional XG cannot),
so :class:`~repro.xg.mesif_xg.MesifCrossingGuard` accepts F grants as
plain S for the accelerator and *declines* the responder role with an
FNack when probed — the protocol's silent-F-eviction tolerance makes
that free.
"""

from repro.protocols.mesif.messages import MesifMsg
from repro.protocols.mesif.l1 import FL1Event, FL1State, MesifL1
from repro.protocols.mesif.l2 import FL2Event, FL2State, MesifL2

__all__ = [
    "FL1Event",
    "FL1State",
    "FL2Event",
    "FL2State",
    "MesifL1",
    "MesifL2",
    "MesifMsg",
]
