"""A customized accelerator cache: streaming with sequential prefetch.

The paper's motivation for the interface is exactly this freedom: "An
accelerator that performs mostly streaming accesses may prefetch
aggressively" (Section 1) — without asking the host designer for
anything. This cache is Table 1 plus a prefetcher:

* on a demand miss to block B it also issues GetS for B+1..B+depth
  (each a perfectly ordinary interface request, one per block, so
  Guarantee 1b is respected by construction);
* prefetched fills park in the cache like any other block; a later
  demand hit on them is the win;
* everything else — states, Invalidate handling, writebacks — is
  inherited unchanged from the Table 1 automaton.

The host never knows: prefetches are indistinguishable from demand
GetS requests, which is the interface working as designed.
"""

from repro.accel.l1_single import AL1State, AccelL1
from repro.coherence.controller import CONSUMED
from repro.xg.interface import AccelMsg


class StreamingAccelL1(AccelL1):
    """Table 1 cache + sequential prefetcher."""

    CONTROLLER_TYPE = "accel_l1_streaming"

    def __init__(self, *args, prefetch_depth=2, **kwargs):
        self.prefetch_depth = prefetch_depth
        super().__init__(*args, **kwargs)

    # -- prefetch issue ---------------------------------------------------------

    def _i_load(self, msg):
        outcome = super()._i_load(msg)
        self._prefetch_after(msg.addr)
        return outcome

    def _prefetch_after(self, addr):
        base = self.align(addr)
        for step in range(1, self.prefetch_depth + 1):
            target = base + step * self.block_size
            if self.block_state(target) is not AL1State.I:
                continue  # resident or already in flight
            if self.cache.fill_room(target, self.tbes) <= 0:
                continue  # never evict demand data for a prefetch
            tbe = self.tbes.allocate(target, AL1State.B, now=self.sim.tick)
            tbe.origin = None  # no CPU op waiting
            tbe.meta["needs_slot"] = True
            tbe.meta["prefetch"] = True
            self._to_xg(AccelMsg.GetS, target)
            self.stats.inc("prefetches_issued")

    # -- fills: a prefetch has no CPU op to complete --------------------------------

    def _fill(self, msg, state, dirty):
        addr = msg.addr
        tbe = self.tbes.lookup(addr)
        if tbe is not None and tbe.meta.get("prefetch"):
            entry = self.cache.lookup(addr, touch=False)
            if entry is None:
                entry = self.cache.allocate(
                    addr, state, data=msg.data.copy(), dirty=dirty
                )
            else:
                entry.state = state
                entry.data = msg.data.copy()
                entry.dirty = dirty
            entry.meta["prefetched_unused"] = True
            self.stats.inc("prefetch_fills")
            self.tbes.deallocate(addr)
            self.wake_stalled(addr)
            return CONSUMED
        return super()._fill(msg, state, dirty)

    # -- accounting: demand hits on prefetched blocks ------------------------------------

    def _hit_load(self, msg):
        entry = self.cache.lookup(msg.addr, touch=False)
        if entry is not None and entry.meta.get("prefetched_unused"):
            entry.meta["prefetched_unused"] = False
            self.stats.inc("prefetch_hits")
        return super()._hit_load(msg)
