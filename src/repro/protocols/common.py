"""Pieces shared by both host protocols and the accelerator caches.

Defines the CPU-facing request types (the "mandatory queue" in Ruby
terms) and a cache controller base with the bookkeeping every L1-like
controller needs: a data array plus a TBE table, combined state lookup,
and sequencer completion callbacks. Replacement (free ways and the
stable LRU victim) lives on :class:`~repro.memory.cache_array.CacheArray`.
"""

import enum

from repro.coherence.controller import CoherenceController
from repro.coherence.tbe import TBETable
from repro.memory.cache_array import CacheArray
from repro.memory.datablock import block_align, block_offset
from repro.sim.idenum import IdEnum


class CpuOp(IdEnum):
    """Requests a sequencer (CPU or accelerator core) issues to its cache."""

    Load = enum.auto()
    Store = enum.auto()


class CacheControllerBase(CoherenceController):
    """Base for controllers that own a data array + TBE table.

    The "state" of a block is its TBE's transient state when a transaction
    is open, the resident entry's stable state otherwise, and the
    protocol's invalid state when neither exists.
    """

    INVALID_STATE = None

    def __init__(self, sim, name, num_sets=64, assoc=4, block_size=64):
        self.cache = CacheArray(num_sets, assoc, block_size=block_size, name=name)
        self.tbes = TBETable(name=name)
        self.block_size = block_size
        self.sequencers = {}
        # pre-resolved hot-path accessors: block_state runs per message, so
        # skip the attribute chains and (for power-of-two blocks) the
        # modulo-based align
        self._tbe_lookup = self.tbes.lookup
        self._cache_lookup = self.cache.lookup
        if block_size & (block_size - 1) == 0:
            self._block_mask = ~(block_size - 1)
        else:
            self._block_mask = None
        super().__init__(sim, name)

    # -- state lookup ----------------------------------------------------------

    def block_state(self, addr):
        """Current protocol state of ``addr``'s block."""
        mask = self._block_mask
        if mask is not None:
            addr &= mask
        else:
            addr = block_align(addr, self.block_size)
        tbe = self._tbe_lookup(addr)
        if tbe is not None:
            return tbe.state
        entry = self._cache_lookup(addr, touch=False)
        if entry is not None:
            return entry.state
        return self.INVALID_STATE

    def align(self, addr):
        mask = self._block_mask
        if mask is not None:
            return addr & mask
        return block_align(addr, self.block_size)

    def stall_key(self, msg):
        """Stall on the block, not the byte: CPU ops carry full addresses."""
        return self.align(msg.addr)

    def offset(self, addr):
        return block_offset(addr, self.block_size)

    # -- sequencer interface -----------------------------------------------------

    def attach_sequencer(self, sequencer):
        """Register a sequencer; several may share one cache (GPU cores)."""
        self.sequencers[sequencer.name] = sequencer

    def respond_to_cpu(self, msg, data):
        """Complete a CPU op back to its issuing sequencer."""
        sequencer = self.sequencers.get(msg.sender)
        if sequencer is not None:
            sequencer.request_done(msg, data.copy() if data is not None else None)
