"""Set-associative cache array with LRU replacement.

The array stores *stable-state* entries only; in-flight blocks live in TBEs
(see :mod:`repro.coherence.tbe`). Entries carry a protocol state, a data
block, and arbitrary per-protocol metadata (sharer sets, permission bits).
"""

from repro.memory.datablock import BLOCK_SIZE, DataBlock, block_align


class CacheEntry:
    """One resident cache block."""

    __slots__ = ("addr", "state", "data", "dirty", "permission", "meta", "last_use")

    def __init__(self, addr, state, data, dirty=False, permission=None):
        self.addr = addr
        self.state = state
        self.data = data
        self.dirty = dirty
        self.permission = permission
        self.meta = {}
        self.last_use = 0

    def __repr__(self):
        state = getattr(self.state, "name", self.state)
        return f"CacheEntry(addr={self.addr:#x}, state={state}, dirty={self.dirty})"


class CacheArray:
    """Set-associative array of :class:`CacheEntry` with true-LRU victims."""

    def __init__(self, num_sets, assoc, block_size=BLOCK_SIZE, name=""):
        if num_sets < 1 or assoc < 1:
            raise ValueError("num_sets and assoc must be >= 1")
        if num_sets & (num_sets - 1):
            raise ValueError("num_sets must be a power of two")
        self.num_sets = num_sets
        self.assoc = assoc
        self.block_size = block_size
        self.name = name
        self._sets = [dict() for _ in range(num_sets)]
        self._use_clock = 0

    # -- indexing ------------------------------------------------------------

    def set_index(self, addr):
        return (addr // self.block_size) % self.num_sets

    def _set_for(self, addr):
        return self._sets[self.set_index(addr)]

    # -- lookup ---------------------------------------------------------------

    def lookup(self, addr, touch=True):
        """Entry for ``addr``'s block, or None. ``touch`` updates LRU."""
        addr = block_align(addr, self.block_size)
        entry = self._set_for(addr).get(addr)
        if entry is not None and touch:
            self._use_clock += 1
            entry.last_use = self._use_clock
        return entry

    def __contains__(self, addr):
        return self.lookup(addr, touch=False) is not None

    # -- allocation -----------------------------------------------------------

    def is_set_full(self, addr):
        return len(self._set_for(block_align(addr, self.block_size))) >= self.assoc

    def allocate(self, addr, state, data=None, dirty=False, permission=None):
        """Insert a new entry; the set must have space (caller evicts first)."""
        addr = block_align(addr, self.block_size)
        target_set = self._set_for(addr)
        if addr in target_set:
            raise ValueError(f"{self.name}: double allocate of {addr:#x}")
        if len(target_set) >= self.assoc:
            raise ValueError(f"{self.name}: set full, evict before allocating {addr:#x}")
        if data is None:
            data = DataBlock(self.block_size)
        entry = CacheEntry(addr, state, data, dirty=dirty, permission=permission)
        self._use_clock += 1
        entry.last_use = self._use_clock
        target_set[addr] = entry
        return entry

    def deallocate(self, addr):
        """Remove the entry for ``addr``; returns it (KeyError if absent)."""
        addr = block_align(addr, self.block_size)
        return self._set_for(addr).pop(addr)

    def victim(self, addr):
        """LRU entry in ``addr``'s set (candidate for eviction), or None."""
        target_set = self._set_for(block_align(addr, self.block_size))
        if not target_set:
            return None
        return min(target_set.values(), key=lambda entry: entry.last_use)

    # -- replacement against open transactions ---------------------------------

    def fill_room(self, addr, tbes):
        """Free ways in ``addr``'s set, net of fills already promised one.

        ``tbes`` is the owner's :class:`~repro.coherence.tbe.TBETable`; an
        open transaction with ``meta["needs_slot"]`` set holds a way in its
        set for the fill it is waiting on.
        """
        set_index = self.set_index(addr)
        reserved = sum(
            1
            for tbe in tbes
            if tbe.meta.get("needs_slot") and self.set_index(tbe.addr) == set_index
        )
        return self.assoc - len(self._sets[set_index]) - reserved

    def stable_victim(self, addr, tbes):
        """LRU entry in ``addr``'s set with no open transaction, or None.

        An entry with a TBE in ``tbes`` is mid-transaction and cannot be
        evicted.
        """
        candidates = [
            entry for entry in self._set_for(addr).values() if entry.addr not in tbes
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda entry: entry.last_use)

    # -- inspection -----------------------------------------------------------

    def entries(self):
        """All resident entries (order unspecified)."""
        for target_set in self._sets:
            yield from target_set.values()

    def occupancy(self):
        return sum(len(target_set) for target_set in self._sets)

    @property
    def capacity_blocks(self):
        return self.num_sets * self.assoc

    @property
    def capacity_bytes(self):
        return self.capacity_blocks * self.block_size

    def __repr__(self):
        return (
            f"CacheArray({self.name!r}, sets={self.num_sets}, assoc={self.assoc}, "
            f"occupancy={self.occupancy()}/{self.capacity_blocks})"
        )
