"""Tick-based event queue: one heap of ``(tick, seq)`` pairs.

Events are callbacks scheduled at an absolute tick. ``seq`` grows by one
per schedule and is never reused, so it is both the tie-break (same-tick
entries fire in insertion order) and the int token :meth:`cancel` takes.
The heap holds only int pairs, compared in C; ``_calls`` maps each live
``seq`` to its bare callback, or to ``(callback, args)`` when it has
arguments.

A cancel drops the ``_calls`` entry and leaves its pair in the heap. The
drain in :meth:`repro.sim.simulator.Simulator.run` and :meth:`peek_tick`
skip pairs whose ``seq`` is gone, and :meth:`cancel` rebuilds the heap in
place once such garbage dominates it.
"""

import heapq


class EventQueue:
    """A deterministic queue of callbacks ordered by ``(tick, seq)``.

    ``len()`` counts live (scheduled, not yet fired or cancelled) entries.
    """

    #: A cancel rebuilds the heap once it holds more than
    #: ``2 * len(self) + COMPACT_MIN`` pairs.
    COMPACT_MIN = 64

    def __init__(self):
        self._heap = []
        self._calls = {}
        self._seq = 0

    def schedule(self, tick, callback, *args):
        """Schedule ``callback(*args)`` at absolute ``tick``; returns its token."""
        if tick < 0:
            raise ValueError(f"cannot schedule at negative tick {tick}")
        seq = self._seq + 1
        self._seq = seq
        self._calls[seq] = (callback, args) if args else callback
        heapq.heappush(self._heap, (tick, seq))
        return seq

    def cancel(self, token):
        """Drop the entry ``token`` names; False if it already fired or was cancelled."""
        calls = self._calls
        if calls.pop(token, None) is None:
            return False
        heap = self._heap
        if len(heap) > 2 * len(calls) + self.COMPACT_MIN:
            # in place: the run loop holds this list
            heap[:] = [pair for pair in heap if pair[1] in calls]
            heapq.heapify(heap)
        return True

    def peek_tick(self):
        """Tick of the earliest live entry, or None when none is left."""
        heap = self._heap
        calls = self._calls
        while heap:
            tick, seq = heap[0]
            if seq in calls:
                return tick
            heapq.heappop(heap)
        return None

    def __len__(self):
        return len(self._calls)
