"""Generic coherence message carrier.

Each protocol defines its own message-type enum; the :class:`Message` object
itself is protocol-agnostic and carries the handful of fields coherence
protocols need (address, data payload, requestor identity, ack counts,
dirty bits). Unused fields stay at their defaults.

Every ``Message(...)`` call allocates a fresh instance and draws the
next ``uid`` from one process-global counter, so uids are unique and
increasing across every system in the process; nothing rewinds the
counter. No simulated result depends on a uid's value: snapshots,
canonical text and golden digests leave uids out, equal-tick arrivals
are ordered by each port buffer's own sequence numbers, and XG's
duplicate filter and the sequencers' outstanding-request maps only
compare uids for equality. :meth:`Message.clone` copies the uid of its
original without consuming a counter value.
"""

import itertools

_MSG_IDS = itertools.count()


class Message:
    """One coherence message in flight.

    Attributes:
        mtype: protocol-specific enum member naming the message.
        addr: block-aligned physical address the message concerns.
        sender: name of the controller that sent the message.
        dest: name of the destination controller.
        data: optional :class:`~repro.memory.datablock.DataBlock` payload.
        requestor: for forwarded requests, the original requestor's name
            (responses go there rather than back to the directory).
        ack_count: number of invalidation acks the receiver should expect,
            or for ack messages, how many acks this message is worth.
        dirty: True when the payload is modified with respect to memory.
        shared_hint: Hammer-style hint that the responder held the block
            (decides S vs E at the requestor).
        uid: process-unique id, shared by a message and its clones; for
            tracing and duplicate detection.
    """

    __slots__ = (
        "mtype",
        "addr",
        "sender",
        "dest",
        "data",
        "requestor",
        "ack_count",
        "dirty",
        "shared_hint",
        "value",
        "uid",
        "send_tick",
    )

    # All construction happens in __new__ so ``Message(...)`` costs a
    # single Python frame (object.__init__ is a C-level no-op when
    # __new__ is overridden).
    def __new__(
        cls,
        mtype=None,
        addr=0,
        sender="",
        dest="",
        data=None,
        requestor=None,
        ack_count=0,
        dirty=False,
        shared_hint=False,
        value=None,
    ):
        self = object.__new__(cls)
        self.mtype = mtype
        self.addr = addr
        self.sender = sender
        self.dest = dest
        self.data = data
        self.requestor = requestor
        self.ack_count = ack_count
        self.dirty = dirty
        self.shared_hint = shared_hint
        self.value = value
        self.uid = next(_MSG_IDS)
        self.send_tick = None
        return self

    def clone(self):
        """A wire-level duplicate: same fields and ``uid``, private payload.

        Fault injection uses this to model link-layer replay — the
        duplicate is the *same* logical message (receivers may dedupe it
        by uid) but carries an independent copy of the data so neither
        delivery can corrupt the other. Cloning does not consume a uid
        from the global counter: wire duplicates keep uid streams dense.
        """
        # Raw allocation: bypasses the uid counter (Message.__new__
        # would draw a fresh uid).
        dup = object.__new__(Message)
        dup.mtype = self.mtype
        dup.addr = self.addr
        dup.sender = self.sender
        dup.dest = self.dest
        dup.data = self.data.copy() if self.data is not None else None
        dup.requestor = self.requestor
        dup.ack_count = self.ack_count
        dup.dirty = self.dirty
        dup.shared_hint = self.shared_hint
        dup.value = self.value
        dup.uid = self.uid
        dup.send_tick = self.send_tick
        return dup

    def __repr__(self):
        fields = [
            f"{getattr(self.mtype, 'name', self.mtype)}",
            f"addr={self.addr:#x}" if isinstance(self.addr, int) else f"addr={self.addr}",
            f"{self.sender}->{self.dest}",
        ]
        if self.requestor is not None:
            fields.append(f"req={self.requestor}")
        if self.ack_count:
            fields.append(f"acks={self.ack_count}")
        if self.data is not None:
            fields.append("+data")
        if self.dirty:
            fields.append("dirty")
        return f"Message({', '.join(fields)})"
