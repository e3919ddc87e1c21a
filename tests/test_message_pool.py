"""Message uid and clone rules.

Every ``Message(...)`` draws the next uid from one global counter; a
``clone()`` is a wire-level duplicate that keeps its original's uid,
draws none, and owns a private copy of the payload. Golden digests and
ordered-lane tie-breaks rest on these uid streams.
"""

from repro.memory.datablock import DataBlock
from repro.sim.message import Message


def test_clone_keeps_uid_and_burns_no_counter_values():
    original = Message("fwd", 0x40, sender="a", dest="b", ack_count=3)
    dup = original.clone()
    assert dup is not original
    assert dup.uid == original.uid
    assert dup.mtype == original.mtype
    assert dup.ack_count == original.ack_count
    # The global uid counter did not advance for the clone: the next
    # real message is uid-adjacent to the original.
    follow_up = Message("m", 0)
    assert follow_up.uid == original.uid + 1


def test_clone_payload_is_private():
    block = DataBlock(fill=0x11)
    original = Message("data", 0x40, data=block)
    dup = original.clone()
    assert dup.data is not original.data
    dup.data.write_byte(0, 0xFF)
    assert original.data.read_byte(0) == 0x11
