"""Unit tests for main memory, TBE tables, and stats."""

import pytest

from repro.coherence.tbe import TBETable
from repro.memory.datablock import DataBlock
from repro.memory.main_memory import MainMemory
from repro.sim.stats import Stats


def test_memory_reads_zero_when_unwritten():
    mem = MainMemory()
    assert mem.read(0x1234).is_zero()


def test_memory_write_read_roundtrip():
    mem = MainMemory()
    data = DataBlock()
    data.write_byte(7, 0x7E)
    mem.write(0x1000, data)
    assert mem.read(0x1007 & ~63).read_byte(7) == 0x7E


def test_memory_copies_on_write_and_read():
    mem = MainMemory()
    data = DataBlock()
    mem.write(0x0, data)
    data.write_byte(0, 99)  # must not leak into memory
    assert mem.read(0x0).read_byte(0) == 0
    out = mem.read(0x0)
    out.write_byte(0, 42)
    assert mem.peek(0x0).read_byte(0) == 0


def test_memory_counts_accesses_but_peek_does_not():
    mem = MainMemory()
    mem.read(0x0)
    mem.write(0x0, DataBlock())
    mem.peek(0x0)
    assert mem.reads == 1 and mem.writes == 1


def test_memory_block_size_mismatch():
    mem = MainMemory(block_size=64)
    with pytest.raises(ValueError):
        mem.write(0x0, DataBlock(size=128))


def test_tbe_lifecycle():
    table = TBETable(name="t")
    tbe = table.allocate(0x40, "BUSY", now=10)
    assert table.lookup(0x40) is tbe
    assert 0x40 in table and len(table) == 1
    assert tbe.opened_at == 10
    table.deallocate(0x40)
    assert table.lookup(0x40) is None


def test_tbe_double_allocate_rejected():
    table = TBETable()
    table.allocate(0x40, "A")
    with pytest.raises(ValueError):
        table.allocate(0x40, "B")


def test_tbe_high_water():
    table = TBETable()
    table.allocate(0x0, "A")
    table.allocate(0x40, "A")
    table.deallocate(0x0)
    table.allocate(0x80, "A")
    assert len(table) == 2 and table.high_water == 2
    table.allocate(0xC0, "A")
    table.deallocate(0x40)
    table.deallocate(0x80)
    assert len(table) == 1 and table.high_water == 3


def test_tbe_ack_helper():
    table = TBETable()
    tbe = table.allocate(0x0, "A")
    tbe.acks_needed = 2
    assert not tbe.all_acks_in
    tbe.acks_received = 2
    assert tbe.all_acks_in


def test_stats_counters_and_histograms():
    stats = Stats("x")
    stats.inc("a")
    stats.inc("a", 4)
    stats.observe("lat", 10)
    stats.observe("lat", 30)
    assert stats.get("a") == 5
    hist = stats.histogram("lat")
    assert hist.count == 2 and hist.mean == 20 and hist.min == 10 and hist.max == 30


def test_stats_as_dict():
    stats = Stats()
    stats.inc("k")
    stats.observe("h", 1)
    report = stats.as_dict()
    assert report["k"] == 1
    assert report["h"]["count"] == 1
