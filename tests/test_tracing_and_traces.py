"""Tests for the network trace ring."""

from repro.host.config import AccelOrg, SystemConfig
from repro.host.system import build_system


def _system(org=AccelOrg.XG, **kw):
    return build_system(SystemConfig(org=org, n_cpus=1, n_accel_cores=1, **kw))


def test_trace_ring_records_sends_on_both_networks():
    system = _system()
    system.accel_seqs[0].store(0x1000, 5)
    system.sim.run()
    trace = list(system.sim.trace)
    assert {entry[1] for entry in trace} == {"host", "accel"}
    for tick, _net, _mtype, addr, sender, dest, _note in trace:
        assert 0 <= tick <= system.sim.tick
        assert addr & ~63 == 0x1000
        assert sender and dest
