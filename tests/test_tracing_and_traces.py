"""Tests for the network trace ring and trace-driven workloads."""

import pytest

from repro.host.config import AccelOrg, HostProtocol, SystemConfig
from repro.host.system import build_system
from repro.workloads.synthetic import WorkloadDriver, run_drivers, streaming
from repro.workloads.trace import (
    TraceOp,
    TraceRecorder,
    load_trace,
    replay_drivers,
    save_trace,
    split_by_agent,
)


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


def test_recorder_captures_issued_ops():
    system = _system()
    recorder = TraceRecorder(system.sequencers)
    driver = WorkloadDriver(
        system.sim, system.accel_seqs[0], streaming(0x4000, 10, seed=0), max_outstanding=2
    )
    run_drivers(system.sim, [driver])
    assert len(recorder) == driver.issued
    assert all(op.agent == "accel.0" for op in recorder.ops)
    recorder.detach()
    system.accel_seqs[0].load(0x4000)
    system.sim.run()
    assert len(recorder) == driver.issued  # detached: nothing new


def test_trace_save_load_roundtrip(tmp_path):
    ops = [
        TraceOp("accel.0", "store", 0x1000, 5),
        TraceOp("cpu.0", "load", 0x1001, None),
    ]
    path = tmp_path / "trace.jsonl"
    save_trace(ops, path)
    assert load_trace(path) == ops


def test_split_by_agent_preserves_order():
    ops = [
        TraceOp("a", "load", 1),
        TraceOp("b", "load", 2),
        TraceOp("a", "store", 3, 7),
    ]
    streams = split_by_agent(ops)
    assert streams["a"] == [("load", 1, None), ("store", 3, 7)]
    assert streams["b"] == [("load", 2, None)]


def test_record_on_one_config_replay_on_another(tmp_path):
    """The headline use: capture on the unsafe baseline, replay through
    Crossing Guard, compare runtimes on identical op streams."""
    source = _system(org=AccelOrg.ACCEL_SIDE)
    recorder = TraceRecorder(source.sequencers)
    drivers = [
        WorkloadDriver(source.sim, source.accel_seqs[0], streaming(0x4000, 12, seed=1)),
        WorkloadDriver(source.sim, source.cpu_seqs[0], streaming(0x8000, 6, seed=2)),
    ]
    baseline_ticks = run_drivers(source.sim, drivers)
    path = tmp_path / "t.jsonl"
    recorder.save(path)

    target = _system(org=AccelOrg.XG)
    replay = replay_drivers(target, load_trace(path), agent_map={"accel.0": "accel.0"})
    xg_ticks = run_drivers(target.sim, replay)
    assert xg_ticks > 0 and baseline_ticks > 0
    assert all(d.finished for d in replay)
    assert len(target.error_log) == 0


def test_replay_round_robins_unknown_agents():
    system = _system()
    ops = [TraceOp("mystery.9", "load", 0x1000), TraceOp("cpu.7", "load", 0x2000)]
    drivers = replay_drivers(system, ops)
    assert len(drivers) == 2
    run_drivers(system.sim, drivers)
