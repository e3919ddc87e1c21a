"""Unit tests for the interconnect fault-injection layer.

Covers the FaultPlan model itself (rates, windows, determinism) and its
integration with Network.send (drops never delivered, duplicates share a
uid, delays push arrivals out, corruption flips payload bytes, and every
injection is counted).
"""

import pytest

from repro.memory.datablock import DataBlock
from repro.obs.lineage import LineageTracker
from repro.sim.faults import (
    CORRUPT,
    DELAY,
    DROP,
    DUPLICATE,
    FAULT_KINDS,
    FaultPlan,
    FaultWindow,
    LinkFaults,
    single_link_plan,
)
from repro.sim.message import Message
from repro.sim.network import FixedLatency, Network
from repro.sim.simulator import Simulator
from repro.xg.interface import AccelMsg

from tests.helpers import RawAgent

ADDR = 0x9000


def _msg(sender="a", dest="b", data=None):
    return Message(AccelMsg.GetS, ADDR, sender=sender, dest=dest, data=data)


# -- model -------------------------------------------------------------------------


def test_fault_window_active_bounds():
    window = FaultWindow(100, 200, DROP)
    assert not window.active(99)
    assert window.active(100)
    assert window.active(199)
    assert not window.active(200)


def test_link_rate_combines_base_and_windows_clamped():
    link = LinkFaults(drop=0.3, windows=(FaultWindow(10, 20, DROP, rate=0.9),))
    assert link.rate(DROP, 5) == pytest.approx(0.3)
    assert link.rate(DROP, 15) == 1.0  # 0.3 + 0.9 clamps
    assert link.rate(DUPLICATE, 15) == 0.0


def test_zero_rate_plan_injects_nothing_and_draws_nothing():
    plan = FaultPlan(seed=1)
    plan.set_link("accel", LinkFaults())
    state = plan.rng.getstate()
    for _ in range(50):
        assert not plan.decide("accel", _msg(), tick=10)
    # Rate-guarded draws: a silent link must not consume randomness, so
    # adding a quiet link to a plan cannot shift every later decision.
    assert plan.rng.getstate() == state
    assert plan.total_injected == 0


def test_drop_preempts_other_faults():
    plan = single_link_plan({DROP: 1.0, DUPLICATE: 1.0, DELAY: 1.0, CORRUPT: 1.0})
    decision = plan.decide("accel", _msg(), tick=0)
    assert decision.drop
    assert not decision.duplicate and not decision.extra_delay and not decision.corrupt
    assert plan.stats[DROP] == 1


def test_unknown_net_untouched():
    plan = single_link_plan({DROP: 1.0}, link="accel")
    assert not plan.decide("host", _msg(), tick=0)


def test_directed_link_key_wins_over_net_name():
    plan = FaultPlan(seed=0)
    plan.set_link("accel", LinkFaults(drop=1.0))
    plan.set_link("accel:xg->adversary", LinkFaults())  # quiet override
    assert not plan.decide("accel", _msg(sender="xg", dest="adversary"), tick=0)
    assert plan.decide("accel", _msg(sender="adversary", dest="xg"), tick=0).drop


def test_corrupted_copy_never_a_noop():
    plan = single_link_plan({CORRUPT: 1.0})
    for _ in range(20):
        original = DataBlock(64)
        mutated = plan.corrupted_copy(original)
        assert mutated is not original
        assert any(
            mutated.read_byte(i) != original.read_byte(i) for i in range(64)
        )


def test_plan_as_dict_reports_rates_and_stats():
    plan = single_link_plan({DROP: 1.0}, seed=7)
    plan.decide("accel", _msg(), tick=0)
    report = plan.as_dict()
    assert report["seed"] == 7
    assert "drop=1.0" in report["links"]["accel"]
    assert report["injected"][DROP] == 1
    assert report["injected"][f"{DROP}.accel"] == 1
    assert report["total_injected"] == 1


def test_same_seed_same_decisions():
    msgs = [_msg() for _ in range(40)]
    outcomes = []
    for _ in range(2):
        plan = single_link_plan(
            {DROP: 0.3, DUPLICATE: 0.3, DELAY: 0.3, CORRUPT: 0.3}, seed=42
        )
        outcomes.append(
            [
                (d.drop, d.duplicate, d.extra_delay, d.corrupt) if d else None
                for d in (plan.decide("accel", m, tick=i) for i, m in enumerate(msgs))
            ]
        )
    assert outcomes[0] == outcomes[1]


# -- network integration ------------------------------------------------------------


def _net_pair(plan, ordered=True):
    sim = Simulator(seed=0)
    net = Network(sim, FixedLatency(3), ordered=ordered, name="accel", fault_plan=plan)
    src = RawAgent(sim, "src", net)
    dst = RawAgent(sim, "dst", net)
    return sim, net, src, dst


def test_network_drop_never_delivered():
    sim, net, src, dst = _net_pair(single_link_plan({DROP: 1.0}))
    src.send(AccelMsg.GetS, ADDR, "dst", "accel_request")
    sim.run()
    assert dst.received == []
    assert net.stats.get("fault.dropped") == 1


def test_network_duplicate_delivers_twice_same_uid():
    sim, net, src, dst = _net_pair(single_link_plan({DUPLICATE: 1.0}))
    sim.lineage = LineageTracker()
    first = src.send(AccelMsg.GetS, ADDR, "dst", "accel_request")
    second = src.send(AccelMsg.GetM, ADDR, "dst", "accel_request")
    sim.run()
    # Originals and replays share one delivery tail: the ordered lane
    # clamps all four onto consecutive ticks, each counted and traced.
    assert [tick for tick, _p, _m in dst.received] == [3, 4, 5, 6]
    uids = [msg.uid for _t, _p, msg in dst.received]
    assert uids == [first.uid, first.uid, second.uid, second.uid]
    assert [entry[-1] for entry in sim.trace] == ["", "dup", "", "dup"]
    assert net.stats.get("messages") == 4
    assert net.stats.get("fault.duplicated") == 2
    # Lineage books the modeled latency as wire for every delivery; the
    # replay's trailing tick and the lane clamp are queueing.
    records = list(sim.lineage.records.values())
    assert [rec.arrival for rec in records] == [3, 4, 5, 6]
    assert [rec.wire for rec in records] == [3, 3, 3, 3]


def test_network_delay_pushes_arrival_out():
    plan = single_link_plan({DELAY: 1.0}, delay_ticks=(50, 50))
    sim, net, src, dst = _net_pair(plan)
    src.send(AccelMsg.GetS, ADDR, "dst", "accel_request")
    sim.run()
    (tick, _port, _msg), = dst.received
    assert tick >= 50
    assert net.stats.get("fault.delayed") == 1


def test_network_corrupt_flips_payload():
    sim, net, src, dst = _net_pair(single_link_plan({CORRUPT: 1.0}))
    data = DataBlock(64)
    data.write_byte(0, 7)
    src.send(AccelMsg.DirtyWB, ADDR, "dst", "accel_response", data=data, dirty=True)
    sim.run()
    (_tick, _port, msg), = dst.received
    assert any(msg.data.read_byte(i) != (7 if i == 0 else 0) for i in range(64))
    assert net.stats.get("fault.corrupted") == 1


def test_network_blackhole_window_only_inside():
    plan = single_link_plan({}, windows=(FaultWindow(0, 10, DROP, rate=1.0),))
    sim, net, src, dst = _net_pair(plan)
    src.send(AccelMsg.GetS, ADDR, "dst", "accel_request")  # tick 0: eaten
    # past the window the same link is quiet again
    sim.schedule(15, lambda: src.send(AccelMsg.GetM, ADDR, "dst", "accel_request"))
    sim.run()
    assert [m.mtype for _t, _p, m in dst.received] == [AccelMsg.GetM]


def test_ordered_lane_order_survives_drops():
    """Dropped messages must not occupy FIFO lane slots: the survivors
    still arrive in send order with strictly increasing ticks."""
    plan = single_link_plan({DROP: 0.5}, seed=3)
    sim, net, src, dst = _net_pair(plan, ordered=True)
    for i in range(30):
        src.send(AccelMsg.GetS, ADDR + 64 * i, "dst", "accel_request")
    sim.run()
    arrivals = [t for t, _p, _m in dst.received]
    addrs = [m.addr for _t, _p, m in dst.received]
    assert arrivals == sorted(arrivals)
    assert addrs == sorted(addrs)  # relative order preserved
    assert 0 < len(dst.received) < 30
