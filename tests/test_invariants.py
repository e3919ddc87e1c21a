"""Tests for the whole-system invariant checker itself."""

import pytest

from repro.host.config import AccelOrg, HostProtocol, SystemConfig
from repro.host.system import build_system
from repro.protocols.mesi.l1 import L1State
from repro.testing.invariants import (
    InvariantError,
    InvariantWatchdog,
    check_all,
    check_quiescent,
    check_single_writer,
    check_value_consistency,
    check_xg_mirror,
)


def _drained_system(org=AccelOrg.XG):
    system = build_system(SystemConfig(org=org, n_cpus=2, n_accel_cores=1))
    system.cpu_seqs[0].store(0x1000, 5)
    system.sim.run()
    system.accel_seqs[0].load(0x1000)
    system.sim.run()
    system.cpu_seqs[1].load(0x1000)
    system.sim.run()
    return system


def test_clean_system_passes_all():
    assert check_all(_drained_system())


def test_quiescence_detects_open_tbe():
    system = _drained_system()
    system.cpu_caches[0].tbes.allocate(0x9000, L1State.IS_D)
    with pytest.raises(InvariantError):
        check_quiescent(system)


def test_single_writer_detects_two_owners():
    system = _drained_system()
    # forge a second M copy of a block another cache owns
    owner_entry = None
    for entry in system.cpu_caches[0].cache.entries():
        if entry.state in (L1State.E, L1State.M):
            owner_entry = entry
    if owner_entry is None:
        system.cpu_seqs[0].store(0x4000, 1)
        system.sim.run()
        owner_entry = system.cpu_caches[0].cache.lookup(0x4000, touch=False)
    system.cpu_caches[1].cache.allocate(owner_entry.addr, L1State.M)
    with pytest.raises(InvariantError):
        check_single_writer(system)


def test_value_consistency_detects_divergent_sharers():
    system = _drained_system()
    # find a block shared by CPU caches and corrupt one copy
    shared = None
    for entry in system.cpu_caches[0].cache.entries():
        if entry.state is L1State.S:
            other = system.cpu_caches[1].cache.lookup(entry.addr, touch=False)
            if other is not None and other.state is L1State.S:
                shared = (entry, other)
    assert shared is not None, "test setup should have produced sharing"
    shared[0].data.write_byte(0, 0xEE)
    with pytest.raises(InvariantError):
        check_value_consistency(system)


def test_mirror_detects_untracked_accel_block():
    system = _drained_system()
    from repro.accel.l1_single import AL1State

    system.accel_caches[0].cache.allocate(0x8000, AL1State.M)
    with pytest.raises(InvariantError):
        check_xg_mirror(system)


def test_mirror_detects_phantom_entry():
    system = _drained_system()
    system.xg.mirror_set(0x8040, "O", None)
    with pytest.raises(InvariantError):
        check_xg_mirror(system)


def test_baselines_skip_mirror_check():
    system = _drained_system(org=AccelOrg.ACCEL_SIDE)
    assert check_xg_mirror(system)  # no XG: vacuously true
    assert check_all(system)


# -- online invariant watchdog -----------------------------------------------------


def _watched_system(interval=500):
    system = build_system(
        SystemConfig(org=AccelOrg.XG, n_cpus=2, n_accel_cores=1,
                     invariant_interval=interval)
    )
    assert system.watchdog is not None
    return system


def test_watchdog_samples_during_clean_run():
    system = _watched_system()
    for i in range(30):
        system.cpu_seqs[i % 2].store(0x1000 + 64 * (i % 4), i)
        system.accel_seqs[0].load(0x1000 + 64 * (i % 4))
        system.sim.run()
    dog = system.watchdog
    assert dog.samples > 0
    assert dog.checks > 0, "the final drain sample alone guarantees one check"
    assert dog.violations == []
    report = dog.as_dict()
    assert report["samples"] == dog.samples
    assert report["checks"] + 0 >= 1


def test_watchdog_skips_midflight_samples():
    system = _watched_system(interval=1)
    system.cpu_seqs[0].store(0x1000, 5)
    system.accel_seqs[0].load(0x1000)
    system.sim.run()
    dog = system.watchdog
    # With a 1-tick interval most samples land mid-transaction and must be
    # skipped, not raise false single-writer/mirror alarms.
    assert dog.skipped > 0
    assert dog.samples == dog.checks + dog.skipped
    assert dog.violations == []


def test_watchdog_catches_seeded_corruption_with_forensics():
    system = _watched_system()
    system.cpu_seqs[0].store(0x1000, 5)
    system.sim.run()
    # Corrupt XG's mirror: it now claims the accelerator holds a block the
    # accelerator has never seen.
    system.xg.mirror_set(0x8040, "O", None)
    with pytest.raises(InvariantError) as exc_info:
        system.watchdog.sample(system.sim, final=True)
    record = exc_info.value.forensics
    assert record["tick"] == system.sim.tick
    assert "mirror" in record["error"]
    assert record["quarantine"][0]["state"] == "healthy"
    assert system.watchdog.violations == [record]


def test_watchdog_never_schedules_events_or_touches_stats():
    system = _watched_system()
    system.cpu_seqs[0].store(0x1000, 5)
    system.sim.run()
    fired_before = system.sim._events_fired
    queue_before = len(system.sim.events)
    stats_before = {c.name: c.stats.as_dict() for c in system.sim.components}
    system.watchdog.sample(system.sim, final=True)
    assert system.sim._events_fired == fired_before
    assert len(system.sim.events) == queue_before
    assert {c.name: c.stats.as_dict() for c in system.sim.components} == stats_before
