"""Tests for the system builder and the 12-configuration matrix."""

import pytest

from repro.host.config import (
    AccelOrg,
    HostProtocol,
    SystemConfig,
    all_evaluated_configs,
)
from repro.host.system import build_system
from repro.xg.interface import XGVariant


def test_matrix_has_twelve_configs():
    configs = all_evaluated_configs()
    assert len(configs) == 12
    labels = [c.label for c in configs]
    assert len(set(labels)) == 12
    assert "hammer/accel-side" in labels
    assert "mesi/xg-txn-L2" in labels


@pytest.mark.parametrize("config", all_evaluated_configs(), ids=lambda c: c.label)
def test_every_config_builds_and_runs(config):
    system = build_system(config)
    done = []
    system.accel_seqs[0].store(0x5000, 7, lambda m, d: done.append(d.read_byte(0)))
    system.sim.run()
    assert done == [7]
    out = []
    system.cpu_seqs[0].load(0x5000, lambda m, d: out.append(d.read_byte(0)))
    system.sim.run()
    assert out == [7], "accelerator store must be coherent with CPU loads"


def test_xg_config_has_guard_and_permissions():
    system = build_system(SystemConfig(org=AccelOrg.XG))
    assert system.xg is not None
    assert system.error_log is not None
    assert system.permissions is not None
    assert "xg" in system.host_net.endpoints()
    assert "xg" in system.accel_net.endpoints()


def test_baselines_have_no_guard():
    for org in (AccelOrg.ACCEL_SIDE, AccelOrg.HOST_SIDE):
        system = build_system(SystemConfig(org=org))
        assert system.xg is None
        assert system.error_log is None


def test_two_level_config_builds_accel_l2():
    system = build_system(SystemConfig(org=AccelOrg.XG, accel_levels=2, n_accel_cores=3))
    assert system.accel_l2 is not None
    assert len(system.accel_caches) == 3
    assert len(system.accel_seqs) == 3


def test_hammer_counts_xg_as_peer():
    system = build_system(SystemConfig(host=HostProtocol.HAMMER, org=AccelOrg.XG, n_cpus=2))
    # 2 CPU caches + XG on the broadcast fabric
    assert sorted(system.directory.cache_names) == ["cpu_l1.0", "cpu_l1.1", "xg"]
    assert system.xg.n_peers == 2
    for cache in system.cpu_caches:
        assert cache.n_peers == 2


def test_hosts_tolerant_only_with_xg():
    with_xg = build_system(SystemConfig(host=HostProtocol.MESI, org=AccelOrg.XG))
    without = build_system(SystemConfig(host=HostProtocol.MESI, org=AccelOrg.ACCEL_SIDE))
    assert with_xg.directory.xg_tolerant
    assert not without.directory.xg_tolerant


def test_accel_net_is_ordered_host_net_is_not():
    system = build_system(SystemConfig(org=AccelOrg.XG))
    assert system.accel_net.ordered
    assert not system.host_net.ordered


def test_host_side_sequencers_pay_the_crossing():
    config = SystemConfig(org=AccelOrg.HOST_SIDE, crossing_latency=40)
    system = build_system(config)
    assert all(s.issue_latency == 40 for s in system.accel_seqs)
    assert all(s.response_latency == 40 for s in system.accel_seqs)
    assert all(s.issue_latency == 1 for s in system.cpu_seqs)


def test_adversary_tag_builds_adversary():
    config = SystemConfig(
        org=AccelOrg.XG,
        tags={"adversary": ("deaf", {"addr_pool": [0x1000]})},
    )
    system = build_system(config)
    from repro.accel.buggy import DeafAccel

    assert isinstance(system.accel_caches[0], DeafAccel)
    assert system.accel_caches[0].watchdog_exempt
