"""Directed tests for the Intel-like MESIF host protocol and its XG port."""

import pytest

from repro.host.config import AccelOrg, HostProtocol, SystemConfig
from repro.host.cpu import Sequencer
from repro.host.system import build_system
from repro.memory.main_memory import MainMemory
from repro.protocols.mesif.l1 import FL1State, MesifL1
from repro.protocols.mesif.l2 import FL2State, MesifL2
from repro.sim.network import FixedLatency, Network
from repro.sim.simulator import Simulator
from repro.testing.invariants import check_all
from repro.testing.random_tester import RandomTester
from repro.xg.interface import XGVariant


class MesifHost:
    def __init__(self, n_cpus=3, l1_sets=4, l1_assoc=2, l2_sets=8, l2_assoc=4, seed=0):
        self.sim = Simulator(seed=seed, deadlock_threshold=500_000)
        self.net = Network(self.sim, FixedLatency(1), name="host")
        self.memory = MainMemory(latency=10)
        self.l2 = MesifL2(self.sim, "l2", self.net, self.memory,
                          num_sets=l2_sets, assoc=l2_assoc)
        self.net.attach(self.l2)
        self.l1s = []
        self.seqs = []
        for i in range(n_cpus):
            l1 = MesifL1(self.sim, f"l1.{i}", self.net, "l2",
                         num_sets=l1_sets, assoc=l1_assoc)
            self.net.attach(l1)
            seq = Sequencer(self.sim, f"cpu.{i}")
            seq.attach(l1)
            self.l1s.append(l1)
            self.seqs.append(seq)

    def load(self, cpu, addr):
        out = {}
        self.seqs[cpu].load(addr, lambda m, d: out.update(data=d))
        self.sim.run()
        return out["data"]

    def store(self, cpu, addr, value):
        self.seqs[cpu].store(addr, value)
        self.sim.run()


def test_first_load_exclusive_then_f_inheritance():
    host = MesifHost()
    host.load(0, 0x1000)
    assert host.l1s[0].block_state(0x1000) is FL1State.E
    host.load(1, 0x1000)  # owner downgrades; requestor inherits F
    assert host.l1s[0].block_state(0x1000) is FL1State.S
    assert host.l1s[1].block_state(0x1000) is FL1State.F
    entry = host.l2.cache.lookup(0x1000, touch=False)
    assert entry.meta["f_holder"] == "l1.1"
    host.load(2, 0x1000)  # cache-to-cache forward from the F holder
    assert host.l1s[1].block_state(0x1000) is FL1State.S
    assert host.l1s[2].block_state(0x1000) is FL1State.F
    assert host.l1s[1].stats.get("f_transfers") == 1


def test_load_miss_then_hit_counted_like_mesi():
    """The MESIF L1 reports the MESI L1's miss, hit and latency counters."""
    host = MesifHost()
    host.load(0, 0x1000)
    host.load(0, 0x1000)
    assert host.l1s[0].stats.get("l1_load_misses") == 1
    assert host.l1s[0].stats.get("l1_load_hits") == 1
    assert host.sim.stats_for("latency").histogram("l1_miss_latency").count == 1


def test_silent_eviction_then_fnack_fallback():
    host = MesifHost(l1_sets=1, l1_assoc=1)
    host.store(0, 0x1000, 7)
    host.load(1, 0x1000)  # l1.1 takes F
    host.load(1, 0x2000)  # silently evicts the F block (1-way cache)
    assert host.l1s[1].block_state(0x1000) is FL1State.I
    assert host.l1s[1].stats.get("silent_sf_evictions") >= 1
    # l2 still records l1.1 as F holder; the forward bounces and the L2
    # serves the data itself.
    data = host.load(2, 0x1000)
    assert data.read_byte(0) == 7
    assert host.l2.stats.get("fnack_fallbacks") == 1
    assert host.l1s[2].block_state(0x1000) is FL1State.F


def test_stale_sharer_invalidation_acked_from_i():
    host = MesifHost(l1_sets=1, l1_assoc=1)
    host.store(0, 0x1000, 1)
    host.load(1, 0x1000)
    host.load(1, 0x2000)  # silent eviction -> conservative sharer list
    host.store(0, 0x1000, 2)  # Inv fan-out hits the stale sharer
    assert host.l1s[1].stats.get("stale_invs_acked") >= 1
    assert host.load(1, 0x1000).read_byte(0) == 2


def test_store_invalidates_f_and_s_holders():
    host = MesifHost()
    host.load(0, 0x1000)
    host.load(1, 0x1000)
    host.load(2, 0x1000)
    host.store(0, 0x1000, 9)
    assert host.l1s[0].block_state(0x1000) is FL1State.M
    for i in (1, 2):
        assert host.l1s[i].block_state(0x1000) is FL1State.I
    assert host.load(2, 0x1000).read_byte(0) == 9


def test_no_puts_messages_exist():
    host = MesifHost(l1_sets=1, l1_assoc=1)
    host.load(0, 0x1000)
    host.load(1, 0x1000)
    host.load(1, 0x2000)  # silent
    from repro.protocols.mesif.messages import MesifMsg

    assert not hasattr(MesifMsg, "PutS")
    assert host.net.stats.get("msg.PutE", 0) + host.net.stats.get("msg.PutM", 0) >= 0


def test_owner_dirty_writeback_path():
    host = MesifHost(l1_sets=1, l1_assoc=1, l2_sets=1, l2_assoc=1)
    host.store(0, 0x1000, 42)
    host.store(0, 0x1040, 43)  # L1 PutM; then L2 eviction to memory
    assert host.memory.peek(0x1000).read_byte(0) == 42


def test_xg_declines_f_role():
    """XG takes a DataF grant as S for the accelerator, and FNacks the
    responder probe — the L2 serves the next reader itself."""
    system = build_system(
        SystemConfig(host=HostProtocol.MESIF, org=AccelOrg.XG, n_cpus=2, n_accel_cores=1)
    )

    def op(seq, kind, addr, value=None):
        out = {}
        if kind == "load":
            seq.load(addr, lambda m, d: out.update(data=d))
        else:
            seq.store(addr, value)
        system.sim.run()
        return out.get("data")

    op(system.cpu_seqs[0], "store", 0x3000, 5)
    op(system.cpu_seqs[0], "load", 0x9000)  # just traffic
    op(system.accel_seqs[0], "load", 0x3000)  # accel becomes "F holder"
    assert system.xg.stats.get("f_grants_taken_as_s") == 1
    data = op(system.cpu_seqs[1], "load", 0x3000)  # Fwd_GetS_F -> XG -> FNack
    assert data.read_byte(0) == 5
    assert system.xg.stats.get("f_roles_declined") == 1
    assert system.directory.stats.get("fnack_fallbacks") == 1
    # the accelerator's S copy survived the declined probe
    data = op(system.accel_seqs[0], "load", 0x3000)
    assert data.read_byte(0) == 5
    assert len(system.error_log) == 0
    check_all(system)


def test_accel_put_s_has_no_host_message():
    system = build_system(
        SystemConfig(
            host=HostProtocol.MESIF, org=AccelOrg.XG,
            accel_l1_sets=1, accel_l1_assoc=1, n_cpus=1, n_accel_cores=1,
        )
    )

    def op(seq, kind, addr, value=None):
        if kind == "load":
            seq.load(addr)
        else:
            seq.store(addr, value)
        system.sim.run()

    op(system.cpu_seqs[0], "store", 0x3000, 1)
    op(system.cpu_seqs[0], "store", 0x9000, 1)  # keep 0x3000 shared later
    op(system.accel_seqs[0], "load", 0x3000)  # accel S/F-as-S... shared grant
    op(system.accel_seqs[0], "load", 0x4000)  # evicts -> accel PutS
    assert system.xg.stats.get("puts_absorbed_no_host_message") >= 0
    assert len(system.error_log) == 0


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("variant", [XGVariant.FULL_STATE, XGVariant.TRANSACTIONAL],
                         ids=["full", "txn"])
@pytest.mark.parametrize("levels", [1, 2], ids=["L1", "L2"])
def test_mesif_xg_stress(seed, variant, levels):
    config = SystemConfig(
        host=HostProtocol.MESIF, org=AccelOrg.XG, xg_variant=variant,
        accel_levels=levels, n_cpus=2, n_accel_cores=2,
        cpu_l1_sets=2, cpu_l1_assoc=1, shared_l2_sets=4, shared_l2_assoc=2,
        accel_l1_sets=2, accel_l1_assoc=1, accel_l2_sets=2, accel_l2_assoc=2,
        randomize_latencies=True, seed=seed, deadlock_threshold=300_000,
        accel_timeout=100_000, mem_latency=30,
    )
    system = build_system(config)
    tester = RandomTester(
        system.sim, system.sequencers, [0x1000 + 64 * i for i in range(5)],
        ops_target=2000, store_fraction=0.45,
    )
    tester.run()
    assert tester.loads_checked > 800
    assert len(system.error_log) == 0
    check_all(system)
