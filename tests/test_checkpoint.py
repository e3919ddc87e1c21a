"""Checkpoint and restore of a built system (``System.checkpoint``).

The explorer's byte-identity rests on these: a restored state must be
the state a replay from reset reaches, down to the physical history a
snapshot erases (ticks, uids, LRU clocks, the event queue).
"""

import random

import pytest

from repro.coherence.tbe import TBETable
from repro.host.checkpoint import CheckpointError, fixed_objects, unclassified
from repro.host.config import AccelOrg, HostProtocol, SystemConfig
from repro.host.system import build_system
from repro.memory.cache_array import CacheArray
from repro.sim.component import MessageBuffer
from repro.testing.golden import memory_digest, state_digest, stats_digest
from repro.testing.random_tester import RandomTester
from repro.verify.explorer import (
    HOSTS, VARIANTS, ExplorationError, ExplorerHarness, replay_path)
from repro.xg.interface import XGVariant

BLOCKS = [0x1000 + 64 * i for i in range(6)]


def _fingerprint(harness):
    """Canonical text plus the physical state a snapshot leaves out."""
    sim = harness.sim
    return (
        harness.canonical(),
        sim.tick,
        sim._events_fired,
        harness.checkpoint().uid - harness.root.uid,
        tuple(comp.cache._use_clock for comp in sim.components
              if isinstance(getattr(comp, "cache", None), CacheArray)),
        sim.events._live,
    )


def _fresh(cell, path=()):
    """A fresh harness replaying ``path`` from reset, its root checkpoint
    (the uid base of :func:`_fingerprint`) taken before the first action."""
    harness = replay_path(cell, [])
    harness.root
    for action in path:
        harness.apply(action)
    return harness


def _walk(cell, seed, steps=6, burst=3):
    """Checkpoint, take ``burst`` random actions, restore, take them again:
    both runs must equal a fresh replay of the whole path from reset."""
    rng = random.Random(seed)
    harness = _fresh(cell)
    path = []
    for _ in range(steps):
        before = harness.checkpoint()
        actions = []
        for _ in range(burst):
            enabled = harness.enabled_actions()
            if not enabled:
                break
            actions.append(rng.choice(enabled))
            harness.apply(actions[-1])
        first = _fingerprint(harness)
        harness.restore(before)
        for action in actions:
            harness.apply(action)
        second = _fingerprint(harness)
        after = harness.checkpoint()
        path.extend(actions)
        reference = _fingerprint(_fresh(cell, path))
        assert first == second == reference, (cell, seed, path)
        # building the reference advanced the process-global uid counter;
        # restoring puts the walk back on its own timeline
        harness.restore(after)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("host", sorted(HOSTS))
def test_restore_matches_replay_from_reset(host, variant):
    for n_cpus in (1, 2):
        for addresses in (1, 2):
            cell = {"host": host, "variant": variant,
                    "addresses": addresses, "n_cpus": n_cpus}
            for seed in range(2):
                _walk(cell, f"{host}/{variant}/{n_cpus}/{addresses}/{seed}")


def test_restore_keeps_coverage_live():
    """``fire`` closes over ``coverage``: a restore must refill that dict,
    so transitions fired afterwards still land in ``comp.coverage``."""
    harness = ExplorerHarness({"host": "mesi", "variant": "full_state",
                               "addresses": 1, "n_cpus": 1})
    root = harness.checkpoint()
    harness.apply(("issue", 0, "store", 0x40))
    harness.restore(root)
    counts = {comp.name: (comp.coverage, sum(comp.coverage.values()))
              for comp in harness.system.controllers()}
    harness.apply(("issue", 0, "store", 0x40))
    l1 = harness.system.cpu_caches[0]
    coverage, before = counts[l1.name]
    assert l1.coverage is coverage
    assert sum(l1.coverage.values()) > before
    assert l1.fire.__closure__ and any(
        cell.cell_contents is coverage for cell in l1.fire.__closure__)


def test_restore_refills_parked_messages_in_place():
    harness = ExplorerHarness({"host": "hammer", "variant": "transactional",
                               "addresses": 1, "n_cpus": 1})
    parked = harness.parked
    root = harness.root
    harness.apply(("issue", 0, "load", 0x40))
    assert parked
    harness.restore(root)
    assert harness.parked is parked and not parked


def test_checkpoint_is_compact():
    harness = ExplorerHarness({"host": "mesi", "variant": "full_state",
                               "addresses": 2, "n_cpus": 2})
    rng = random.Random(5)
    for _ in range(20):
        harness.apply(rng.choice(harness.enabled_actions()))
    assert len(harness.checkpoint().data) < 8192


def test_checkpoint_from_another_system_is_refused():
    cell = {"host": "mesi", "variant": "full_state", "addresses": 1, "n_cpus": 1}
    one, two = ExplorerHarness(cell), ExplorerHarness(cell)
    with pytest.raises(CheckpointError):
        two.system.restore(one.root)


# -- whole systems, beyond the explorer's cells --------------------------------


def _golden_size_config(host, org, variant=XGVariant.FULL_STATE, accel_levels=1):
    """The golden stress geometry, without the telemetry hub and the
    watchdog monitor (they keep their own state, which checkpoints refuse)."""
    return SystemConfig(
        host=host, org=org, xg_variant=variant, accel_levels=accel_levels,
        n_cpus=2, n_accel_cores=2, cpu_l1_sets=2, cpu_l1_assoc=1,
        shared_l2_sets=4, shared_l2_assoc=2, accel_l1_sets=2, accel_l1_assoc=1,
        accel_l2_sets=2, accel_l2_assoc=2,
        randomize_latencies=True, seed=3, deadlock_threshold=400_000,
        accel_timeout=150_000, mem_latency=30,
    )


SYSTEMS = [
    (host, AccelOrg.XG, XGVariant.FULL_STATE, 1) for host in HostProtocol
] + [
    (host, AccelOrg.XG, XGVariant.TRANSACTIONAL, 2) for host in HostProtocol
] + [
    (HostProtocol.MESI, AccelOrg.HOST_SIDE, XGVariant.FULL_STATE, 1),
    (HostProtocol.HAMMER, AccelOrg.ACCEL_SIDE, XGVariant.FULL_STATE, 1),
]
SYSTEM_IDS = [f"{h.name.lower()}-{o.name.lower()}-{v.name.lower()}-l{n}"
              for h, o, v, n in SYSTEMS]


@pytest.mark.parametrize("host", list(HostProtocol), ids=lambda h: h.name.lower())
def test_every_field_is_captured_or_declared_static(host):
    """After a golden-size run, every attribute of every component, port
    buffer, cache array, TBE table and the event queue is on the plan."""
    for org, levels in ((AccelOrg.XG, 1), (AccelOrg.XG, 2), (AccelOrg.HOST_SIDE, 1)):
        system = build_system(_golden_size_config(host, org, accel_levels=levels))
        RandomTester(system.sim, system.sequencers, BLOCKS,
                     ops_target=400, store_fraction=0.45).run()
        objects = fixed_objects(system)
        found = {id(obj) for obj in objects}
        expected = [system.sim.events, *system.sim.components]
        for comp in system.sim.components:
            expected.extend(comp._port_buffers)
            for attr in ("cache", "tbes"):
                value = getattr(comp, attr, None)
                if isinstance(value, (CacheArray, TBETable)):
                    expected.append(value)
        assert all(id(obj) in found for obj in expected)
        assert any(isinstance(obj, MessageBuffer) for obj in objects)
        assert [name for obj in objects for name in unclassified(obj)] == []


def _drive(system, rng, rounds):
    """Callback-free CPU and accelerator traffic, stopped mid-flight."""
    sim = system.sim
    for _ in range(rounds):
        for seq in system.sequencers:
            if not seq.outstanding:
                addr = rng.choice(BLOCKS) + rng.randrange(64)
                if rng.random() < 0.45:
                    seq.store(addr, rng.randrange(256))
                else:
                    seq.load(addr)
        sim.run(max_ticks=sim.tick + rng.randint(1, 40), final_check=False)


def _finish(system, rng, rounds):
    _drive(system, rng, rounds)
    system.run_until_drained()
    sim = system.sim
    return (memory_digest(system.memory), state_digest(system),
            stats_digest(sim), sim.tick, sim._events_fired)


@pytest.mark.parametrize("host,org,variant,levels", SYSTEMS, ids=SYSTEM_IDS)
def test_mid_run_restore_replays_identically(host, org, variant, levels):
    """Checkpoint mid-flight (pending wakeups, memory callbacks, random
    latencies drawn from ``sim.rng``): running on after a restore ends
    with the same memory, logical state, stats, tick and event count as
    running on before it, and as a run that never checkpointed."""
    config = _golden_size_config(host, org, variant, levels)
    plain = build_system(config)
    rng = random.Random(11)
    _drive(plain, rng, 60)
    expected = _finish(plain, rng, 60)

    system = build_system(config)
    rng = random.Random(11)
    _drive(system, rng, 60)
    checkpoint = system.checkpoint()
    traffic = rng.getstate()
    assert system.sim.events._live  # really mid-flight
    first = _finish(system, rng, 60)
    system.restore(checkpoint)
    rng.setstate(traffic)
    second = _finish(system, rng, 60)
    assert first == second == expected


def test_telemetry_is_refused():
    from repro.obs import Telemetry

    system = build_system(_golden_size_config(HostProtocol.MESI, AccelOrg.XG))
    Telemetry(system.sim)
    with pytest.raises(CheckpointError):
        system.checkpoint()


def test_pending_tester_callback_is_refused():
    system = build_system(_golden_size_config(HostProtocol.MESI, AccelOrg.XG))
    RandomTester(system.sim, system.sequencers, BLOCKS, ops_target=50).start()
    with pytest.raises(CheckpointError):
        system.checkpoint()


def test_root_checkpoint_is_taken_before_the_first_action():
    harness = replay_path({"host": "mesi", "variant": "full_state",
                           "addresses": 1, "n_cpus": 1}, [("issue", 0, "load", 0x40)])
    assert harness.system._checkpointer is None  # replaying never plans one
    with pytest.raises(ExplorationError):
        harness.root


def test_probe_timeout_stays_one_object_across_restore():
    """An XG probe timeout is held by its TBE and by the queue's slot
    column; after a restore both must still be the same live event."""
    harness = ExplorerHarness({"host": "mesi", "variant": "full_state",
                               "addresses": 1, "n_cpus": 1})
    root = harness.root
    xg = harness.system.xg
    rng = random.Random(0)
    probes = []
    for _ in range(200):
        harness.restore(root)
        for _ in range(12):
            harness.apply(rng.choice(harness.enabled_actions()))
            probes = [tbe for tbe in xg.tbes if "timeout_event" in tbe.meta]
            if probes:
                break
        if probes:
            break
    assert probes, "no walk reached a forwarded probe"
    checkpoint = harness.checkpoint()
    harness.restore(checkpoint)
    (tbe,) = [tbe for tbe in xg.tbes if "timeout_event" in tbe.meta]
    event, queue = tbe.meta["timeout_event"], harness.sim.events
    assert queue._objs[event._slot] is event and event._queue is queue
    live = queue._live
    event.cancel()
    assert queue._live == live - 1
