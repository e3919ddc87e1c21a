"""Checkpoint and restore of a built system (``System.checkpoint``).

The explorer's byte-identity rests on these: a restored state must be
the state a replay from reset reaches, down to the physical history a
snapshot erases (ticks, LRU clocks, the event queue).
"""

import io
import pickle
import random

import pytest

from repro.coherence.tbe import TBETable
from repro.host.checkpoint import (
    PROTOCOL, CheckpointError, fixed_objects, partition, unclassified)
from repro.host.config import AccelOrg, HostProtocol, SystemConfig
from repro.host.system import build_system
from repro.memory.cache_array import CacheArray
from repro.sim.component import MessageBuffer
from repro.sim.message import Message
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
        tuple(comp.cache._use_clock for comp in sim.components
              if isinstance(getattr(comp, "cache", None), CacheArray)),
        sim.events._live,
    )


def _fresh(cell, path=()):
    """A fresh harness replaying ``path`` from reset."""
    harness = replay_path(cell, [])
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
        path.extend(actions)
        reference = _fingerprint(_fresh(cell, path))
        assert first == second == reference, (cell, seed, path)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("host", sorted(HOSTS))
def test_restore_matches_replay_from_reset(host, variant):
    for n_cpus in (1, 2):
        for addresses in (1, 2):
            cell = {"host": host, "variant": variant,
                    "addresses": addresses, "n_cpus": n_cpus}
            for seed in range(2):
                _walk(cell, f"{host}/{variant}/{n_cpus}/{addresses}/{seed}")


def test_restore_never_reuses_a_message_uid():
    """The uid counter is shared by every system in the process, so a
    restore must not rewind it: another live system, or the restored one,
    would draw uids that messages still in flight already hold."""
    cell = {"host": "mesi", "variant": "full_state", "addresses": 1, "n_cpus": 1}
    walked = ExplorerHarness(cell)
    root = walked.checkpoint()
    walked.apply(("issue", 0, "store", 0x40))
    other = ExplorerHarness(cell)
    other.apply(("issue", 0, "load", 0x40))
    drawn = Message("probe").uid  # every uid drawn so far is at most this
    walked.restore(root)
    assert Message("probe").uid > drawn


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
    assert sum(map(len, harness.checkpoint().system.groups)) < 8192


#: Types whose instances a pickle may copy twice without changing meaning.
IMMUTABLE = (str, bytes, tuple, frozenset, int, float, bool, type(None))


def _copied(checkpointer, index):
    """``{id: object}`` of every mutable object group ``index``'s pickle
    copies, kept alive by the returned dict."""
    pickler = pickle.Pickler(io.BytesIO(), PROTOCOL)
    pickler.memo = checkpointer.dump_memo
    seeded = len(checkpointer.dump_memo.copy())
    state = [get(obj) for get, obj in checkpointer.getters[index]]
    pickler.dump(state)
    return {key: obj for key, (slot, obj) in pickler.memo.copy().items()
            if slot >= seeded and not isinstance(obj, IMMUTABLE)}


def _census(harness):
    """Fail if a copied object is reachable from two groups, or from a
    group and the parked messages that checkpoints share by reference."""
    checkpointer = harness.system.checkpointer
    owner = {}
    for parked in harness.parked:
        owner[id(parked.msg)] = owner[id(parked.msg.data)] = "parked"
    copies = [_copied(checkpointer, index) for index in range(len(checkpointer.getters))]
    for index, copied in enumerate(copies):
        for key, obj in copied.items():
            other = owner.setdefault(key, index)
            assert other == index, f"{obj!r} is in group {index} and in {other}"


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("host", sorted(HOSTS))
def test_no_copied_object_is_shared_between_groups(host, variant):
    """Seeded walks with checkpoint and restore jumps on every 1-2 CPU x
    1-2 address cell: each copied object belongs to one group, so a
    group's pickle can be taken and written back on its own."""
    for n_cpus in (1, 2):
        for addresses in (1, 2):
            cell = {"host": host, "variant": variant,
                    "addresses": addresses, "n_cpus": n_cpus}
            for walk in range(3):
                rng = random.Random(f"census/{host}/{variant}/{n_cpus}/{addresses}/{walk}")
                harness = ExplorerHarness(cell)
                saved = [harness.root]
                for _ in range(40):
                    _census(harness)
                    roll = rng.random()
                    if roll < 0.2:
                        saved.append(harness.checkpoint())
                    elif roll < 0.35:
                        harness.restore(rng.choice(saved))
                    else:
                        harness.apply(rng.choice(harness.enabled_actions()))


def test_groups_follow_the_aliases():
    """The two aliases a system holds stay inside one group each: a
    sequencer with its cache, and every XG TBE table with the queue."""
    harness = ExplorerHarness({"host": "mesi", "variant": "full_state",
                               "addresses": 1, "n_cpus": 2})
    system = harness.system
    group_of = {id(obj): index for index, group in enumerate(partition(system))
                for obj in group}
    for seq in system.sequencers:
        assert group_of[id(seq)] == group_of[id(seq.cache)]
    for xg in system.xgs:
        assert group_of[id(xg.tbes)] == group_of[id(system.sim.events)] == 0
        assert group_of[id(xg.error_log)] == group_of[id(xg)] != 0
    assert group_of[id(system.memory)] == group_of[id(system.directory)]


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
