"""Checkpoint and restore a built system's physical state, in place.

The reachability explorer (:mod:`repro.verify.explorer`) expands each
frontier state by restoring its parent before every child's action,
instead of replaying the parent's path on a freshly built system. A
restore must bring back everything such a replay would rebuild: not just
the logical state ``snapshot_state()`` hashes, but the physical history
that steers later behaviour — LRU clocks, ticks, pending timers, RNG
state and the event queue's slot columns.

Two rules make a restore safe without recompiling anything:

* **Fixed objects keep their identity.** The simulator, its event queue
  and networks, main memory, every component with its port buffers,
  cache array, TBE table and stats, and each XG's error log, rate
  limiter and permission table are what compiled closures and caches
  hold: ``fire`` closes over ``coverage``, networks cache routes to port
  buffers, controllers pre-bind ``_prio_ports`` and wakeup callbacks, the
  run loop binds the queue's columns. A restore writes their attributes
  back and refills every container attribute in place — a dict, set,
  list, deque or defaultdict is never rebound.
* **No copied object is shared between groups.** The fixed objects fall
  into groups (:func:`partition`): one per controller with everything it
  owns — its port buffers, cache array, TBE table and stats, the
  sequencers that feed it, main memory for the directory/L2, and an
  XG's error log, rate limiter and permission table — one for the
  networks, and the *core*: the simulator, the event queue and every XG
  TBE table. A checkpoint holds one pickle per group of the group's
  captured attributes. Cache entries, TBEs, messages, data blocks, timer
  events and mirror entries are copied by value inside their group's
  pickle, whose memo is pre-seeded with the fixed objects, their wakeup
  callbacks and every :class:`IdEnum` member, so a reference from a
  copied object to a fixed one (an event's queue, a timer's bound
  method) comes back as the live object. Aliasing survives only within a
  pickle, so the two aliases a system holds sit inside one group each: a
  sequencer's request message is held by the sequencer and by its
  cache's TBE table, and an XG probe timeout by XG's TBE table and by the
  queue's slot column.

Groups let a caller that knows what changed touch only that. A
checkpoint taken against a *base* — the checkpoint the live objects
last matched — pickles only the groups changed since and shares every
other group's bytes with the base; a restore against the base writes
back only the groups whose bytes differ or that changed. Every group
that is written is read by one unpickler from one stream, so the seeded
memo is copied once per restore. :meth:`repro.host.system.System.checkpoint`
and ``restore`` take no base: they pickle and write back every group.

A checkpoint is compact — a few kilobytes of pickle bytes — so the
explorer can hold one per frontier state. Capture walks no object graph
in Python: a fixed object's attributes are read with one ``attrgetter``
each, and the pickler copies the rest in C.

What a checkpoint carries per fixed class is declared in :data:`STATE`;
what it deliberately leaves alone (wiring, configuration, compiled
dispatch, pure caches) in :data:`STATIC`. Building a plan for a system
raises :class:`CheckpointError` for any attribute on neither list, so a
field added later cannot silently escape restores.

Limits: telemetry, lineage and run-loop monitors keep their own state and
are refused, as are link fault plans and accelerator models without a
declared plan; pending callbacks must be bound methods of fixed objects.
"""

import functools
import io
import pickle
import random
from collections import defaultdict, deque
from operator import attrgetter
from types import MethodType

from repro.accel.l1_single import AccelL1
from repro.accel.streaming import StreamingAccelL1
from repro.accel.two_level import AccelL2Shared
from repro.coherence.controller import CoherenceController
from repro.coherence.tbe import TBE, TBETable
from repro.host.cpu import OutstandingOp, Sequencer
from repro.memory.cache_array import CacheArray, CacheEntry
from repro.memory.datablock import DataBlock
from repro.memory.main_memory import MainMemory
from repro.protocols.common import CacheControllerBase
from repro.protocols.hammer.cache import HammerCache
from repro.protocols.hammer.directory import HammerDirectory
from repro.protocols.mesi.l1 import MesiL1
from repro.protocols.mesi.l2 import MesiL2
from repro.sim.component import Component, MessageBuffer
from repro.sim.event import Event, EventQueue
from repro.sim.idenum import IdEnum
from repro.sim.message import Message
from repro.sim.network import Network
from repro.sim.simulator import Simulator
from repro.sim.stats import Histogram, Stats
from repro.xg.base import CrossingGuardBase, MirrorEntry
from repro.xg.errors import XGError, XGErrorLog
from repro.xg.hammer_xg import HammerCrossingGuard
from repro.xg.mesi_xg import MesiCrossingGuard
from repro.xg.permissions import PermissionTable
from repro.xg.rate_limiter import RateLimiter

#: Pickle protocol 3 writes every memo slot with an explicit index
#: (``BINPUT``), which a pre-seeded unpickler memo needs: protocols 4 and
#: up emit index-free ``MEMOIZE`` opcodes, which the C unpickler numbers
#: from zero after a memo copy, overwriting the seeds.
PROTOCOL = 3

#: Per-class attributes a checkpoint captures, merged along the MRO.
STATE = {
    Simulator: ("tick", "_events_fired", "rng", "trace"),
    EventQueue: ("_heap", "_buckets", "_objs", "_gens", "_free", "_live",
                 "_cancelled", "_draining_tick"),
    Network: ("_last_arrival", "_next_slot"),
    MainMemory: ("_blocks", "reads", "writes"),
    MessageBuffer: ("_entries", "_head", "_seq", "_front_seq"),
    CacheArray: ("_sets", "_use_clock"),
    TBETable: ("_entries", "high_water"),
    Stats: ("counters", "histograms"),
    XGErrorLog: ("errors", "accel_disabled", "disable_after", "warn_after",
                 "throttle_after"),
    RateLimiter: ("rate", "period", "burst", "_credit", "_last_refill",
                  "throttled", "admitted", "rate_changes"),
    PermissionTable: ("default", "_pages", "lookups"),
    Component: ("_wakeup_tick", "_wakeup_token"),
    CoherenceController: ("coverage", "_stalled", "_stalled_since",
                          "_stalled_total", "_busy_until", "protocol_errors"),
    Sequencer: ("outstanding",),
    HammerDirectory: ("owners",),
    CrossingGuardBase: ("accel_name", "mirror", "mirror_high_water",
                        "_seen_uids", "_seen_uid_ring", "_absorb_responses"),
}

#: Per-class attributes fixed once the system is built — wiring,
#: configuration, compiled dispatch and pure caches — which a restore
#: leaves alone.
STATIC = {
    Simulator: ("seed", "events", "components", "networks", "_stats",
                "deadlock_threshold", "_component_index", "metrics_enabled",
                "obs", "lineage", "lineage_default", "monitors"),
    EventQueue: (),
    # ``send`` is the explorer's per-instance parking shadow
    Network: ("sim", "latency", "ordered", "name", "bandwidth", "fault_plan",
              "_endpoints", "_endpoint_delay", "stats", "_counters",
              "_mtype_keys", "_routes", "_fixed_latency", "_events", "send"),
    MainMemory: ("block_size", "latency"),
    MessageBuffer: ("name",),
    CacheArray: ("num_sets", "assoc", "block_size", "name"),
    TBETable: ("capacity", "name"),
    Stats: ("owner",),
    XGErrorLog: (),
    RateLimiter: (),
    PermissionTable: ("page_size",),
    Component: ("sim", "name", "stats", "in_ports", "_port_buffers",
                "_wakeup_cb"),
    CoherenceController: ("transitions", "_dispatch", "fire",
                          "coverage_exempt", "_prio_ports", "_stall_sink",
                          "_anomaly_sink", "_lineage_class", "occupancy"),
    CacheControllerBase: ("cache", "tbes", "block_size", "sequencers",
                          "_tbe_lookup", "_cache_lookup", "_block_mask"),
    Sequencer: ("cache", "issue_latency", "response_latency",
                "max_outstanding", "_issued_sink", "_completed_sink"),
    MesiL1: ("net", "l2_name"),
    MesiL2: ("net", "memory", "block_size", "xg_tolerant", "cache", "tbes"),
    HammerCache: ("net", "dir_name", "n_peers", "xg_tolerant"),
    HammerDirectory: ("net", "memory", "block_size", "cache_names", "tbes"),
    AccelL1: ("net", "xg_name", "mode"),
    StreamingAccelL1: ("prefetch_depth",),
    AccelL2Shared: ("l1_net", "xg_net", "xg_name", "block_size", "cache",
                    "tbes"),
    CrossingGuardBase: ("host_net", "accel_net", "variant", "permissions",
                        "error_log", "rate_limiter", "accel_timeout",
                        "probe_retries", "suppress_puts", "throttle_rate",
                        "block_size", "tbes", "_accel_send_sinks",
                        "_host_send_sinks", "_accel_req_sinks",
                        "_host_msgs_sink", "_violation_sink"),
    MesiCrossingGuard: ("l2_name", "_host_response_dispatch"),
    HammerCrossingGuard: ("dir_name", "n_peers", "_collect_dispatch"),
}

#: Classes whose instances are copied by value; seeding them (and their
#: slot names, the keys of their pickled state) keeps their references
#: to one memo lookup per checkpoint.
VALUE_CLASSES = (Message, DataBlock, CacheEntry, TBE, Event, MirrorEntry,
                 OutstandingOp, XGError, Histogram)


class CheckpointError(RuntimeError):
    """The system holds state a checkpoint cannot carry."""


class Checkpoint:
    """One captured physical state; restore it with :meth:`System.restore`.

    ``groups`` holds one pickle per group of :func:`partition`, in its
    order; ``rngs`` the ``getstate()`` of every RNG attribute.
    """

    __slots__ = ("owner", "groups", "rngs")

    def __init__(self, owner, groups, rngs):
        self.owner = owner
        self.groups = groups
        self.rngs = rngs


@functools.lru_cache(maxsize=None)
def _plan(cls):
    """``(captured names, every declared name)`` for ``cls``, or None when
    no class on its MRO declares a plan."""
    mro = cls.__mro__[::-1]
    if not any(klass in STATE for klass in mro):
        return None
    state = tuple(dict.fromkeys(
        name for klass in mro for name in STATE.get(klass, ())))
    static = {name for klass in mro for name in STATIC.get(klass, ())}
    return state, frozenset(state) | static


def _attributes(obj):
    names = set(getattr(obj, "__dict__", ()))
    for klass in type(obj).__mro__:
        for name in getattr(klass, "__slots__", ()):
            if hasattr(obj, name):
                names.add(name)
    return names


def unclassified(obj):
    """Attributes of fixed object ``obj`` on neither STATE nor STATIC."""
    known = _plan(type(obj))[1]
    return sorted(f"{type(obj).__name__}.{name}"
                  for name in _attributes(obj) - known)


def _wired(obj):
    """Fixed objects ``obj`` holds in attributes its plan does not capture:
    the attribute values, and the items of lists, tuples and dict values
    held there."""
    for name in sorted(_attributes(obj) - set(_plan(type(obj))[0])):
        value = getattr(obj, name)
        items = (value,)
        if isinstance(value, (list, tuple)):
            items = value
        elif isinstance(value, dict):
            items = value.values()
        for item in items:
            if _plan(type(item)) is not None:
                yield item


def fixed_objects(system):
    """Every object a restore writes into, in discovery order.

    Starts from the simulator and main memory and follows the wiring
    (:func:`_wired`) to every instance of a class with a declared plan.
    """
    found = []
    seen = set()
    pending = [system.sim, system.memory]
    while pending:
        obj = pending.pop(0)
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        found.append(obj)
        pending.extend(item for item in _wired(obj) if id(item) not in seen)
    return found


def partition(system):
    """The fixed objects of ``system`` in groups, each in discovery order.

    The first group, the core, is the simulator, the event queue and every
    XG TBE table (an XG probe timeout is held by its TBE and by the
    queue). The second is the networks. Then comes one group per
    controller, in component order: the controller, the sequencers
    attached to it (a request message is held by its sequencer and by the
    cache's TBE), main memory for the directory/L2, and every other fixed
    object the controller's wiring reaches first — its port buffers, cache
    array, TBE table and stats, and for XG its error log, rate limiter and
    permission table. Whatever no component or network reaches joins the
    core.
    """
    objects = fixed_objects(system)
    sim = system.sim
    core, networks, controllers = [], [], {}
    group = {id(sim): core, id(sim.events): core}
    group.update((id(net), networks) for net in sim.networks)
    group.update((id(xg.tbes), core) for xg in system.xgs)
    for comp in sim.components:
        head = comp.cache if isinstance(comp, Sequencer) and comp.cache is not None else comp
        group[id(comp)] = controllers.setdefault(id(head), [])
    if system.directory is not None:
        group[id(system.memory)] = controllers[id(system.directory)]
    for owner in [*sim.components, *sim.networks, sim]:
        for item in _wired(owner):
            group.setdefault(id(item), group[id(owner)])
    for obj in objects:
        group.get(id(obj), core).append(obj)
    return [core, networks, *controllers.values()]


# -- in-place refills --------------------------------------------------------


_CONTAINERS = (list, dict, defaultdict, set, deque)


def _refiller(live):
    """A function that refills container ``live`` in place from a saved copy.

    Bound once per plan: under the in-place rule a container attribute of
    a fixed object is never rebound, so ``live`` stays the one to refill.
    """
    if type(live) is list:
        if live and all(type(item) is dict for item in live):
            # a list of dicts (a cache array's sets): refill each dict
            targets = tuple(live)

            def refill(saved):
                for target, entries in zip(targets, saved):
                    if target or entries:
                        target.clear()
                        target.update(entries)
            return refill

        def refill(saved):
            if live or saved:
                live[:] = saved
        return refill
    clear = live.clear
    fill = live.extend if type(live) is deque else live.update

    def refill(saved):
        if live or saved:
            clear()
            fill(saved)
    return refill


def _accessors(obj, names):
    """``(get, put, rng names)`` for one fixed object and its captured names.

    ``get(obj)`` reads the captured values as one tuple, scalars first;
    ``put(values)`` writes scalars back and refills containers in place.
    RNG attributes travel outside the pickle, as ``getstate()`` tuples.
    """
    scalars, containers, rngs = [], [], []
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, random.Random):
            rngs.append(name)
        elif type(value) in _CONTAINERS:
            containers.append((name, value))
        else:
            scalars.append(name)
    ordered = scalars + [name for name, _value in containers]
    if len(ordered) == 1:
        def get(target, name=ordered[0]):  # attrgetter of one name returns no tuple
            return (getattr(target, name),)
    else:
        get = attrgetter(*ordered)
    scalars = tuple(scalars)
    refills = tuple((index, _refiller(value))
                    for index, (_name, value) in enumerate(containers, len(scalars)))
    update = obj.__dict__.update if hasattr(obj, "__dict__") else None

    def put(values):
        if update is not None:
            update(zip(scalars, values))
        else:
            for name, value in zip(scalars, values):
                setattr(obj, name, value)
        for index, refill in refills:
            refill(values[index])

    return get, put, tuple(rngs)


@functools.lru_cache(maxsize=None)
def _seed_program(count):
    """Pickle opcodes that memoize persistent object ``i`` at slot ``i``."""
    body = b"".join(
        pickle.BININT + index.to_bytes(4, "little") + pickle.BINPERSID
        + pickle.LONG_BINPUT + index.to_bytes(4, "little") + pickle.POP
        for index in range(count))
    return pickle.PROTO + bytes([PROTOCOL]) + body + pickle.NONE + pickle.STOP


def _enum_members():
    pending = [IdEnum]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        yield from cls


class _Pickler(pickle.Pickler):
    """Refuses callbacks a restore could only bring back as stale copies."""

    def __init__(self, file, fixed_ids):
        super().__init__(file, PROTOCOL)
        self.fixed_ids = fixed_ids

    def reducer_override(self, obj):
        if type(obj) is MethodType and id(obj.__self__) not in self.fixed_ids:
            raise CheckpointError(
                f"cannot checkpoint a pending callback {obj!r}: only bound "
                f"methods of the system's own objects restore by reference")
        return NotImplemented


class SystemCheckpointer:
    """Captures and restores one system; built once, reused per checkpoint."""

    def __init__(self, system):
        sim = system.sim
        if sim.obs is not None or sim.lineage is not None or sim.monitors:
            raise CheckpointError(
                "telemetry, lineage and run-loop monitors keep their own "
                "state; checkpoint a system without them")
        groups = partition(system)
        objects = [obj for group in groups for obj in group]
        problems = []
        for obj in objects:
            problems.extend(unclassified(obj))
            if type(obj) is Network and obj.fault_plan is not None:
                problems.append(f"{obj.name}: link fault plan")
        if problems:
            raise CheckpointError(
                "state a checkpoint would not carry: " + ", ".join(problems))
        group_of = {}
        self.getters = []
        self.putters = []
        self.rng_slots = []
        for index, group in enumerate(groups):
            getters, putters = [], []
            for obj in group:
                get, put, rngs = _accessors(
                    obj, [name for name in _plan(type(obj))[0] if hasattr(obj, name)])
                getters.append((get, obj))
                putters.append(put)
                self.rng_slots.extend((obj, name) for name in rngs)
                group_of[id(obj)] = index
            self.getters.append(getters)
            self.putters.append(putters)
        self.rng_groups = frozenset(group_of[id(obj)] for obj, _name in self.rng_slots)
        seeds = list(objects)
        seeds.extend(obj._wakeup_cb for obj in objects
                     if isinstance(obj, Component))
        seeds.extend(_enum_members())
        seeds.extend(VALUE_CLASSES)
        seeds.extend((getattr, deque, defaultdict, set, bytearray, int))
        for cls in VALUE_CLASSES:
            seeds.extend(getattr(cls, "__slots__", ()))
        for obj in objects:
            if isinstance(obj, Component):
                seeds.append(obj.name)
                seeds.extend(obj.in_ports)
            if isinstance(obj, CoherenceController):
                # compiled dispatch keys coverage by its row key tuples
                seeds.extend(key for row in obj._dispatch.values()
                             for _handler, key in row.values())
        unique = {}
        for seed in seeds:
            unique.setdefault(id(seed), seed)
        seeds = list(unique.values())
        self.fixed_ids = frozenset(id(obj) for obj in objects)
        template = pickle.Pickler(io.BytesIO(), PROTOCOL)
        template.memo = {id(seed): (index, seed)
                         for index, seed in enumerate(seeds)}
        self.dump_memo = template.memo
        seeder = pickle.Unpickler(io.BytesIO(_seed_program(len(seeds))))
        seeder.persistent_load = seeds.__getitem__
        seeder.load()
        self.load_memo = seeder.memo
        self.last_rngs = None

    def dump(self, index):
        """The pickle of group ``index`` as the live objects hold it now."""
        buf = io.BytesIO()
        pickler = _Pickler(buf, self.fixed_ids)
        pickler.memo = self.dump_memo
        pickler.dump([get(obj) for get, obj in self.getters[index]])
        return buf.getvalue()

    def checkpoint(self, base=None, changed=()):
        """Capture the live state.

        Against ``base``, the checkpoint the live objects last matched,
        only the groups in ``changed`` are pickled again; every other
        group shares ``base``'s bytes.
        """
        if base is None:
            groups = [self.dump(index) for index in range(len(self.getters))]
        else:
            groups = list(base.groups)
            for index in changed:
                data = self.dump(index)
                # equal bytes: share the base's, so a later restore sees them alike
                groups[index] = base.groups[index] if data == base.groups[index] else data
        rngs = tuple(getattr(obj, name).getstate() for obj, name in self.rng_slots)
        if rngs == self.last_rngs:
            rngs = self.last_rngs  # unchanged: share one copy
        else:
            self.last_rngs = rngs
        return Checkpoint(self, tuple(groups), rngs)

    def restore(self, checkpoint, base=None, changed=()):
        """Write ``checkpoint`` back into the live objects.

        Against ``base``, the checkpoint the live objects last matched, a
        group is written only when its bytes are not ``base``'s or it is
        in ``changed``; RNG states only when they differ from ``base``'s or
        a group holding an RNG is in ``changed``.
        """
        if checkpoint.owner is not self:
            raise CheckpointError("checkpoint was taken from another system")
        groups = checkpoint.groups
        if base is None:
            needed = range(len(groups))
        else:
            needed = [index for index, (data, live) in enumerate(zip(groups, base.groups))
                      if data is not live or index in changed]
        if needed:
            # one unpickler reads every needed group in turn, so the seeded
            # memo is copied once; a buffered reader lets it take each
            # pickle in one peek, where a bare BytesIO costs a read per opcode
            unpickler = pickle.Unpickler(io.BufferedReader(io.BytesIO(
                b"".join([groups[index] for index in needed]))))
            unpickler.memo = self.load_memo
            putters = self.putters
            for index in needed:
                for put, values in zip(putters[index], unpickler.load()):
                    put(values)
        if (base is None or checkpoint.rngs is not base.rngs
                or not self.rng_groups.isdisjoint(changed)):
            for (obj, name), rng_state in zip(self.rng_slots, checkpoint.rngs):
                getattr(obj, name).setstate(rng_state)
