"""Checkpoint and restore a built system's physical state, in place.

The reachability explorer (:mod:`repro.verify.explorer`) expands each
frontier state by restoring its parent before every child's action,
instead of replaying the parent's path on a freshly built system. A
restore must bring back everything such a replay would rebuild: not just
the logical state ``snapshot_state()`` hashes, but the physical history
that steers later behaviour — LRU clocks, message uids, ticks, pending
timers, RNG state and the event queue's slot columns.

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
* **Everything else is one copied value.** Cache entries, TBEs,
  messages, data blocks, timer events and mirror entries come and go;
  they are serialized together, with the fixed objects' captured
  attributes, by one pickle whose memo is pre-seeded with the fixed
  objects, their wakeup callbacks and every :class:`IdEnum` member. A
  reference from a copied object to a fixed one (an event's queue, a
  timer's bound method) therefore comes back as the live object, and
  aliasing among copied objects (an XG probe timeout is held both by its
  TBE and by the queue's slot column) survives the round trip.

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
The message uid counter is process-global, so a restore rewinds it for
every system in the process: interleave other systems' message creation
with a restored timeline and their uids may repeat.
"""

import functools
import io
import itertools
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
from repro.sim import message
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
    """One captured physical state; restore it with :meth:`System.restore`."""

    __slots__ = ("owner", "data", "rngs", "uid", "extras")

    def __init__(self, owner, data, rngs, uid, extras):
        self.owner = owner
        self.data = data
        self.rngs = rngs
        self.uid = uid
        self.extras = extras


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


def fixed_objects(system):
    """Every object a restore writes into, in discovery order.

    Starts from the simulator and main memory and follows the wiring —
    every attribute a plan does not capture, and the items of lists,
    tuples and dict values held there — to every instance of a class
    with a declared plan.
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
        for name in sorted(_attributes(obj) - set(_plan(type(obj))[0])):
            value = getattr(obj, name)
            items = (value,)
            if isinstance(value, (list, tuple)):
                items = value
            elif isinstance(value, dict):
                items = value.values()
            for item in items:
                if _plan(type(item)) is not None and id(item) not in seen:
                    pending.append(item)
    return found


# -- in-place refills --------------------------------------------------------


def _refill_list(live, saved):
    live[:] = saved


def _refill_dict(live, saved):
    live.clear()
    live.update(saved)


def _refill_deque(live, saved):
    live.clear()
    live.extend(saved)


def _refill_nested(live, saved):
    # a list of dicts (a cache array's sets): refill each dict
    for target, entries in zip(live, saved):
        target.clear()
        target.update(entries)


_REFILLS = {
    list: _refill_list,
    dict: _refill_dict,
    defaultdict: _refill_dict,
    set: _refill_dict,
    deque: _refill_deque,
}


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
        elif type(value) in _REFILLS:
            refill = _REFILLS[type(value)]
            if value and type(value) is list and all(
                    type(item) is dict for item in value):
                refill = _refill_nested
            containers.append((name, refill))
        else:
            scalars.append(name)
    ordered = scalars + [name for name, _refill in containers]
    if len(ordered) == 1:
        def get(target, name=ordered[0]):  # attrgetter of one name returns no tuple
            return (getattr(target, name),)
    else:
        get = attrgetter(*ordered)
    scalars = tuple(scalars)
    refills = tuple((len(scalars) + index, name, refill)
                    for index, (name, refill) in enumerate(containers))
    update = obj.__dict__.update if hasattr(obj, "__dict__") else None

    def put(values):
        if update is not None:
            update(zip(scalars, values))
        else:
            for name, value in zip(scalars, values):
                setattr(obj, name, value)
        for index, name, refill in refills:
            refill(getattr(obj, name), values[index])

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
        objects = fixed_objects(system)
        problems = []
        for obj in objects:
            problems.extend(unclassified(obj))
            if type(obj) is Network and obj.fault_plan is not None:
                problems.append(f"{obj.name}: link fault plan")
        if problems:
            raise CheckpointError(
                "state a checkpoint would not carry: " + ", ".join(problems))
        self.getters = []
        self.putters = []
        self.rng_slots = []
        for obj in objects:
            get, put, rngs = _accessors(
                obj, [name for name in _plan(type(obj))[0] if hasattr(obj, name)])
            self.getters.append((get, obj))
            self.putters.append(put)
            self.rng_slots.extend((obj, name) for name in rngs)
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

    def checkpoint(self, extras=()):
        state = [get(obj) for get, obj in self.getters]
        state.append(extras)
        buf = io.BytesIO()
        pickler = _Pickler(buf, self.fixed_ids)
        pickler.memo = self.dump_memo
        pickler.dump(state)
        rngs = tuple(getattr(obj, name).getstate() for obj, name in self.rng_slots)
        if rngs == self.last_rngs:
            rngs = self.last_rngs  # unchanged: share one copy
        else:
            self.last_rngs = rngs
        # read the global uid counter without losing the value read
        uid = next(message._MSG_IDS)
        message._MSG_IDS = itertools.count(uid)
        return Checkpoint(self, buf.getvalue(), rngs, uid, tuple(extras))

    def restore(self, checkpoint):
        if checkpoint.owner is not self:
            raise CheckpointError("checkpoint was taken from another system")
        # a buffered reader lets the unpickler take the whole pickle in
        # one peek; a bare BytesIO costs a read call per opcode
        unpickler = pickle.Unpickler(io.BufferedReader(io.BytesIO(checkpoint.data)))
        unpickler.memo = self.load_memo
        state = unpickler.load()
        for put, values in zip(self.putters, state):
            put(values)
        for live, saved in zip(checkpoint.extras, state[-1]):
            _REFILLS[type(live)](live, saved)
        for (obj, name), rng_state in zip(self.rng_slots, checkpoint.rngs):
            getattr(obj, name).setstate(rng_state)
        message._MSG_IDS = itertools.count(checkpoint.uid)
