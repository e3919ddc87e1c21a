"""Exhaustive concrete-state reachability explorer.

Where :mod:`repro.verify.model` proves the XG<->accelerator *interface*
correct on an abstract single-address automaton, this module enumerates
the state space of the **real** simulator: actual controllers, compiled
dispatch tables, TBEs, the XG mirror, pooled messages — everything.

The trick is turning a discrete-event simulator into a guarded-action
transition system:

* both networks' ``send`` is shadowed per-instance so every message is
  **parked** instead of delivered — the in-flight channel contents
  become explicit explorer state;
* a *step* is one nondeterministic choice: deliver one parked message
  (ordered lanes expose only their oldest message; the unordered host
  net exposes all), or issue a load/store on an idle sequencer;
* after each step the simulator **settles**: deterministic continuations
  (memory latency callbacks, sequencer completions, wakeups) drain until
  the only remaining events are beyond the settle horizon — probe
  timeouts are pushed past it by a huge ``accel_timeout``, so a settled
  state is uniquely determined by the choice sequence;
* states are canonically hashed from logical snapshots
  (:mod:`repro.coherence.snapshot`) minimized under **symmetry** — CPU
  core permutation and address renaming;
* every state is checked: the XG error log must stay empty (a correct
  accelerator must never trip G0-G2), quiescent states must satisfy
  :func:`repro.testing.invariants.check_all` (single writer, value
  consistency, mirror consistency), non-quiescent states must have a
  deliverable message (deadlock freedom), and parked channels are
  bounded.

A frontier node is the choice path from the reset state. That makes
frontier slices picklable — the BFS fans out over the campaign executor
(:func:`repro.eval.campaign.run_campaign`) with byte-identical
visited-set digests for any worker count — and makes every
counterexample a replayable trace on the live simulator by construction
(:func:`replay_path`). Expansion never rebuilds a system: each process
expands its states on one live :class:`ExplorerHarness`, restoring the
parent's checkpoint (:meth:`repro.host.system.System.checkpoint`) before
each child's action. The serial BFS keeps the checkpoint of every newly
discovered state until that state is expanded, up to
:data:`CHECKPOINT_BUDGET`; a state without one (a sharded level, or past
the budget) replays its path once from the harness's root checkpoint.
Sleep sets skip the second ordering of two actions on different
controllers (:func:`action_agent`), which reaches a state already
reached, without changing what the exploration finds.
"""

import hashlib
from dataclasses import replace as dc_replace
from itertools import permutations

from repro.coherence.controller import ProtocolError
from repro.coherence.snapshot import (
    ReprMultiset, canonical_text, dict_text, rename, snap_message)
from repro.eval.campaign import CampaignJob, run_campaign, shard_evenly
from repro.host.config import AccelOrg, HostProtocol, SystemConfig
from repro.host.system import build_system
from repro.sim.idenum import name_of
from repro.sim.simulator import DeadlockError
from repro.testing.invariants import InvariantError, check_all
from repro.xg.interface import XGVariant

#: Block-aligned addresses the explorer drives (block size 64). Chosen
#: so the integers cannot collide with small protocol counters inside a
#: snapshot — address renaming must be a total bijection over every int
#: it touches.
ADDRESS_POOL = (0x40, 0x80)

#: Every store writes the same value regardless of core or address, so
#: data blocks never break core-permutation or address-renaming symmetry.
STORE_VALUE = 0x5A

#: Settle horizon in ticks: deterministic continuations (memory reads,
#: response latencies, network-free wakeups) all land well within this;
#: the XG probe timeout is configured orders of magnitude beyond it.
SETTLE_GAP = 1 << 16

#: Probe timeout for explorer cells — far past the settle horizon, so a
#: timeout can never fire mid-exploration and G2c paths stay out of the
#: transition relation (they are fault-model behavior, not interface
#: behavior).
EXPLORER_ACCEL_TIMEOUT = 1 << 30

#: Bound on simultaneously parked (in-flight) messages; a run past this
#: is an unbounded-channel violation, mirroring the abstract model's
#: ``_CHANNEL_BOUND``.
DEFAULT_CHANNEL_BOUND = 32

#: Checkpoints the serial BFS holds at once for discovered states awaiting
#: expansion (a few kilobytes each). A state found past it carries only
#: its path and replays that once from the root checkpoint when expanded.
CHECKPOINT_BUDGET = 4096

#: Rendered snapshot parts a harness keeps for reuse (:meth:`ExplorerHarness.
#: canonical`); the cache starts over when it reaches this many entries.
TEXT_CACHE_SIZE = 8192

HOSTS = {
    "mesi": HostProtocol.MESI,
    "hammer": HostProtocol.HAMMER,
    "mesif": HostProtocol.MESIF,
}

VARIANTS = {
    "full_state": XGVariant.FULL_STATE,
    "transactional": XGVariant.TRANSACTIONAL,
}


class ExplorationError(RuntimeError):
    """The explorer itself failed (bad replay, settle runaway, shard crash)."""


#: Registry of named per-state checks: ``name -> fn(harness) -> str | None``.
#: Names (not callables) cross process boundaries with frontier shards.
CHECKS = {}


def register_check(name, fn):
    """Register a named per-state check usable via ``check=name``."""
    CHECKS[name] = fn
    return fn


def _check_accel_never_owns(harness):
    """Deliberately FALSE invariant used to exercise the counterexample
    pipeline end to end: a correct accelerator *does* reach E/M, so the
    explorer must find a replayable trace that violates this quickly."""
    for cache in harness.system.accel_caches:
        array = getattr(cache, "cache", None)
        if array is None:
            continue
        for entry in array.entries():
            if getattr(entry.state, "name", "") in ("E", "M"):
                return (f"{cache.name} holds {entry.addr:#x} in "
                        f"{entry.state.name} (demo invariant)")
    return None


register_check("demo_accel_never_owns", _check_accel_never_owns)


def cell_config(host="mesi", variant="full_state", addresses=1, n_cpus=2):
    """The small concrete config one explorer cell drives.

    Single-set single-way L1s make replacements reachable with two
    addresses; the shared L2 gets one extra way so *its* evictions stay
    out of scope (they multiply the space without touching the XG link).
    """
    return SystemConfig(
        host=HOSTS[host],
        org=AccelOrg.XG,
        xg_variant=VARIANTS[variant],
        accel_levels=1,
        n_cpus=n_cpus,
        n_accel_cores=1,
        n_accelerators=1,
        cpu_l1_sets=1,
        cpu_l1_assoc=1,
        shared_l2_sets=1,
        shared_l2_assoc=2 if addresses > 1 else 1,
        accel_l1_sets=1,
        accel_l1_assoc=1,
        accel_timeout=EXPLORER_ACCEL_TIMEOUT,
        deadlock_threshold=None,
        invariant_interval=0,
        metrics=False,
        trace_depth=0,
        seed=0,
    )


class _ParkedMessage:
    __slots__ = ("net", "port", "msg", "lane")

    def __init__(self, net, port, msg):
        self.net = net
        self.port = port
        self.msg = msg
        # FIFO lane the real network would clamp (Network.send orders
        # per (sender, dest) when ordered=True)
        self.lane = (net.name, msg.sender, msg.dest)


class ExplorerHarness:
    """One live simulator instance with explorer control installed."""

    def __init__(self, cell, channel_bound=DEFAULT_CHANNEL_BOUND):
        self.cell = dict(cell)
        self.addresses = list(ADDRESS_POOL[: self.cell.get("addresses", 1)])
        self.channel_bound = channel_bound
        self.config = cell_config(**self.cell)
        self.system = build_system(self.config)
        self.sim = self.system.sim
        self.parked = []
        for net in (self.system.host_net, self.system.accel_net):
            self._install_park(net)
        self._symmetry_maps = self._build_symmetry_maps()
        self._texts = {}
        self.frame = 0
        self._settle()
        self._root = None
        self._left_root = False
        self.restores = 0
        self.replays = 0

    # -- network parking ------------------------------------------------------

    def _install_park(self, net):
        parked = self.parked
        sim = self.sim

        def park_send(msg, port, delay=0, _net=net):
            parked.append(_ParkedMessage(_net, port, msg))
            return sim.tick + 1

        # Instance attribute shadows the bound method; ``broadcast``
        # routes through ``self.send`` so fan-out parks per-copy too.
        net.send = park_send

    # -- checkpoints ------------------------------------------------------------

    @property
    def root(self):
        """Checkpoint of the settled reset state; :meth:`replay` starts here.

        Taken on first use, which must come before the first action: a
        harness that only replays (:func:`replay_path`) never pays for it.
        """
        if self._root is None:
            if self._left_root:
                raise ExplorationError("root checkpoint requested after an action")
            self._root = self.checkpoint()
        return self._root

    def checkpoint(self):
        """The live state, parked messages included."""
        return self.system.checkpoint(self.parked)

    def restore(self, checkpoint):
        """Return to a state captured by :meth:`checkpoint`."""
        self.system.restore(checkpoint)
        self.restores += 1

    def replay(self, path):
        """Enter the state at the end of ``path`` from the root checkpoint."""
        self.system.restore(self.root)
        self.replays += 1
        for action in path:
            self.apply(action)

    # -- deterministic settle -------------------------------------------------

    def _settle(self):
        sim = self.sim
        for _ in range(100_000):
            tick = sim.events.peek_tick()
            if tick is None or tick - sim.tick > SETTLE_GAP:
                return
            sim.run(max_ticks=tick, final_check=False)
        raise ExplorationError("settle did not converge within 100000 rounds")

    # -- choice enumeration ---------------------------------------------------

    def enabled_actions(self):
        """Every nondeterministic choice from the current settled state."""
        actions = []
        for index, seq in enumerate(self.system.sequencers):
            if seq.outstanding:
                continue  # one op in flight per core bounds the space
            for addr in self.addresses:
                actions.append(("issue", index, "load", addr))
                actions.append(("issue", index, "store", addr))
        seen_lanes = set()
        for index, parked in enumerate(self.parked):
            if parked.net.ordered:
                if parked.lane in seen_lanes:
                    continue  # FIFO lane: only the oldest is deliverable
                seen_lanes.add(parked.lane)
            actions.append((
                "deliver", index,
                parked.msg.sender, parked.msg.dest,
                name_of(parked.msg.mtype),
            ))
        return actions

    def action_key(self, action):
        """A name for an enabled ``action`` that holds in parent and child alike.

        ``("issue", cache, sequencer, op, address)`` or ``("deliver",
        destination, network, port, message)`` with the message as its
        logical snapshot; element 1 is the action's agent
        (:func:`action_agent`). Unlike the parked index in a deliver action,
        the key survives actions on other agents, and it renames with the
        state under a symmetry map (:func:`repro.coherence.snapshot.rename`).
        """
        if action[0] == "issue":
            _, index, op, addr = action
            seq = self.system.sequencers[index]
            return ("issue", seq.cache.name, seq.name, op, addr)
        parked = self.parked[action[1]]
        msg = parked.msg
        return ("deliver", msg.dest, parked.net.name, parked.port, snap_message(msg))

    def apply(self, action):
        """Execute one choice, then settle. Raises on a stale replay."""
        self._left_root = True
        action = tuple(action)
        kind = action[0]
        if kind == "issue":
            _, seq_index, op, addr = action
            seq = self.system.sequencers[seq_index]
            if seq.outstanding:
                raise ExplorationError(f"replay divergence: {seq.name} busy")
            if op == "load":
                seq.load(addr)
            elif op == "store":
                seq.store(addr, STORE_VALUE)
            else:
                raise ExplorationError(f"unknown op {op!r}")
        elif kind == "deliver":
            index = action[1]
            if index >= len(self.parked):
                raise ExplorationError("replay divergence: parked index gone")
            parked = self.parked.pop(index)
            msg = parked.msg
            if len(action) > 3 and (msg.sender, msg.dest) != action[2:4]:
                raise ExplorationError(
                    f"replay divergence: parked[{index}] is "
                    f"{msg.sender}->{msg.dest}, trace says "
                    f"{action[2]}->{action[3]}")
            dest = parked.net._endpoints[msg.dest]
            dest.deliver(parked.port, self.sim.tick + 1, msg)
        else:
            raise ExplorationError(f"unknown action kind {kind!r}")
        self._settle()

    # -- state predicates -----------------------------------------------------

    def is_quiescent(self):
        """No parked messages, pending work, open TBEs, or stalls."""
        if self.parked:
            return False
        for seq in self.system.sequencers:
            if seq.outstanding:
                return False
        for comp in self.sim.components:
            if comp.next_pending_tick() is not None:
                return False
            tbes = getattr(comp, "tbes", None)
            if tbes is not None and len(tbes):
                return False
            stalled = getattr(comp, "stalled_count", None)
            if stalled is not None and comp.stalled_count():
                return False
        return True

    def state_problems(self, check=None):
        """All safety-check failures of the current state (empty = clean)."""
        problems = []
        for log in self.system.error_logs:
            if len(log):
                record = log.errors[0]
                problems.append(
                    f"XG guarantee violated: {record.guarantee.name} "
                    f"addr={record.addr:#x}: {record.description}")
        if len(self.parked) > self.channel_bound:
            problems.append(
                f"channel bound exceeded: {len(self.parked)} parked "
                f"messages > {self.channel_bound}")
        if self.is_quiescent():
            try:
                check_all(self.system)
            except InvariantError as exc:
                problems.append(f"quiescent invariant violated: {exc}")
        if check is not None:
            fn = CHECKS.get(check)
            if fn is None:
                raise ExplorationError(f"unknown check {check!r}")
            message = fn(self)
            if message:
                problems.append(f"check {check!r} failed: {message}")
        return problems

    # -- coverage / projection harvest ---------------------------------------

    def transition_relation(self):
        """Declared transitions, grouped by controller type.

        Fixed when the system is built, so one harness per cell yields it.
        """
        out = {}
        for comp in self.system.controllers():
            pairs = out.setdefault(comp.CONTROLLER_TYPE, set())
            pairs.update(comp.transition_relation())
        return out

    def link_projection(self):
        """(accel L1 state, mirror state) letter pairs per address.

        The concrete counterpart of the abstract model's ``(accel,
        mirror)`` fields — the differential test requires every pair seen
        here to be reachable in :mod:`repro.verify.model`. Empty for
        TRANSACTIONAL cells (no mirror to project).
        """
        pairs = set()
        for xg, caches, _accel_l2 in self.system.xg_groups:
            if xg.mirror is None:
                continue
            for addr in self.addresses:
                accel = "I"
                for cache in caches:
                    array = getattr(cache, "cache", None)
                    if array is None:
                        continue
                    entry = array.lookup(addr, touch=False)
                    if entry is not None:
                        accel = name_of(entry.state)
                    tbes = getattr(cache, "tbes", None)
                    if tbes is not None and addr in tbes:
                        accel = "B"  # request in flight: the abstract transient
                mirror_entry = xg.mirror.get(addr)
                mirror = "I" if mirror_entry is None else mirror_entry.accel_state
                pairs.add((accel, mirror))
        return pairs

    # -- canonical hashing ----------------------------------------------------

    def _build_symmetry_maps(self):
        """Every (core renaming, address renaming) pair, identity included.

        Each map holds only the values it moves, so the identity pair is
        two empty dicts and renders without any lookups.
        """
        seqs = [seq.name for seq in self.system.cpu_seqs]
        caches = [cache.name for cache in self.system.cpu_caches]
        name_maps = []
        for perm in permutations(range(len(seqs))):
            mapping = {}
            for source, target in enumerate(perm):
                if source == target:
                    continue
                mapping[seqs[source]] = seqs[target]
                mapping[caches[source]] = caches[target]
            name_maps.append(mapping)
        addr_maps = [
            {addr: to for addr, to in zip(self.addresses, perm) if addr != to}
            for perm in permutations(self.addresses)
        ]
        return [(names, addrs) for names in name_maps for addrs in addr_maps]

    def snapshot(self):
        """Logical full-system state as plain data (no ticks, no uids)."""
        components = {}
        for comp in self.sim.components:
            hook = getattr(comp, "snapshot_state", None)
            if hook is not None:
                state = hook()
                if state:
                    components[comp.name] = state
        ordered_lanes = {}
        unordered = []
        for parked in self.parked:
            desc = (parked.net.name, parked.port, snap_message(parked.msg))
            if parked.net.ordered:
                ordered_lanes.setdefault(parked.lane, []).append(desc)
            else:
                unordered.append(desc)
        return {
            "components": components,
            "memory": {
                addr: bytes(self.system.memory.peek(addr).to_bytes())
                for addr in self.addresses
            },
            # FIFO lanes keep their order; the unordered channel is a
            # multiset, sorted again under every renaming
            "lanes": {lane: tuple(msgs) for lane, msgs in ordered_lanes.items()},
            "bag": ReprMultiset.of(unordered),
        }

    def canonical(self):
        """Canonical state text: min over core and address renamings."""
        return self._canonical_frame()[0]

    def digest(self):
        """sha256 of the canonical text; ``frame`` becomes the index of the
        symmetry map that renders it (the first, on a tie)."""
        text, self.frame = self._canonical_frame()
        return _sha(text)

    def _canonical_frame(self):
        """The canonical text and the index of the map that renders it.

        The text is ``canonical_text(self.snapshot(), *map)`` minimised
        over the maps, assembled from the rendered items of the top-level
        dict and of its ``components`` dict, each rendered once per map
        and reused while its logical snapshot stays the same.
        """
        snap = self.snapshot()
        components = [self._item_texts(name, state)
                      for name, state in snap.pop("components").items()]
        rest = [self._item_texts(key, value) for key, value in snap.items()]
        best = frame = None
        for index in range(len(self._symmetry_maps)):
            inner = dict_text([texts[index] for texts in components])
            text = dict_text([f"('components', {inner})"]
                             + [texts[index] for texts in rest])
            if best is None or text < best:
                best, frame = text, index
        return best, frame

    def _item_texts(self, key, value):
        """The dict item ``(key, value)`` rendered under every symmetry map.

        Cached by the value's ``repr``: snapshots are plain data, so equal
        reprs mean equal snapshots, and a component an action left alone
        is looked up rather than rendered again.
        """
        token = (key, repr(value))
        texts = self._texts.get(token)
        if texts is None:
            if len(self._texts) >= TEXT_CACHE_SIZE:
                self._texts.clear()
            texts = self._texts[token] = tuple(
                f"({canonical_text(key, name_map, addr_map)}, "
                f"{canonical_text(value, name_map, addr_map)})"
                for name_map, addr_map in self._symmetry_maps)
        return texts


def action_agent(key):
    """The agent of the action named ``key``: the controller it changes.

    A delivery changes its destination; an issue changes the cache behind
    its sequencer, which counts as part of that cache; main memory is no
    component and changes only with the directory/L2 that reads it. Actions
    on different agents are independent: each leaves the other enabled
    and unchanged, and both orders reach the same state, since every send
    parks on a lane of its own sender and the unordered channel is a
    multiset. Sleep sets (:func:`explore_cell`) rest on this.
    """
    return key[1]


def _renamed(keys, name_map, addr_map):
    """A sleep set's action keys under one symmetry map."""
    if not name_map and not addr_map:
        return frozenset(keys)
    return frozenset(rename(key, name_map, addr_map) for key in keys)


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def state_set_digest(visited):
    """Order-independent digest of a visited-state set.

    Serial and sharded explorations of the same cell must produce the
    same digest — the acceptance property for parallel frontiers.
    """
    return _sha("\n".join(sorted(visited)))


# -- frontier expansion (runs in campaign workers) ----------------------------


def replay_path(cell, path, channel_bound=DEFAULT_CHANNEL_BOUND):
    """Rebuild the state at the end of ``path`` on a fresh simulator."""
    harness = ExplorerHarness(cell, channel_bound=channel_bound)
    for action in path:
        harness.apply(action)
    return harness


def _expand_paths(cell, entries, check=None, channel_bound=DEFAULT_CHANNEL_BOUND):
    """Campaign shard runner: expand each frontier ``(path, sleep)`` entry.

    One harness serves the whole shard; each path replays once from its
    root checkpoint. Returns plain picklable records; the parent BFS
    merges them in submission order, so sharding never changes the result.
    """
    harness = ExplorerHarness(cell, channel_bound=channel_bound)
    return [
        _expand_one(harness, tuple(tuple(a) for a in path), check, sleep=sleep)
        for path, sleep in entries
    ]


def _expand_one(harness, path, check, checkpoint=None, keep=None,
                sleep=frozenset()):
    """Expand the state at the end of ``path`` on the live ``harness``.

    The state is entered by restoring its ``checkpoint`` or, without one,
    by replaying ``path`` once; every executed child after the first
    restores it again before its own action. ``keep(digest)`` says whether
    a child's checkpoint should come back in the record, for its own
    expansion.

    ``sleep`` holds the keys (:meth:`ExplorerHarness.action_key`, in this
    state's own frame) of actions another ordering already covers: each
    is counted in ``slept`` and never executed. A child's sleep set is
    every key in ``sleep`` or executed before it whose agent differs from
    its action's, renamed into the frame of the child's canonical text.
    """
    restores, replays = harness.restores, harness.replays
    if checkpoint is None:
        harness.replay(path)
        checkpoint = harness.checkpoint()
    else:
        harness.restore(checkpoint)
    record = {
        "path": [list(a) for a in path],
        "quiescent": harness.is_quiescent(),
        "children": [],
        "slept": 0,
        "violation": None,
        "covered": {},
        "projections": set(),
    }
    _harvest(record, harness)

    def fail(reason, extra_action=None):
        # flags the state the harness holds now
        trace = [list(a) for a in path]
        if extra_action is not None:
            trace.append(list(extra_action))
        text = harness.canonical()
        record["violation"] = {
            "cell": dict(harness.cell),
            "path": trace,
            "reason": reason,
            "check": check,
            "canonical": text,
            "digest": _sha(text),
        }

    def done():
        record["restores"] = harness.restores - restores
        record["replays"] = harness.replays - replays
        return _finish(record)

    problems = harness.state_problems(check)
    if problems:
        fail(problems[0])
        return done()
    actions = harness.enabled_actions()
    if not record["quiescent"] and not any(a[0] == "deliver" for a in actions):
        fail("deadlock: non-quiescent state with no deliverable message")
        return done()
    # named while the harness holds this state: a child moves the parked list
    keys = [harness.action_key(action) for action in actions]
    sleep = set(sleep)  # and every sibling executed so far
    at_parent = True
    for action, key in zip(actions, keys):
        if key in sleep:
            record["slept"] += 1
            continue
        if not at_parent:
            harness.restore(checkpoint)
        at_parent = False
        try:
            harness.apply(action)
        except (ProtocolError, InvariantError, DeadlockError) as exc:
            harness.restore(checkpoint)  # report the unmodified parent
            fail(f"{type(exc).__name__}: {exc}", extra_action=action)
            break
        problems = harness.state_problems(check)
        if problems:
            fail(problems[0], extra_action=action)
            break
        _harvest(record, harness)
        digest = harness.digest()
        agent = action_agent(key)
        child = {
            "action": list(action), "digest": digest,
            "quiescent": harness.is_quiescent(), "frame": harness.frame,
            "sleep": _renamed([other for other in sleep
                               if action_agent(other) != agent],
                              *harness._symmetry_maps[harness.frame]),
        }
        if keep is not None and keep(digest):
            child["checkpoint"] = harness.checkpoint()
        record["children"].append(child)
        sleep.add(key)
    return done()


def _harvest(record, harness):
    """Add the raw (state, event) keys every controller has fired so far."""
    covered = record["covered"]
    for comp in harness.system.controllers():
        covered.setdefault(comp.CONTROLLER_TYPE, set()).update(comp.coverage)
    record["projections"].update(harness.link_projection())


def _finish(record):
    # name the raw keys once per record, as ``covered_transitions`` does;
    # plain sorted lists: records cross process boundaries
    record["covered"] = {
        ctype: sorted({
            (name_of(state), name_of(event))
            for state, event in keys
        })
        for ctype, keys in record["covered"].items()
    }
    record["projections"] = sorted(record["projections"])
    return record


# -- the BFS driver -----------------------------------------------------------


def explore_cell(host="mesi", variant="full_state", addresses=1, n_cpus=2,
                 workers=1, max_states=100_000, check=None,
                 channel_bound=DEFAULT_CHANNEL_BOUND, progress=None):
    """Breadth-first reachability exploration of one (host × variant) cell.

    Returns a result dict: state/transition/quiescent counts, the
    order-independent ``digest`` of the visited set, the
    reachability-proven transition sets per controller type, the XG-link
    projections, and — if any check failed — a replayable
    ``counterexample`` (its ``path`` re-executes on the live simulator
    via :func:`replay_path`). ``restores``, ``replays`` and
    ``checkpoints_peak`` say how expansion reached its states: checkpoint
    restores, path replays from the root checkpoint, and the most
    checkpoints the frontier held at once.

    Sleep sets skip transitions that a second ordering of two independent
    actions (:func:`action_agent`) already covers. A state's sleep set is
    the intersection over its incoming edges from the previous level, in
    the frame of its canonical text; ``slept`` counts the transitions
    skipped, which are in ``transitions`` but never executed. The edge
    that first discovers a state is never slept, so every other key of
    the result is the unreduced exploration's.

    ``workers > 1`` shards each BFS level over the campaign executor;
    results merge in submission order, so the visited-set digest is
    byte-identical to the serial run.
    """
    cell = {"host": host, "variant": variant,
            "addresses": addresses, "n_cpus": n_cpus}
    harness = ExplorerHarness(cell, channel_bound=channel_bound)
    root_digest = harness.digest()
    visited = {root_digest}
    quiescent = {root_digest} if harness.is_quiescent() else set()
    relation = harness.transition_relation()
    maps = harness._symmetry_maps
    # states awaiting expansion: (path, checkpoint or None, digest, frame)
    frontier = [((), harness.root, root_digest, harness.frame)]
    # canonical-frame sleep sets of the states in ``frontier``
    sleeps = {root_digest: frozenset()}
    held = peak = 1  # checkpoints the frontier holds
    pending = set()  # new digests of the record being expanded

    def keep(digest):
        # mirrors the merge below: a child that will join the frontier
        # keeps its checkpoint while the budget allows
        nonlocal held, peak
        if (digest in visited or digest in pending
                or len(visited) + len(pending) >= max_states):
            return False
        pending.add(digest)
        if held >= CHECKPOINT_BUDGET:
            return False
        held += 1
        peak = max(peak, held)
        return True

    def own_sleep(digest, frame):
        # the canonical sleep set in the frame of the state's own path
        name_map, addr_map = maps[frame]
        return _renamed(sleeps[digest],
                        {to: name for name, to in name_map.items()},
                        {to: addr for addr, to in addr_map.items()})

    def expand_serially(level):
        nonlocal held
        for index, (path, checkpoint, digest, frame) in enumerate(level):
            level[index] = None  # expanded: release its checkpoint
            if checkpoint is not None:
                held -= 1
            yield _expand_one(harness, path, check, checkpoint, keep,
                              own_sleep(digest, frame))

    reachable = {}
    projections = set()
    transitions = slept = restores = replays = 0
    counterexample = None
    truncated = False
    depth = 0
    while frontier and counterexample is None:
        if workers > 1:
            records = _expand_frontier(
                cell, [(path, own_sleep(digest, frame))
                       for path, _checkpoint, digest, frame in frontier],
                workers, check, channel_bound)
        else:
            records = expand_serially(frontier)
        next_frontier = []
        next_sleeps = {}
        for record in records:
            restores += record["restores"]
            replays += record["replays"]
            for ctype, pairs in record["covered"].items():
                reachable.setdefault(ctype, set()).update(
                    tuple(pair) for pair in pairs)
            projections.update(tuple(pair) for pair in record["projections"])
            if record["violation"] is not None:
                counterexample = record["violation"]
                break
            transitions += len(record["children"]) + record["slept"]
            slept += record["slept"]
            for child in record["children"]:
                digest = child["digest"]
                if digest in visited:
                    if digest in next_sleeps:  # another edge from this level
                        next_sleeps[digest] &= child["sleep"]
                    continue
                if len(visited) >= max_states:
                    truncated = True
                    continue
                visited.add(digest)
                if child["quiescent"]:
                    quiescent.add(digest)
                next_sleeps[digest] = child["sleep"]
                next_frontier.append((
                    tuple(tuple(a) for a in record["path"])
                    + (tuple(child["action"]),),
                    child.get("checkpoint"), digest, child["frame"]))
            pending.clear()
        depth += 1
        if progress is not None:
            progress(depth, len(visited), len(next_frontier))
        frontier, sleeps = next_frontier, next_sleeps
    return {
        "cell": cell,
        "states": len(visited),
        "transitions": transitions,
        "slept": slept,
        "quiescent_states": len(quiescent),
        "depth": depth,
        "restores": restores,
        "replays": replays,
        "checkpoints_peak": peak,
        "digest": state_set_digest(visited),
        "reachable": {ctype: sorted(pairs) for ctype, pairs in reachable.items()},
        "relation": {ctype: sorted(pairs) for ctype, pairs in relation.items()},
        "projections": sorted(projections),
        "counterexample": counterexample,
        "truncated": truncated,
        "complete": counterexample is None and not truncated,
        "ok": counterexample is None,
    }


def _expand_frontier(cell, entries, workers, check, channel_bound):
    entries = [([list(a) for a in path], sleep) for path, sleep in entries]
    if len(entries) <= 1:
        return _expand_paths(cell, entries, check, channel_bound)
    shards = shard_evenly(entries, workers * 4)
    jobs = [
        CampaignJob(
            runner=_expand_paths,
            args=(cell, shard, check, channel_bound),
            label=f"explore[{cell['host']}/{cell['variant']}] shard {index}",
        )
        for index, shard in enumerate(shards)
    ]
    records = []
    for outcome in run_campaign(jobs, workers=workers):
        if not outcome.ok:
            raise ExplorationError(
                f"frontier shard failed: {outcome.error_type}: "
                f"{outcome.error}\n{outcome.traceback}")
        records.extend(outcome.value)
    return records


# -- coverage cross-check -----------------------------------------------------


def run_cell_stress(cell, seed=0, ops=200):
    """Seeded random run on the *exact* explorer cell configuration.

    Drives the same addresses with at most one outstanding op per
    sequencer (the explorer's own issue discipline), randomized network
    latencies, and the explorer's huge probe timeout — so every
    transition this run covers must be reachable by the explorer. The
    cross-check below enforces exactly that.
    """
    import random

    config = dc_replace(
        cell_config(**cell),
        randomize_latencies=True,
        seed=seed,
        deadlock_threshold=1_000_000,
    )
    system = build_system(config)
    rng = random.Random(seed)
    addresses = list(ADDRESS_POOL[: dict(cell).get("addresses", 1)])
    budget = {"left": int(ops)}

    def issue(seq):
        if budget["left"] <= 0:
            return
        budget["left"] -= 1
        addr = rng.choice(addresses)
        done = lambda msg, data, _seq=seq: issue(_seq)
        if rng.random() < 0.5:
            seq.load(addr, done)
        else:
            seq.store(addr, STORE_VALUE, done)

    for seq in system.sequencers:
        issue(seq)
    system.run_until_drained()
    covered = {}
    for comp in system.controllers():
        pairs = covered.setdefault(comp.CONTROLLER_TYPE, set())
        pairs.update(tuple(pair) for pair in comp.covered_transitions())
    return {ctype: sorted(pairs) for ctype, pairs in covered.items()}


def cross_check_coverage(result, covered):
    """Transitions a stress run covered that exploration says are
    unreachable — must be empty, or one of the two models is wrong."""
    reachable = {
        ctype: {tuple(pair) for pair in pairs}
        for ctype, pairs in result["reachable"].items()
    }
    problems = []
    for ctype, pairs in covered.items():
        extra = {tuple(pair) for pair in pairs} - reachable.get(ctype, set())
        if extra:
            problems.append((ctype, sorted(extra)))
    return problems


def load_reachable_report(path, include_partial=False):
    """Union the reachable-transition sets out of an ``explore_report.json``.

    Returns ``{ctype: {(state, event), ...}}`` suitable for
    :func:`repro.obs.matrix.render_matrix`'s ``reachable`` parameter —
    the bridge that makes ``repro report``'s uncovered lists
    reachability-authoritative.

    Truncated (``max_states``-capped) cells are skipped unless
    ``include_partial`` — an incomplete reachable set would silently
    misclassify unexplored-but-reachable transitions as dead rows.
    """
    import json

    with open(path) as fh:
        payload = json.load(fh)
    if isinstance(payload, list):
        cells = payload
    else:
        cells = payload.get("cells", [payload])
    out = {}
    for result in cells:
        if result.get("truncated") and not include_partial:
            continue
        for ctype, pairs in result.get("reachable", {}).items():
            out.setdefault(ctype, set()).update(tuple(pair) for pair in pairs)
    return out


def authoritative_uncovered(result, covered):
    """The report's authoritative uncovered list: reachable minus covered.

    Declared-but-unreachable transitions are excluded — they are dead
    table rows for this cell, not coverage gaps.
    """
    covered_sets = {
        ctype: {tuple(pair) for pair in pairs}
        for ctype, pairs in covered.items()
    }
    out = {}
    for ctype, pairs in result["reachable"].items():
        missing = {tuple(pair) for pair in pairs} - covered_sets.get(ctype, set())
        if missing:
            out[ctype] = sorted(missing)
    return out
