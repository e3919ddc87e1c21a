"""Exhaustive concrete-state reachability explorer.

Where :mod:`repro.verify.model` proves the XG<->accelerator *interface*
correct on an abstract single-address automaton, this module enumerates
the state space of the **real** simulator: actual controllers, compiled
dispatch tables, TBEs, the XG mirror, in-flight messages — everything.

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

A frontier node is the choice path from the reset state, which makes
every counterexample a replayable trace on the live simulator by
construction (:func:`replay_path`). Expansion never rebuilds a system:
one live :class:`ExplorerHarness` expands every state, restoring the
parent's checkpoint (:mod:`repro.host.checkpoint`) before each child's
action. An action changes one controller's group and the core, so
checkpoints, restores and digests redo only those groups. The BFS keeps
the checkpoint of every newly discovered state until that state is
expanded, up to :data:`CHECKPOINT_BUDGET`; a state found past the budget
replays its path once from the harness's root checkpoint. Sleep sets
skip the second ordering of two actions on different controllers
(:func:`action_agent`), which reaches a state already reached, without
changing what the exploration finds; a state whose every action sleeps
is not entered at all.
"""

import hashlib
from dataclasses import replace as dc_replace
from itertools import permutations

from repro.coherence.controller import ProtocolError
from repro.coherence.snapshot import (
    ReprMultiset, canonical_text, dict_text, rename, snap_message)
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

#: Checkpoints the BFS holds at once for discovered states awaiting
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
    """The explorer itself failed (bad replay, settle runaway, unknown check)."""


#: Registry of named per-state checks: ``name -> fn(harness) -> str | None``,
#: selected by name (``explore_cell(check=...)``, ``repro explore --check``).
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
    """One parked send. Never changed once parked: a delivery hands the
    destination a clone, so checkpoints share these by reference."""

    __slots__ = ("net", "port", "msg", "lane", "_snap")

    def __init__(self, net, port, msg):
        self.net = net
        self.port = port
        self.msg = msg
        # FIFO lane the real network would clamp (Network.send orders
        # per (sender, dest) when ordered=True)
        self.lane = (net.name, msg.sender, msg.dest)
        self._snap = None

    def snap(self):
        """The message's logical snapshot, taken once: it never changes."""
        if self._snap is None:
            self._snap = snap_message(self.msg)
        return self._snap


class HarnessCheckpoint:
    """A harness state: the system's checkpoint, the parked messages it
    shares by reference, and each group's rendered snapshot texts (None
    until rendered)."""

    __slots__ = ("system", "parked", "texts")

    def __init__(self, system, parked, texts):
        self.system = system
        self.parked = parked
        self.texts = texts


class ExplorerHarness:
    """One live simulator instance with explorer control installed.

    The live system changes only through :meth:`apply`, which records the
    group (:func:`repro.host.checkpoint.partition`) of the component it
    touched: checkpoints, restores and digests then redo only the groups
    changed since the checkpoint the live objects last matched.
    """

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
        # imported on first use, as System.checkpoint does: building and
        # running a system never need it
        from repro.host.checkpoint import partition

        groups = partition(self.system)
        self._group_of = {id(obj): index
                          for index, group in enumerate(groups) for obj in group}
        self._core = self._group_of[id(self.sim)]
        #: per group: its components with a snapshot hook, and whether it
        #: holds main memory
        self._snapshot_groups = [
            ([obj for obj in group if hasattr(obj, "snapshot_state")],
             self.system.memory in group)
            for group in groups]
        self._group_texts = [None] * len(groups)
        # the components whose actions can change the XG-link projection
        self._projected = {id(comp) for comp in self.system.xgs} | {
            id(cache) for _xg, caches, _l2 in self.system.xg_groups for cache in caches}
        self.frame = 0
        self._settle()
        self._root = None
        self._left_root = False
        self._live = None  # the checkpoint the live objects last matched
        self._changed = set()  # groups an action changed since
        #: the component the last :meth:`apply` delivered or issued to
        self.touched = None
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
        checkpointer = self.system.checkpointer
        if self._live is None:
            system = checkpointer.checkpoint()
        else:
            system = checkpointer.checkpoint(self._live.system, self._changed)
        self._live = HarnessCheckpoint(system, tuple(self.parked),
                                       list(self._group_texts))
        self._changed.clear()
        return self._live

    def restore(self, checkpoint):
        """Return to a state captured by :meth:`checkpoint`."""
        self._enter(checkpoint)
        self.restores += 1

    def _enter(self, checkpoint):
        # write back only the groups changed since the live checkpoint, or
        # whose bytes differ from it
        live = self._live
        if live is None:
            self.system.checkpointer.restore(checkpoint.system)
        else:
            self.system.checkpointer.restore(checkpoint.system, live.system,
                                             self._changed)
        self.parked[:] = checkpoint.parked
        self._group_texts = list(checkpoint.texts)
        self._live = checkpoint
        self._changed.clear()

    def replay(self, path):
        """Enter the state at the end of ``path`` from the root checkpoint."""
        self._enter(self.root)
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
        return ("deliver", parked.msg.dest, parked.net.name, parked.port, parked.snap())

    def apply(self, action):
        """Execute one choice, then settle. Raises on a stale replay.

        Marks the group of the component the action touches, the
        delivery's destination or the cache behind the issuing sequencer,
        and the core group, as changed: only those change while it runs.
        """
        self._left_root = True
        action = tuple(action)
        kind = action[0]
        if kind == "issue":
            _, seq_index, op, addr = action
            seq = self.system.sequencers[seq_index]
            if seq.outstanding:
                raise ExplorationError(f"replay divergence: {seq.name} busy")
            if op not in ("load", "store"):
                raise ExplorationError(f"unknown op {op!r}")
            self._touch(seq.cache)
            if op == "load":
                seq.load(addr)
            else:
                seq.store(addr, STORE_VALUE)
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
            self._touch(dest)
            # a clone: checkpoints share the parked original
            dest.deliver(parked.port, self.sim.tick + 1, msg.clone())
        else:
            raise ExplorationError(f"unknown action kind {kind!r}")
        self._settle()

    def _touch(self, component):
        self.touched = component
        group = self._group_of[id(component)]
        self._changed.add(group)
        self._changed.add(self._core)
        self._group_texts[group] = self._group_texts[self._core] = None

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
        lanes, bag = self._parked_snapshot()
        return {
            "components": components,
            "memory": self._memory_snapshot(),
            "lanes": lanes,
            "bag": bag,
        }

    def _memory_snapshot(self):
        return {
            addr: bytes(self.system.memory.peek(addr).to_bytes())
            for addr in self.addresses
        }

    def _parked_snapshot(self):
        ordered_lanes = {}
        unordered = []
        for parked in self.parked:
            desc = (parked.net.name, parked.port, parked.snap())
            if parked.net.ordered:
                ordered_lanes.setdefault(parked.lane, []).append(desc)
            else:
                unordered.append(desc)
        # FIFO lanes keep their order; the unordered channel is a
        # multiset, sorted again under every renaming
        lanes = {lane: tuple(msgs) for lane, msgs in ordered_lanes.items()}
        return lanes, ReprMultiset.of(unordered)

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
        dict and of its ``components`` dict, each rendered once per map.
        A group's items are kept until an action changes the group, and
        travel with its checkpoints; the parked channels, which every
        action changes, are rendered each time.
        """
        components, rest = [], []
        texts = self._group_texts
        live = self._live
        for index, group_texts in enumerate(texts):
            if group_texts is None:
                group_texts = texts[index] = self._render_group(index)
                if live is not None and index not in self._changed:
                    live.texts[index] = group_texts  # unchanged since: the same
            components.extend(group_texts[0])
            rest.extend(group_texts[1])
        lanes, bag = self._parked_snapshot()
        rest.append(self._item_texts("lanes", lanes))
        rest.append(self._item_texts("bag", bag))
        best = frame = None
        for index in range(len(self._symmetry_maps)):
            inner = dict_text([texts[index] for texts in components])
            text = dict_text([f"('components', {inner})"]
                             + [texts[index] for texts in rest])
            if best is None or text < best:
                best, frame = text, index
        return best, frame

    def _render_group(self, index):
        """``(component items, top-level items)`` of group ``index``, each
        item rendered under every symmetry map."""
        components, memory = self._snapshot_groups[index]
        items = []
        for comp in components:
            state = comp.snapshot_state()
            if state:
                items.append(self._item_texts(comp.name, state))
        top = [self._item_texts("memory", self._memory_snapshot())] if memory else []
        return items, top

    def _item_texts(self, key, value):
        """The dict item ``(key, value)`` rendered under every symmetry map.

        Cached by the value's ``repr``: snapshots are plain data, so equal
        reprs mean equal snapshots, and a part that an action changed back
        to an earlier value is looked up rather than rendered again.
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
    """Order-independent digest of a visited-state set: it names the
    states a cell reaches, whatever order the BFS found them in."""
    return _sha("\n".join(sorted(visited)))


# -- frontier expansion -------------------------------------------------------


def replay_path(cell, path, channel_bound=DEFAULT_CHANNEL_BOUND):
    """Rebuild the state at the end of ``path`` on a fresh simulator."""
    harness = ExplorerHarness(cell, channel_bound=channel_bound)
    for action in path:
        harness.apply(action)
    return harness


def _expand_one(harness, path, checkpoint, sleep, check, admit, covered,
                projections):
    """Expand the state at the end of ``path`` on the live ``harness``.

    The state is entered by restoring its ``checkpoint`` or, without one,
    by replaying ``path`` once; every executed child after the first
    restores it again before its own action. ``admit(digest)`` is None for
    a child already known, and otherwise says whether to checkpoint the
    child, for its own expansion.

    ``sleep`` holds the keys (:meth:`ExplorerHarness.action_key`, in this
    state's own frame) of actions another ordering already covers: each
    is counted as slept and never executed. A child's sleep set is every
    key in ``sleep`` or executed before it whose agent differs from its
    action's, renamed into the frame of the child's canonical text. A new
    child also records its own action keys, so that a state whose every
    action sleeps need not be entered at all (:func:`_all_slept`).

    Coverage is harvested into ``covered`` and ``projections``
    (:func:`_harvest`) from every controller at the root, and from a child
    only for the controller its action touched: no other controller fires
    during it.

    Returns ``(children, slept, counterexample)``: one dict per executed
    child, the number of slept actions, and the counterexample of the
    first check that failed, or None.
    """
    if checkpoint is None:
        harness.replay(path)
        checkpoint = harness.checkpoint()
    else:
        harness.restore(checkpoint)
    if not path:
        _harvest(covered, projections, harness, harness.system.controllers())
    children, slept = [], 0
    problems = harness.state_problems(check)
    if problems:
        return children, slept, _counterexample(harness, path, problems[0], check)
    actions = harness.enabled_actions()
    if not harness.is_quiescent() and not any(a[0] == "deliver" for a in actions):
        return children, slept, _counterexample(
            harness, path, "deadlock: non-quiescent state with no deliverable message",
            check)
    # named while the harness holds this state: a child moves the parked list
    keys = [harness.action_key(action) for action in actions]
    sleep = set(sleep)  # and every sibling executed so far
    at_parent = True
    for action, key in zip(actions, keys):
        if key in sleep:
            slept += 1
            continue
        if not at_parent:
            harness.restore(checkpoint)
        at_parent = False
        try:
            harness.apply(action)
        except (ProtocolError, InvariantError, DeadlockError) as exc:
            harness.restore(checkpoint)  # report the unmodified parent
            return children, slept, _counterexample(
                harness, path + (action,), f"{type(exc).__name__}: {exc}", check)
        problems = harness.state_problems(check)
        if problems:
            return children, slept, _counterexample(
                harness, path + (action,), problems[0], check)
        touched = harness.touched
        _harvest(covered, projections, harness, [touched],
                 id(touched) in harness._projected)
        digest = harness.digest()
        agent = action_agent(key)
        quiescent = harness.is_quiescent()
        child = {
            "action": action, "digest": digest,
            "quiescent": quiescent, "frame": harness.frame,
            "sleep": _renamed([other for other in sleep
                               if action_agent(other) != agent],
                              *harness._symmetry_maps[harness.frame]),
            "keys": None, "checkpoint": None,
        }
        keep = admit(digest)
        if keep is not None:
            child["keys"] = _action_keys(harness, quiescent)
            if keep:
                child["checkpoint"] = harness.checkpoint()
        children.append(child)
        sleep.add(key)
    return children, slept, None


def _counterexample(harness, path, reason, check):
    """A replayable record of the state the harness holds, reached by
    ``path``, failing with ``reason``."""
    text = harness.canonical()
    return {
        "cell": dict(harness.cell),
        "path": [list(action) for action in path],
        "reason": reason,
        "check": check,
        "canonical": text,
        "digest": _sha(text),
    }


def _action_keys(harness, quiescent):
    """The keys of every action enabled in the live state, or None when it
    is a deadlock, which only entering the state reports."""
    actions = harness.enabled_actions()
    if not quiescent and not any(action[0] == "deliver" for action in actions):
        return None
    return tuple(harness.action_key(action) for action in actions)


def _all_slept(keys, sleep):
    """Whether a state with action ``keys`` (None: unknown) executes
    nothing under ``sleep``. Such a state is not entered: it is counted in
    ``transitions`` and ``slept``, and its checks already ran when it was
    found as a child."""
    return keys is not None and all(key in sleep for key in keys)


def _harvest(covered, projections, harness, controllers, project=True):
    """Add the raw (state, event) keys ``controllers`` have fired so far to
    ``covered``, per controller type, and, when ``project``, the XG-link
    projections to ``projections``."""
    for comp in controllers:
        covered.setdefault(comp.CONTROLLER_TYPE, set()).update(comp.coverage)
    if project:
        projections.update(harness.link_projection())


# -- the BFS driver -----------------------------------------------------------


def explore_cell(host="mesi", variant="full_state", addresses=1, n_cpus=2,
                 max_states=100_000, check=None,
                 channel_bound=DEFAULT_CHANNEL_BOUND, progress=None):
    """Breadth-first reachability exploration of one (host × variant) cell.

    Returns a result dict: state/transition/quiescent counts, the
    order-independent ``digest`` of the visited set, the
    reachability-proven transition sets per controller type, the XG-link
    projections, and — if any check failed — a replayable
    ``counterexample`` (its ``path`` re-executes on the live simulator
    via :func:`replay_path`). ``restores``, ``replays`` and
    ``checkpoints_peak`` say how expansion reached its states: checkpoint
    restores, path replays from the root checkpoint (of states found past
    :data:`CHECKPOINT_BUDGET`), and the most checkpoints the frontier held
    at once. Every executed transition costs one of a restore or a
    replay, so ``restores + replays`` equals ``transitions − slept`` on a
    run without a counterexample.

    Sleep sets skip transitions that a second ordering of two independent
    actions (:func:`action_agent`) already covers. A state's sleep set is
    the intersection over its incoming edges from the previous level, in
    the frame of its canonical text; ``slept`` counts the transitions
    skipped, which are in ``transitions`` but never executed. A state
    whose every action sleeps is not entered. The edge that first
    discovers a state is never slept, so every other key of the result is
    the unreduced exploration's.
    """
    cell = {"host": host, "variant": variant,
            "addresses": addresses, "n_cpus": n_cpus}
    harness = ExplorerHarness(cell, channel_bound=channel_bound)
    root_digest = harness.digest()
    visited = {root_digest}
    quiescent = {root_digest} if harness.is_quiescent() else set()
    relation = harness.transition_relation()
    maps = harness._symmetry_maps
    # states awaiting expansion: (path, checkpoint or None, digest, frame,
    # action keys or None)
    frontier = [((), harness.root, root_digest, harness.frame, None)]
    # canonical-frame sleep sets of the states in ``frontier``
    sleeps = {root_digest: frozenset()}
    held = peak = 1  # checkpoints the frontier holds
    pending = set()  # new digests of the state being expanded

    def admit(digest):
        # mirrors the merge below: None for a child that will not join the
        # frontier; one that will keeps its checkpoint while the budget allows
        nonlocal held, peak
        if (digest in visited or digest in pending
                or len(visited) + len(pending) >= max_states):
            return None
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

    covered = {}  # controller type -> raw (state, event) keys fired
    projections = set()
    transitions = slept = 0
    counterexample = None
    truncated = False
    depth = 0
    while frontier and counterexample is None:
        next_frontier = []
        next_sleeps = {}
        for index, (path, checkpoint, digest, frame, keys) in enumerate(frontier):
            frontier[index] = None  # expanded: release its checkpoint
            if checkpoint is not None:
                held -= 1
            sleep = own_sleep(digest, frame)
            if _all_slept(keys, sleep):
                transitions += len(keys)
                slept += len(keys)
                continue
            children, skipped, counterexample = _expand_one(
                harness, path, checkpoint, sleep, check, admit, covered,
                projections)
            if counterexample is not None:
                break
            transitions += len(children) + skipped
            slept += skipped
            for child in children:
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
                next_frontier.append((path + (child["action"],), child["checkpoint"],
                                      digest, child["frame"], child["keys"]))
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
        "restores": harness.restores,
        "replays": harness.replays,
        "checkpoints_peak": peak,
        "digest": state_set_digest(visited),
        "reachable": {
            ctype: sorted({(name_of(state), name_of(event)) for state, event in keys})
            for ctype, keys in covered.items()},
        "relation": {ctype: sorted(pairs) for ctype, pairs in relation.items()},
        "projections": sorted(projections),
        "counterexample": counterexample,
        "truncated": truncated,
        "complete": counterexample is None and not truncated,
        "ok": counterexample is None,
    }


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
