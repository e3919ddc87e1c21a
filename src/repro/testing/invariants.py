"""Whole-system coherence invariant checks.

Called on a *quiescent* system (no messages in flight, no open TBEs):

* single-writer/multiple-readers: at most one cache holds a block in an
  owned state, and no sharers coexist with an owner;
* value consistency: every resident copy of a block agrees with the
  owner's (or memory's) value;
* XG mirror consistency (Full State): the mirror matches what the
  accelerator caches actually hold.
"""

from repro.accel.l1_single import AL1State
from repro.accel.two_level import AL2State
from repro.protocols.hammer.cache import HCState
from repro.protocols.mesi.l1 import L1State
from repro.protocols.mesif.l1 import FL1State
from repro.sim.simulator import format_trace_record


class InvariantError(AssertionError):
    """A coherence invariant failed on a quiescent system."""


_OWNED_STATES = {
    L1State.E,
    L1State.M,
    FL1State.E,
    FL1State.M,
    HCState.E,
    HCState.M,
    HCState.O,
    AL1State.E,
    AL1State.M,
    AL2State.O,
}
_SHARED_STATES = {L1State.S, FL1State.S, FL1State.F, HCState.S, AL1State.S, AL2State.S}


def _resident_entries(system):
    """Yield (cache_name, entry) for all data-holding controllers."""
    for controller in system.controllers():
        cache = getattr(controller, "cache", None)
        if cache is None:
            continue
        for entry in cache.entries():
            yield controller.name, entry


def check_quiescent(system):
    """Every TBE table empty and every stall buffer drained."""
    for controller in system.controllers():
        tbes = getattr(controller, "tbes", None)
        if tbes is not None and len(tbes):
            raise InvariantError(f"{controller.name} has open TBEs: {list(tbes)}")
        stalled = getattr(controller, "stalled_count", None)
        if stalled is not None and controller.stalled_count():
            raise InvariantError(f"{controller.name} has stalled messages")


def check_single_writer(system):
    """At most one owner per block; owners exclude sharers.

    Hierarchical exception: an accelerator-side owner is *nested inside*
    the Crossing Guard's ownership of the same block, so accel-side copies
    only conflict with other accel-side copies, and host-side copies with
    host-side ones. XG's mirror ties the two levels together.
    """
    per_block = {}
    for name, entry in _resident_entries(system):
        domain = _domain_of(system, name)
        per_block.setdefault((domain, entry.addr), []).append((name, entry))
    for (domain, addr), holders in per_block.items():
        owners = [(n, e) for n, e in holders if e.state in _OWNED_STATES]
        sharers = [(n, e) for n, e in holders if e.state in _SHARED_STATES]
        if len(owners) > 1:
            raise InvariantError(
                f"{domain} block {addr:#x} has multiple owners: "
                f"{[(n, e.state.name) for n, e in owners]}"
            )
        # An inclusive parent (MESI L2 / accel L2) legitimately holds an
        # entry while a child owns the block, so only flag sibling-level
        # conflicts: two same-level owners (caught above).
    return True


def _domain_of(system, name):
    """Coherence level a cache belongs to (SWMR holds per level).

    Each inclusive accelerator L2 is its own level (it legitimately holds
    a block in O while an L1 child owns it), and each accelerator's L1s
    form their own level — distinct accelerators only interact through
    the host protocol via their Crossing Guards.
    """
    for index, l2 in enumerate(system.accel_l2s):
        if name == l2.name:
            return f"accel_parent.{index}"
    for index, (_xg, caches, _l2) in enumerate(system.xg_groups):
        if name in {c.name for c in caches}:
            return f"accel.{index}"
    if name in {c.name for c in system.accel_caches}:
        return "accel"
    return "host"


def check_value_consistency(system):
    """All same-level shared copies of a block hold identical data."""
    per_block = {}
    for name, entry in _resident_entries(system):
        domain = _domain_of(system, name)
        per_block.setdefault((domain, entry.addr), []).append((name, entry))
    for (domain, addr), holders in per_block.items():
        owners = [e for _n, e in holders if e.state in _OWNED_STATES]
        sharers = [e for _n, e in holders if e.state in _SHARED_STATES]
        if owners:
            continue  # owner's value is authoritative; parents may be stale
        values = {bytes(e.data.to_bytes()) for e in sharers}
        if len(values) > 1:
            raise InvariantError(f"{domain} block {addr:#x}: divergent shared copies")
    return True


def check_xg_mirror(system):
    """Each Full State XG's mirror matches its accelerator's contents."""
    groups = system.xg_groups or (
        [(system.xg, system.accel_caches, system.accel_l2)] if system.xg else []
    )
    for xg, caches, accel_l2 in groups:
        if xg is None or xg.mirror is None:
            continue
        held = {}
        visible = [accel_l2] if accel_l2 is not None else list(caches)
        arrays = [
            array
            for array in (getattr(cache, "cache", None) for cache in visible)
            if array is not None
        ]
        if not arrays:
            # Adversary/rogue components have no cache array: the
            # accelerator side of this group is unobservable, so the
            # mirror cannot be cross-checked (and a Byzantine endpoint's
            # "state" is meaningless anyway — the mirror is XG's defensive
            # model of it, not a contract).
            continue
        for array in arrays:
            for entry in array.entries():
                held[entry.addr] = entry.state
        for addr, mirror in xg.mirror.items():
            if mirror.accel_state == "I":
                continue  # XG-retained only
            if addr not in held:
                raise InvariantError(
                    f"{xg.name} mirror says accel holds {addr:#x} "
                    f"({mirror.accel_state}); it doesn't"
                )
        for addr, state in held.items():
            if state in _OWNED_STATES or state in _SHARED_STATES:
                mirror = xg.mirror.get(addr)
                if mirror is None or mirror.accel_state == "I":
                    raise InvariantError(
                        f"accel holds {addr:#x} ({state.name}) but "
                        f"{xg.name} mirror does not know"
                    )
                if state in _OWNED_STATES and mirror.accel_state != "O":
                    raise InvariantError(
                        f"accel owns {addr:#x} but {xg.name} mirror says "
                        f"{mirror.accel_state}"
                    )
    return True


def check_all(system):
    """Run every invariant; the system must be quiescent."""
    check_quiescent(system)
    check_single_writer(system)
    check_value_consistency(system)
    check_xg_mirror(system)
    return True


# -- online sampling ----------------------------------------------------------

#: Default watchdog sampling period in ticks. Chosen well below the
#: campaign deadlock thresholds so a corruption is caught within one
#: "round" of traffic, while staying cheap (a sample is a handful of
#: attribute loads unless the system happens to be quiescent).
DEFAULT_WATCHDOG_INTERVAL = 2000


class InvariantWatchdog:
    """Periodic online :func:`check_all` sampling inside the run loop.

    Attach via :meth:`Simulator.attach_monitor`. The global invariants
    only hold on a *quiescent* system — mid-transaction, two stable
    owners can legitimately coexist for an instant — so each due sample
    first checks a quiescence proxy (no pending port work, no open TBEs,
    no stalled messages, watchdog-exempt adversaries excluded) and counts
    a skip when traffic is in flight. The final drain is always sampled,
    so every run gets at least one full check.

    The watchdog deliberately keeps its own plain counters: it must not
    touch component :class:`~repro.sim.stats.Stats`, schedule simulator
    events, or consume ``sim.rng``, so golden digests stay byte-identical
    with it enabled.

    On a violation it records span/trace forensics, annotates the
    :class:`InvariantError` with them (``exc.forensics``), and re-raises.
    """

    def __init__(self, system, interval=DEFAULT_WATCHDOG_INTERVAL):
        self.system = system
        self.interval = max(1, int(interval))
        self.samples = 0   # times the loop handed us control
        self.checks = 0    # samples that found quiescence and ran check_all
        self.skipped = 0   # samples skipped because traffic was in flight
        self.violations = []
        self._next = None

    def next_due(self, tick):
        if self._next is None:
            self._next = tick + self.interval
        return self._next

    def _quiescent(self):
        for comp in self.system.sim.components:
            if comp.watchdog_exempt:
                # A dead rogue's unread mail must not mask host checking.
                continue
            if comp.next_pending_tick() is not None:
                return False
            tbes = getattr(comp, "tbes", None)
            if tbes is not None and len(tbes):
                return False
            stalled = getattr(comp, "stalled_count", None)
            if stalled is not None and comp.stalled_count():
                return False
        return True

    def sample(self, sim, final=False):
        self.samples += 1
        self._next = sim.tick + self.interval
        if not self._quiescent():
            self.skipped += 1
            return self._next
        self.checks += 1
        try:
            check_all(self.system)
        except InvariantError as exc:
            record = self._forensics(sim, exc, final)
            self.violations.append(record)
            obs = sim.obs
            if obs is not None:
                obs.record_mark(
                    sim.tick, "invariant_violation", component="watchdog",
                    name=type(exc).__name__,
                )
            exc.forensics = record
            raise
        return self._next

    def _forensics(self, sim, exc, final):
        """Span/trace snapshot taken at the violating sample."""
        trace = [format_trace_record(record) for record in sim.trace or ()]
        open_spans = 0
        obs = sim.obs
        if obs is not None:
            open_spans = obs.spans.open_count
        quarantine = [
            {"xg": xg.name, "state": xg.error_log.quarantine_state,
             "violations": len(xg.error_log)}
            for xg in self.system.xgs
        ]
        component_lines = []
        for comp in sim.components:
            hook = getattr(comp, "diagnose_extra", None)
            if hook is not None:
                component_lines.extend(f"{comp.name}: {line}" for line in hook())
        return {
            "tick": sim.tick,
            "final": final,
            "error": str(exc),
            "trace": trace,
            "open_spans": open_spans,
            "quarantine": quarantine,
            "components": component_lines,
        }

    def as_dict(self):
        return {
            "interval": self.interval,
            "samples": self.samples,
            "checks": self.checks,
            "skipped": self.skipped,
            "violations": list(self.violations),
        }
