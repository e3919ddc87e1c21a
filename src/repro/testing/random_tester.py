"""Random load/store/check stress tester.

Reimplements the structure of the gem5 Ruby random tester the paper cites
[33]: every sequencer issues a rapid stream of loads and stores to a small
pool of addresses (so caches thrash and transactions race), and every load
is checked against the set of values it could legally observe.

Legality tracking: per (block, offset) we keep the last *committed* value
plus the value of the single in-flight store, if any. A load snapshots the
acceptable set when issued; any store that commits while the load is in
flight adds its value to the snapshot. On completion the observed byte
must be in the set — otherwise the protocol broke the data-value
invariant and :class:`DataCheckError` is raised.

Stores to one location are serialized (one in flight globally per
location), which keeps the acceptable sets exact while still racing
stores against loads, invalidations, writebacks, and replacements.
"""


class DataCheckError(AssertionError):
    """A load observed a value no interleaving could legally produce."""


class _Location:
    """Per-(block, offset) expected-value state."""

    __slots__ = ("committed", "pending_value", "open_loads")

    def __init__(self):
        self.committed = 0  # memory starts zeroed
        self.pending_value = None
        self.open_loads = []

    @property
    def store_in_flight(self):
        return self.pending_value is not None


class _OpenLoad:
    __slots__ = ("acceptable",)

    def __init__(self, acceptable):
        self.acceptable = acceptable


class RandomTester:
    """Drives a set of sequencers with checked random traffic.

    Args:
        sim: the simulator.
        sequencers: sequencers to drive (one per core / accel core).
        block_addrs: pool of block base addresses to hammer; each op
            picks one of the first :data:`NUM_OFFSETS` bytes of a block.
        store_fraction: probability an op is a store.
        ops_target: total ops to issue across all sequencers.

    Between two ops a sequencer waits a random think time of 0 to
    :data:`MAX_THINK` ticks.
    """

    #: distinct byte offsets per block
    NUM_OFFSETS = 2
    #: most ticks a sequencer thinks between two ops
    MAX_THINK = 20

    def __init__(
        self,
        sim,
        sequencers,
        block_addrs,
        store_fraction=0.4,
        ops_target=1000,
        check_data=True,
        accel_read_only=(),
        accel_seq_names=(),
        unchecked_blocks=(),
    ):
        # check_data=False turns off value checking for pools a misbehaving
        # accelerator may legally corrupt (paper Section 2.2.1): only
        # liveness/latency are measured there.
        self.check_data = check_data
        # Blocks the accelerator writes with values the tester cannot
        # model (e.g. contested blocks under payload-corrupting link
        # faults): loads there still count toward liveness but skip the
        # value assertion.
        self.unchecked_blocks = set(unchecked_blocks)
        # Blocks the accelerator may only read (its pages are read-only):
        # accel sequencers issue loads there; CPUs still store, which
        # exercises XG's GetS_Only / retained-grant machinery under stress.
        self.accel_read_only = set(accel_read_only)
        self.accel_seq_names = set(accel_seq_names)
        self.sim = sim
        self.sequencers = list(sequencers)
        self.block_addrs = list(block_addrs)
        self.store_fraction = store_fraction
        self.ops_target = ops_target
        self.ops_issued = 0
        self.loads_checked = 0
        self.loads_value_checked = 0
        self.stores_committed = 0
        self._locations = {}
        self._next_value = 1

    # -- lifecycle ------------------------------------------------------------

    def start(self):
        """Prime every sequencer with its first op."""
        for sequencer in self.sequencers:
            self.sim.schedule(self.sim.rng.randint(0, self.MAX_THINK), self._issue, sequencer)

    def stop(self):
        """Stop issuing new ops (outstanding ones still complete)."""
        self.ops_target = self.ops_issued

    def run(self, max_ticks=50_000_000):
        """Start, then run the simulator until traffic drains."""
        self.start()
        reason = self.sim.run(max_ticks=max_ticks)
        if reason != "idle":
            raise RuntimeError(f"stress test did not drain: {reason}")
        for sequencer in self.sequencers:
            if not sequencer.drained():
                raise RuntimeError(f"{sequencer.name} still has outstanding ops")
        return self

    # -- op generation -----------------------------------------------------------

    def _location(self, block, offset):
        key = (block, offset)
        loc = self._locations.get(key)
        if loc is None:
            loc = _Location()
            self._locations[key] = loc
        return loc

    def _issue(self, sequencer):
        if self.ops_issued >= self.ops_target:
            return
        if not sequencer.can_issue():
            # Sequencer saturated; try again shortly.
            self.sim.schedule(self.MAX_THINK + 1, self._issue, sequencer)
            return
        rng = self.sim.rng
        block = rng.choice(self.block_addrs)
        offset = rng.randrange(self.NUM_OFFSETS)
        addr = block + offset
        loc = self._location(block, offset)
        want_store = rng.random() < self.store_fraction
        if (
            want_store
            and block in self.accel_read_only
            and sequencer.name in self.accel_seq_names
        ):
            want_store = False  # the accelerator may not write this page
        if want_store and not loc.store_in_flight:
            value = self._next_value
            self._next_value = (self._next_value % 0xFF) + 1
            loc.pending_value = value
            # Any load currently in flight overlaps this store in time and
            # may legally observe it once it is applied at the coherence
            # point (even before the store's own completion fires).
            for open_load in loc.open_loads:
                open_load.acceptable.add(value)
            sequencer.store(addr, value, self._make_store_done(loc))
        else:
            open_load = _OpenLoad(acceptable={loc.committed})
            if loc.store_in_flight:
                open_load.acceptable.add(loc.pending_value)
            loc.open_loads.append(open_load)
            sequencer.load(addr, self._make_load_done(loc, open_load, offset))
        self.ops_issued += 1
        # Keep the pipe full: schedule the next op after a random think time.
        self.sim.schedule(rng.randint(0, self.MAX_THINK), self._issue, sequencer)

    # -- completion checking --------------------------------------------------------

    def _make_store_done(self, loc):
        def on_done(msg, data):
            loc.committed = loc.pending_value
            loc.pending_value = None
            self.stores_committed += 1
            for open_load in loc.open_loads:
                open_load.acceptable.add(loc.committed)

        return on_done

    def _make_load_done(self, loc, open_load, offset):
        def on_done(msg, data):
            loc.open_loads.remove(open_load)
            # The completing cache returns its own block (which may be
            # wider than the tester's 64B view); index by full address.
            observed = data.read_byte(msg.addr % data.size)
            if self.check_data and (msg.addr - offset) not in self.unchecked_blocks:
                if observed not in open_load.acceptable:
                    raise DataCheckError(
                        f"addr {msg.addr:#x}: loaded {observed}, acceptable "
                        f"{sorted(open_load.acceptable)} (tick {self.sim.tick})"
                    )
                self.loads_value_checked += 1
            self.loads_checked += 1

        return on_done

    # -- reporting -------------------------------------------------------------------

    def summary(self):
        return {
            "ops_issued": self.ops_issued,
            "loads_checked": self.loads_checked,
            "loads_value_checked": self.loads_value_checked,
            "stores_committed": self.stores_committed,
            "final_tick": self.sim.tick,
        }
