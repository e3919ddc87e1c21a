"""One safety scenario and one runner for every adversarial harness.

The paper's safety evaluation (Section 4) is one experiment: a
misbehaving accelerator sits behind Crossing Guard beside live CPU
traffic, the host must neither crash nor deadlock, and every violation
must reach the OS. A :class:`Scenario` is one run of that experiment,
and the three harnesses are presets over it:

* :data:`FUZZ` — a fixed adversary from :mod:`repro.accel.buggy` on a
  perfect wire, aimed at CPU pages it has no permission on;
* :data:`CHAOS` — a fixed adversary plus seeded link faults (drop,
  duplicate, delay, corrupt) on the XG<->accelerator crossing;
* :data:`ROGUE` — a plan-driven Byzantine accelerator
  (:class:`~repro.accel.rogue.RoguePlan`) with the warn -> throttle ->
  disable quarantine ladder, the rate limiter and the online invariant
  watchdog armed.

:func:`run_scenario` runs one scenario and returns one
:class:`ScenarioResult`; :func:`run_matrix` fans many out over the
campaign executor, one :meth:`ScenarioResult.as_dict` row each.

The adversary's own pages are READ_WRITE: the paper is explicit that XG
cannot protect the *contents* of pages the accelerator may write, only
the host's stability.
"""

import dataclasses
from dataclasses import dataclass, field

from repro.accel.rogue import RoguePlan
from repro.host.config import AccelOrg, HostProtocol, SystemConfig
from repro.host.system import build_system
from repro.sim.faults import FaultPlan, single_link_plan
from repro.sim.simulator import DeadlockError
from repro.testing.invariants import DEFAULT_WATCHDOG_INTERVAL, InvariantError
from repro.testing.random_tester import RandomTester
from repro.xg.errors import Guarantee
from repro.xg.interface import XGVariant
from repro.xg.permissions import PagePermission

ALL_HOSTS = (HostProtocol.MESI, HostProtocol.HAMMER, HostProtocol.MESIF)
ALL_VARIANTS = (XGVariant.FULL_STATE, XGVariant.TRANSACTIONAL)

#: The hard-coded adversaries of :mod:`repro.accel.buggy`.
FIXED_ADVERSARIES = ("fuzz", "deaf", "wrong", "flood")

#: Where the adversary may aim. ``private``: its own pages (plus any
#: contested blocks), with CPU-only pages out of its address pool.
#: ``probe``: as ``private``, but it also aims at the CPU-only pages,
#: which carry no permission, so every such access must be blocked and
#: reported (G0). ``shared``: CPUs and adversary fight over the same
#: writable pages; data there is legitimately corruptible (Section
#: 2.2.1), so the tester checks only liveness.
PAGE_LAYOUTS = ("private", "probe", "shared")

#: Containment classifications, worst first. ``escaped`` means the
#: adversary hurt the host (crash, deadlock or invariant violation) — the
#: one outcome a sweep must never see.
CONTAINMENT_OUTCOMES = ("escaped", "quarantined", "throttled", "timed_out", "absorbed")

#: The stock rogue plan library. Each plan isolates one Byzantine
#: personality; ``shapeshifter`` mixes them all. Scenarios reseed the plan
#: with their own seed (:meth:`RoguePlan.reseed`), so entries stay immutable.
ROGUE_PLANS = {
    # Interface-legal but antisocial: heavy unsolicited-response traffic.
    "spoofer": RoguePlan(
        "spoofer",
        moves={"legal_get": 2, "spurious_response": 4, "stale_response": 2,
               "wrong_addr_response": 2},
    ),
    # Plays nice on requests, lies when probed.
    "liar": RoguePlan(
        "liar",
        moves={"legal_get": 4, "legal_put": 2},
        inv_responses={"wrong_type": 2, "wrong_addr": 1, "correct": 1},
    ),
    # Replays its own history: same-uid wire duplicates plus double acks.
    "replayer": RoguePlan(
        "replayer",
        moves={"legal_get": 3, "legal_put": 1, "stale_replay": 4},
        inv_responses={"double": 2, "correct": 1},
    ),
    # Acquires blocks, then never answers a probe (G2c timeout path).
    "mute": RoguePlan(
        "mute",
        moves={"legal_get": 3, "silence": 2},
        inv_responses={"ignore": 1},
        mean_gap=40,
    ),
    # Denial of service with perfectly legal requests.
    "flooder": RoguePlan(
        "flooder",
        moves={"legal_get": 1, "flood_burst": 5},
        mean_gap=8,
        burst=8,
    ),
    # Behaves, then dies mid-transaction with mail unread.
    "zombie": RoguePlan(
        "zombie",
        moves={"legal_get": 4, "legal_put": 2},
        inv_responses={"correct": 3, "ignore": 1},
        die_at=15_000,
    ),
    # Unparseable garbage: bad addresses, unknown types, missing payloads.
    "garbler": RoguePlan(
        "garbler",
        moves={"legal_get": 1, "malformed": 5},
    ),
    # Everything at once.
    "shapeshifter": RoguePlan(
        "shapeshifter",
        moves={name: 1 for name in
               ("legal_get", "legal_put", "spurious_response",
                "wrong_addr_response", "stale_replay", "stale_response",
                "malformed", "flood_burst", "silence")},
        inv_responses={"correct": 2, "wrong_type": 1, "wrong_addr": 1,
                       "ignore": 1, "double": 1},
    ),
}


@dataclass(frozen=True)
class Scenario:
    """One adversarial campaign, as a picklable value.

    ``adversary`` is a :data:`FIXED_ADVERSARIES` name, a
    :data:`ROGUE_PLANS` name, or a :class:`RoguePlan`; a plan is reseeded
    with ``seed`` so cells of a sweep draw distinct behavior streams while
    staying replayable from the serialized plan alone.
    ``adversary_kwargs`` go to a fixed adversary's constructor.

    ``pages`` is a :data:`PAGE_LAYOUTS` name. ``contested_blocks`` blocks
    are hammered by *both* the CPUs and the adversary: they force
    host-initiated probes across the crossing, so retry, surrogate and
    probe-reaction paths actually fire. CPU loads there count toward
    liveness but skip value checking.

    ``faults`` is None (a perfect wire), a ``{kind: rate}`` dict applied
    to the XG<->accelerator link with ``windows`` and ``fault_seed``
    (default: ``seed``), or a prebuilt :class:`FaultPlan`. The host
    interconnect stays reliable: the crossing is the threat model
    (Section 2.1).

    ``accel_timeout``, ``probe_retries``, ``rate_limit``,
    ``host_bandwidth``, the quarantine ladder (``warn_after``,
    ``throttle_after``/``throttle_rate``, ``disable_after``) and the
    watchdog period ``invariant_interval`` (0 disables) go to
    :class:`SystemConfig`. ``telemetry`` attaches a finalized
    :class:`~repro.obs.Telemetry` hub on ``system.sim.obs``;
    ``series_interval`` adds counter time series and ``lineage`` the
    causal lineage graph behind per-span blame.
    """

    host: HostProtocol = HostProtocol.MESI
    variant: XGVariant = XGVariant.FULL_STATE
    adversary: object = "fuzz"
    adversary_kwargs: dict = None
    seed: int = 0
    duration: int = 60_000
    cpu_ops: int = 1500
    pages: str = "probe"
    contested_blocks: int = 0
    faults: object = None
    windows: tuple = ()
    fault_seed: int = None
    accel_timeout: int = 4000
    probe_retries: int = 1
    rate_limit: tuple = None
    host_bandwidth: float = None
    warn_after: int = None
    throttle_after: int = None
    throttle_rate: tuple = None
    disable_after: int = None
    invariant_interval: int = 0
    telemetry: bool = False
    lineage: bool = False
    series_interval: int = 0

    def __post_init__(self):
        if not (isinstance(self.adversary, RoguePlan)
                or self.adversary in FIXED_ADVERSARIES
                or self.adversary in ROGUE_PLANS):
            raise ValueError(
                f"unknown adversary {self.adversary!r}; choose from "
                f"{FIXED_ADVERSARIES}, a rogue plan {tuple(ROGUE_PLANS)} or a RoguePlan"
            )
        if self.pages not in PAGE_LAYOUTS:
            raise ValueError(f"unknown page layout {self.pages!r}; choose from {PAGE_LAYOUTS}")
        object.__setattr__(self, "windows", tuple(self.windows))
        if self.faults is not None and not isinstance(self.faults, FaultPlan):
            single_link_plan(dict(self.faults), windows=self.windows)  # kinds and rates

    def replace(self, **changes):
        """A copy with ``changes`` applied (and validated)."""
        return dataclasses.replace(self, **changes)

    @property
    def adversary_name(self):
        """The adversary's name: a fixed adversary's or a plan's."""
        return getattr(self.adversary, "name", self.adversary)

    def rogue_plan(self):
        """The reseeded :class:`RoguePlan` to run, or None for a fixed adversary."""
        plan = self.adversary
        if not isinstance(plan, RoguePlan):
            if plan not in ROGUE_PLANS:
                return None
            plan = ROGUE_PLANS[plan]
        return plan.reseed(self.seed)

    def fault_plan(self):
        """A fresh :class:`FaultPlan` for the accel link (None: perfect wire).

        A prebuilt plan is returned as is, so its counters show this run.
        """
        if isinstance(self.faults, FaultPlan):
            return self.faults
        if self.faults is None and not self.windows:
            return None
        seed = self.seed if self.fault_seed is None else self.fault_seed
        return single_link_plan(dict(self.faults or {}), seed=seed, link="accel",
                                windows=self.windows)


#: Defaults of each harness. Scenario's own defaults are the fuzz ones.
FUZZ = Scenario()
CHAOS = Scenario(
    adversary="flood", cpu_ops=1200, pages="private", contested_blocks=2,
    faults={}, accel_timeout=2500, probe_retries=2,
)
ROGUE = Scenario(
    adversary="shapeshifter", cpu_ops=1200, pages="private", contested_blocks=2,
    accel_timeout=2500, probe_retries=2, rate_limit=(16, 100),
    warn_after=2, throttle_after=4, throttle_rate=(2, 200), disable_after=6,
    invariant_interval=DEFAULT_WATCHDOG_INTERVAL,
)


@dataclass
class ScenarioResult:
    """One scenario's outcome: safety, containment and recovery accounting."""

    host: str = ""
    variant: str = ""
    adversary: str = ""
    seed: int = 0
    plan: str = ""
    plan_json: str = ""
    host_crashed: bool = False
    host_deadlocked: bool = False
    crash_detail: str = ""
    diagnosis: str = ""
    invariant_violated: bool = False
    invariant_detail: str = ""
    forensics: object = None
    containment: str = ""
    cpu_loads_checked: int = 0
    cpu_loads_value_checked: int = 0
    cpu_stores_committed: int = 0
    adversary_messages: int = 0
    rogue_died: bool = False
    final_tick: int = 0
    violations: dict = field(default_factory=dict)
    violations_total: int = 0
    quarantine_state: str = "healthy"
    accel_disabled: bool = False
    faults_injected: dict = field(default_factory=dict)
    faults_total: int = 0
    probe_retries: int = 0
    duplicates_sunk: int = 0
    retry_echoes_absorbed: int = 0
    quarantine_surrogates: int = 0
    requests_dropped_disabled: int = 0
    nacks_sent: int = 0
    malformed_rejected: int = 0
    grants_suppressed: int = 0
    throttle_applied: int = 0
    rate_limited: int = 0
    watchdog_samples: int = 0
    watchdog_checks: int = 0
    watchdog_skipped: int = 0
    spans_closed: int = 0
    spans_orphaned: int = 0

    @classmethod
    def of(cls, scenario):
        """An empty result naming ``scenario``'s cell."""
        plan = scenario.rogue_plan()
        return cls(
            host=scenario.host.name,
            variant=scenario.variant.name,
            adversary=scenario.adversary_name,
            seed=scenario.seed,
            plan=plan.name if plan is not None else "",
            plan_json=plan.to_json() if plan is not None else "",
        )

    @property
    def host_safe(self):
        return not self.host_crashed and not self.host_deadlocked

    @property
    def contained(self):
        """True when the adversary never hurt the host."""
        return self.host_safe and not self.invariant_violated

    def classify(self):
        """Containment outcome: the worst rung the campaign reached.

        ``escaped`` is any harm to the host; ``quarantined`` means the OS
        ladder disabled the accelerator; ``throttled`` means the punitive
        rate clamp engaged; ``timed_out`` means probes had to fall back
        to the G2c surrogate; ``absorbed`` means XG simply corrected or
        logged everything inline.
        """
        if not self.contained:
            return "escaped"
        if self.accel_disabled:
            return "quarantined"
        if self.quarantine_state == "throttled" or self.throttle_applied:
            return "throttled"
        if self.violations.get(Guarantee.G2C_TIMEOUT.name, 0):
            return "timed_out"
        return "absorbed"

    def as_dict(self):
        data = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        data["violations"] = dict(self.violations)
        data["faults_injected"] = dict(self.faults_injected)
        data["host_safe"] = self.host_safe
        data["contained"] = self.contained
        return data


#: ScenarioResult field -> the XG counters it sums.
_XG_COUNTERS = {
    "probe_retries": ("probe_retries",),
    "duplicates_sunk": ("duplicates_sunk.accel_request", "duplicates_sunk.accel_response"),
    "retry_echoes_absorbed": ("retry_echoes_absorbed",),
    "quarantine_surrogates": ("quarantine_surrogates",),
    "requests_dropped_disabled": ("dropped_disabled",),
    "nacks_sent": ("dropped_disabled",),
    "malformed_rejected": ("malformed_rejected",),
    "grants_suppressed": ("grants_suppressed_disabled",),
    "throttle_applied": ("throttle_applied",),
    "rate_limited": ("rate_limited",),
}


def _blocks(base, count):
    return [base + 64 * i for i in range(count)]


def run_scenario(scenario):
    """Run one scenario; returns (:class:`ScenarioResult`, built system)."""
    s = scenario
    cpu_only = _blocks(0x100000, 8)
    contested = _blocks(0x180000, s.contested_blocks)
    cpu_pool = cpu_only + contested
    if s.pages == "shared":
        granted = adversary_pool = cpu_pool
    else:
        granted = _blocks(0x200000, 8) + contested
        adversary_pool = granted + cpu_only if s.pages == "probe" else granted
    fault_plan = s.fault_plan()
    rogue_plan = s.rogue_plan()
    kwargs = dict(s.adversary_kwargs or {})
    kwargs.setdefault("addr_pool", adversary_pool)
    if rogue_plan is not None:
        kind = "rogue"
        kwargs["plan"] = rogue_plan
    else:
        kind = s.adversary
        if kind == "flood" and fault_plan is not None:
            # Keep the flood alive on a lossy link: re-request addresses
            # whose grant or writeback-ack the link ate.
            kwargs.setdefault("retry_after", 4 * s.accel_timeout)
    config = SystemConfig(
        host=s.host,
        org=AccelOrg.XG,
        xg_variant=s.variant,
        cpu_l1_sets=4,
        cpu_l1_assoc=2,
        shared_l2_sets=8,
        shared_l2_assoc=4,
        randomize_latencies=True,
        seed=s.seed,
        deadlock_threshold=200_000,
        accel_timeout=s.accel_timeout,
        probe_retries=s.probe_retries,
        rate_limit=s.rate_limit,
        host_net_bandwidth=s.host_bandwidth,
        warn_after=s.warn_after,
        throttle_after=s.throttle_after,
        throttle_rate=s.throttle_rate,
        disable_after=s.disable_after,
        invariant_interval=s.invariant_interval,
        mem_latency=30,
        fault_plan=fault_plan,
        tags={"adversary": (kind, kwargs)},
    )
    system = build_system(config)
    obs = None
    if s.telemetry:
        from repro.obs import Telemetry

        obs = Telemetry(system.sim, lineage=s.lineage)
        if s.series_interval:
            obs.start_series(s.series_interval)
    # The adversary may do anything on its granted pages, nothing elsewhere.
    system.permissions.default = PagePermission.NONE
    for addr in granted:
        system.permissions.grant(addr, PagePermission.READ_WRITE)

    result = ScenarioResult.of(s)
    tester = RandomTester(
        system.sim,
        system.cpu_seqs,
        cpu_pool,
        ops_target=s.cpu_ops,
        store_fraction=0.45,
        check_data=s.pages != "shared",
        unchecked_blocks=contested,
    )
    adversary = system.accel_caches[0]
    adversary.start()
    tester.start()
    try:
        # Phase 1: CPUs, the adversary and any link faults run together.
        system.sim.run(max_ticks=s.duration)
        # Phase 2: silence the adversary and drain — retries, timeouts and
        # surrogate answers must close every transaction it left open.
        adversary.stop()
        tester.stop()
        system.sim.run()
    except InvariantError as exc:
        result.invariant_violated = True
        result.invariant_detail = str(exc)
        result.crash_detail = f"{type(exc).__name__}: {exc}"
        result.forensics = getattr(exc, "forensics", None)
    except DeadlockError as exc:
        result.host_deadlocked = True
        result.crash_detail = f"{type(exc).__name__}: {exc}"
        result.diagnosis = exc.diagnose()
    except Exception as exc:  # noqa: BLE001 - any other escape is a host crash
        result.host_crashed = True
        result.crash_detail = f"{type(exc).__name__}: {exc}"
    if obs is not None:
        # After a full drain every span must have closed through its own
        # lifecycle; finalize() force-closes stragglers as "orphaned".
        obs.finalize()
        result.spans_closed = obs.spans.finished_total
        result.spans_orphaned = obs.orphaned_count()
    result.cpu_loads_checked = tester.loads_checked
    result.cpu_loads_value_checked = tester.loads_value_checked
    result.cpu_stores_committed = tester.stores_committed
    result.adversary_messages = adversary.stats.get("adversary_msgs")
    result.rogue_died = getattr(adversary, "dead", False)
    result.final_tick = system.sim.tick
    log = system.error_log
    result.violations_total = len(log)
    result.violations = {g.name: n for g, n in log.by_guarantee().items()}
    result.quarantine_state = log.quarantine_state
    result.accel_disabled = log.accel_disabled
    if fault_plan is not None:
        result.faults_injected = dict(fault_plan.stats)
        result.faults_total = fault_plan.total_injected
    for name, counters in _XG_COUNTERS.items():
        setattr(result, name, sum(system.xg.stats.get(c) for c in counters))
    watchdog = system.watchdog
    if watchdog is not None:
        result.watchdog_samples = watchdog.samples
        result.watchdog_checks = watchdog.checks
        result.watchdog_skipped = watchdog.skipped
    result.containment = result.classify()
    return result, system


def _run_cell(scenario, labels):
    """One matrix cell, worker-side; returns its (picklable) result row."""
    result, _system = run_scenario(scenario)
    row = result.as_dict()
    row.update(labels)
    return row


def run_matrix(cells, workers=1):
    """Run ``(scenario, labels)`` cells; one row per cell, in cell order.

    A row is the run's :meth:`ScenarioResult.as_dict` plus the cell's
    ``labels`` dict. ``workers`` fans the cells out over a process pool;
    rows come back in submission order, so any worker count gives
    byte-identical rows. A worker that escapes its own error handling
    becomes a rectangular failure row (``containment='escaped'``)
    carrying whatever forensics came back with it.
    """
    from repro.eval.campaign import CampaignJob, merge_failure_into, run_campaign

    cells = list(cells)
    jobs = [
        CampaignJob(
            runner=_run_cell,
            args=(scenario, labels),
            label="/".join([scenario.host.name, scenario.variant.name,
                            scenario.adversary_name, *map(str, labels.values()),
                            f"seed{scenario.seed}"]),
        )
        for scenario, labels in cells
    ]
    rows = []
    for (scenario, labels), outcome in zip(cells, run_campaign(jobs, workers=workers)):
        if outcome.ok:
            row = outcome.value
            if outcome.forensics is not None and not row["forensics"]:
                # fabric forensics_all: the worker kept its black box even
                # though the campaign succeeded
                row["forensics"] = outcome.forensics
        else:
            template = ScenarioResult.of(scenario).as_dict()
            template.update(labels)
            row = merge_failure_into(template, outcome)
            row.update(containment="escaped", contained=False,
                       forensics=outcome.forensics)
            if outcome.error_type == "InvariantError":
                row.update(invariant_violated=True, invariant_detail=outcome.error)
        rows.append(row)
    return rows
