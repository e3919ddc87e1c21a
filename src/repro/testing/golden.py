"""Golden-run equivalence harness for the compiled dispatch fast path.

The compiled transition dispatch (:mod:`repro.coherence.controller`)
rewrites the semantics-critical inner loop of every protocol controller,
so its proof obligation is behavioral *identity*, not plausibility. This
module digests seeded runs into four sha256 fingerprints:

* **transitions** — the full per-controller (tick, component, type,
  state, event) sequence recorded by :class:`~repro.obs.Telemetry`,
  i.e. every step every state machine took, in order;
* **memory** — the final main-memory image (sorted address → block
  bytes);
* **state** — every controller's final ``snapshot_state()`` (resident
  entries, open TBEs, stalled messages), which pins the end state of a
  run whose dirty blocks all stay in the caches;
* **stats** — the canonical-JSON per-component stats report.

Two runs with equal digest dicts took the same steps, landed the same
bytes, left the same cache contents, and counted the same events.
:func:`compare_modes` runs one scenario twice — once under
``DISPATCH_MODE="compiled"``, once under ``"legacy"`` (the pre-refactor
reference path, kept verbatim) — and the equivalence suite asserts the
digests match across all hosts × accelerator organizations. Committed
digests in ``tests/golden/`` additionally pin the sequences against
*future* perturbation; refresh them deliberately with
``python -m repro golden --update``.
"""

import hashlib
import json

from repro.accel.rogue import RogueAccel
from repro.coherence.controller import dispatch_mode
from repro.coherence.snapshot import canonical_text
from repro.host.config import AccelOrg, HostProtocol, SystemConfig
from repro.host.system import build_system
from repro.obs import Telemetry
from repro.testing.invariants import DEFAULT_WATCHDOG_INTERVAL
from repro.testing.random_tester import RandomTester
from repro.xg.interface import XGVariant

#: Scenario names accepted by :func:`golden_run`.
SCENARIOS = ("stress", "l2press", "fuzz", "chaos")

#: The (scenario, host, org) configs whose digests are committed in
#: ``tests/golden/digests.json``: every host protocol, both XG ports that
#: share code (MESI and MESIF), the inclusive-eviction rows of both
#: (``l2press``), a chaos run whose link faults duplicate and drop
#: messages on the crossing, and a fuzz run that pins the fixed-adversary
#: path.
PINNED_CONFIGS = (
    ("stress", HostProtocol.MESI, AccelOrg.XG),
    ("stress", HostProtocol.HAMMER, AccelOrg.XG),
    ("stress", HostProtocol.MESIF, AccelOrg.HOST_SIDE),
    ("stress", HostProtocol.MESIF, AccelOrg.XG),
    ("l2press", HostProtocol.MESI, AccelOrg.XG),
    ("l2press", HostProtocol.MESIF, AccelOrg.XG),
    ("chaos", HostProtocol.MESI, AccelOrg.XG),
    ("fuzz", HostProtocol.HAMMER, AccelOrg.XG),
)


def _digest_lines(lines):
    sha = hashlib.sha256()
    for line in lines:
        sha.update(line.encode())
        sha.update(b"\n")
    return sha.hexdigest()


def _token(value):
    """Version-proof rendering: enum members digest by name, not str()."""
    return getattr(value, "name", None) or str(value)


def transition_digest(obs):
    """sha256 over the ordered transition sequence of a recording."""
    transitions = obs.transitions or ()
    return _digest_lines(
        f"{tick}|{component}|{ctype}|{_token(state)}|{_token(event)}"
        for tick, component, ctype, state, event in transitions
    )


def memory_digest(memory):
    """sha256 over the final memory image (sorted address -> bytes)."""
    blocks = memory._blocks
    return _digest_lines(
        f"{addr:#x}|{blocks[addr].to_bytes().hex()}" for addr in sorted(blocks)
    )


def stats_digest(sim):
    """sha256 of the canonical-JSON per-component stats report."""
    report = json.dumps(sim.stats_report(), sort_keys=True)
    return hashlib.sha256(report.encode()).hexdigest()


def state_digest(system):
    """sha256 over every controller's final logical state.

    Each line is one ``(name, snapshot_state())`` pair as canonical text
    (dicts sorted by item), so it does not depend on set or dict
    iteration order. Fixed-behavior adversaries standing in for
    accelerator caches have no protocol state and are skipped.
    """
    return _digest_lines(
        canonical_text((ctrl.name, ctrl.snapshot_state()), None, None)
        for ctrl in system.controllers()
        if hasattr(ctrl, "snapshot_state")
    )


def digest_system(system, obs):
    """The full digest dict for one finished run."""
    return {
        "transitions": transition_digest(obs),
        "transitions_count": len(obs.transitions or ()),
        "memory": memory_digest(system.memory),
        "state": state_digest(system),
        "stats": stats_digest(system.sim),
        "final_tick": system.sim.tick,
        "events_fired": system.sim._events_fired,
    }


# -- scenarios ---------------------------------------------------------------


def _run_stress(host, org, xg_variant, seed, ops, l2_sets=4, l2_assoc=2):
    """Seeded random CPU+accelerator traffic over the full protocol stack.

    Works for every (host, org) pair — the same small geometry the
    ``xg_stress`` benchmark uses, with telemetry recording on. The
    ``l2press`` scenario shrinks the shared L2 to 2 sets x 1 way (the
    stress campaign's ``+l2press`` job), below the 6 blocks in play, so
    inclusive evictions and Recalls fire constantly.
    """
    config = SystemConfig(
        host=host,
        org=org,
        xg_variant=xg_variant,
        n_cpus=2,
        n_accel_cores=2,
        cpu_l1_sets=2,
        cpu_l1_assoc=1,
        shared_l2_sets=l2_sets,
        shared_l2_assoc=l2_assoc,
        accel_l1_sets=2,
        accel_l1_assoc=1,
        randomize_latencies=True,
        seed=seed,
        deadlock_threshold=400_000,
        accel_timeout=150_000,
        mem_latency=30,
        trace_depth=0,
        # Deliberately on: golden digests double as the proof that the
        # online invariant watchdog is digest-neutral (it samples between
        # events and never schedules, counts, or draws randomness).
        invariant_interval=DEFAULT_WATCHDOG_INTERVAL,
    )
    system = build_system(config)
    obs = Telemetry(system.sim)
    blocks = [0x1000 + 64 * i for i in range(6)]
    tester = RandomTester(
        system.sim, system.sequencers, blocks,
        ops_target=ops, store_fraction=0.45,
    )
    tester.run()
    obs.finalize()
    return system, obs


def _run_fuzz(host, xg_variant, seed, ops):
    """An adversarial accelerator behind XG (org is implicitly XG)."""
    from repro.testing.fuzzer import run_fuzz_campaign

    result, system = run_fuzz_campaign(
        host, xg_variant, adversary="fuzz", seed=seed,
        duration=30_000, cpu_ops=ops, telemetry=True,
    )
    if not result.host_safe:
        raise AssertionError(f"fuzz golden run lost host safety: {result.crash_detail}")
    return system, system.sim.obs


def _run_chaos(host, xg_variant, seed, ops):
    """Link faults on the crossing plus a flooding accelerator."""
    from repro.testing.chaos import run_chaos_campaign

    result, system = run_chaos_campaign(
        host, xg_variant,
        faults={"drop": 0.1, "duplicate": 0.1},
        seed=seed, duration=20_000, cpu_ops=ops, telemetry=True,
    )
    if not result.host_safe:
        raise AssertionError(f"chaos golden run lost host safety: {result.crash_detail}")
    return system, system.sim.obs


def golden_run(scenario, host, org=AccelOrg.XG,
               xg_variant=XGVariant.FULL_STATE, seed=0, ops=400):
    """One seeded scenario run under the *current* dispatch mode.

    Returns the digest dict (see :func:`digest_system`). ``fuzz`` and
    ``chaos`` scenarios imply ``org=XG`` — they replace the accelerator
    with an adversary behind Crossing Guard.
    """
    if scenario == "stress":
        system, obs = _run_stress(host, org, xg_variant, seed, ops)
    elif scenario == "l2press":
        system, obs = _run_stress(host, org, xg_variant, seed, ops,
                                  l2_sets=2, l2_assoc=1)
    elif scenario == "fuzz":
        system, obs = _run_fuzz(host, xg_variant, seed, ops)
    elif scenario == "chaos":
        system, obs = _run_chaos(host, xg_variant, seed, ops)
    else:
        raise ValueError(f"unknown golden scenario {scenario!r} (try {SCENARIOS})")
    _assert_no_rogue(system)
    return digest_system(system, obs)


def _assert_no_rogue(system):
    """Golden runs pin *reference* behavior; a Byzantine component inside
    one would silently turn the pinned digests adversarial. The fuzz and
    chaos scenarios use the fixed-behavior adversaries deliberately —
    only plan-driven rogues are banned."""
    rogues = [
        comp.name for comp in system.sim.components if isinstance(comp, RogueAccel)
    ]
    if rogues:
        raise AssertionError(
            f"golden run instantiated rogue component(s) {rogues}; "
            "rogue plans must never reach a golden configuration"
        )


# -- compiled-vs-legacy equivalence -------------------------------------------


def compare_modes(scenario, host, org=AccelOrg.XG,
                  xg_variant=XGVariant.FULL_STATE, seed=0, ops=400):
    """Run one scenario under both dispatch modes; return their digests.

    The pair being equal is the refactor's headline claim: the compiled
    fast path is step-for-step identical to the legacy reference path.
    """
    with dispatch_mode("compiled"):
        compiled = golden_run(scenario, host, org, xg_variant, seed, ops)
    with dispatch_mode("legacy"):
        legacy = golden_run(scenario, host, org, xg_variant, seed, ops)
    return compiled, legacy


def equivalence_matrix(scenario="stress", seed=0, ops=400):
    """Compiled-vs-legacy comparison across all hosts x accelerator orgs.

    Returns ``{label: {"compiled": .., "legacy": .., "identical": bool}}``.
    For fuzz/chaos scenarios the org axis collapses to XG (both variants
    instead).
    """
    rows = {}
    if scenario == "stress":
        cases = [
            (host, org, XGVariant.FULL_STATE)
            for host in HostProtocol
            for org in AccelOrg
        ]
    else:
        cases = [
            (host, AccelOrg.XG, variant)
            for host in HostProtocol
            for variant in XGVariant
        ]
    for host, org, variant in cases:
        label = f"{host.name.lower()}/{org.name.lower()}/{variant.name.lower()}"
        compiled, legacy = compare_modes(
            scenario, host, org, xg_variant=variant, seed=seed, ops=ops
        )
        rows[label] = {
            "compiled": compiled,
            "legacy": legacy,
            "identical": compiled == legacy,
        }
    return rows


# -- committed pinned digests -------------------------------------------------


def pinned_digests(seed=0, ops=400):
    """Digest dict for every ``PINNED_CONFIGS`` entry, as committed in CI."""
    pinned = {}
    for scenario, host, org in PINNED_CONFIGS:
        label = f"{scenario}/{host.name.lower()}/{org.name.lower()}"
        pinned[label] = golden_run(scenario, host, org, seed=seed, ops=ops)
    return {
        "note": (
            "Seed-run golden digests. A mismatch means a change perturbed "
            "controller transition sequences, the final memory image, or "
            "stats; refresh deliberately with `python -m repro golden "
            "--update` and explain the behavior change in the PR."
        ),
        "seed": seed,
        "ops": ops,
        "digests": pinned,
    }


def _changed_fields(expected, actual):
    """Sorted names of the digest fields whose values differ."""
    return sorted(
        key for key in expected.keys() | actual.keys()
        if expected.get(key) != actual.get(key)
    )


def check_pinned(committed, fresh):
    """Per-label verdicts of fresh digests against a committed digest file.

    ``committed`` and ``fresh`` map labels to digest dicts. Returns
    ``{label: verdict}`` in label order; a verdict is ``"OK"``,
    ``"CHANGED (fields)"``, ``"MISSING from the digest file"`` for a
    ``PINNED_CONFIGS`` label the file lacks, or ``"not in PINNED_CONFIGS"``
    for a file label no pinned config produces.
    """
    verdicts = {}
    for label in sorted(committed.keys() | fresh.keys()):
        if label not in committed:
            verdicts[label] = "MISSING from the digest file"
        elif label not in fresh:
            verdicts[label] = "not in PINNED_CONFIGS"
        else:
            fields = _changed_fields(committed[label], fresh[label])
            verdicts[label] = f"CHANGED ({', '.join(fields)})" if fields else "OK"
    return verdicts


def write_pinned(path, seed=0, ops=400):
    payload = pinned_digests(seed=seed, ops=ops)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return payload


def load_pinned(path):
    with open(path) as fh:
        return json.load(fh)
