"""Experiments E1-E4: Table 1, complexity, stress coverage, fuzz safety."""

import dataclasses

from repro.accel.l1_single import AL1Event, AL1State, AccelL1
from repro.coherence.coverage import collect_coverage
from repro.eval.campaign import CampaignJob, merge_failure_into, run_campaign
from repro.host.config import AccelOrg, HostProtocol, SystemConfig
from repro.host.system import build_system
from repro.protocols.hammer.cache import HammerCache
from repro.protocols.hammer.messages import HammerMsg
from repro.protocols.mesi.l1 import MesiL1
from repro.protocols.mesi.messages import MesiMsg
from repro.sim.network import Network, RandomLatency
from repro.sim.simulator import DeadlockError, Simulator
from repro.testing.random_tester import RandomTester
from repro.testing.scenario import (
    ALL_HOSTS, ALL_VARIANTS, FIXED_ADVERSARIES, FUZZ, run_matrix)
from repro.xg.interface import AccelMsg, XGVariant


# -- E1: Table 1 -----------------------------------------------------------------

#: The published Table 1 cells: (state, event) -> "action / next state".
PAPER_TABLE1 = {
    ("M", "Load"): "hit",
    ("M", "Store"): "hit",
    ("M", "Replacement"): "issue PutM / B",
    ("M", "Invalidate"): "send Dirty WB / I",
    ("E", "Load"): "hit",
    ("E", "Store"): "hit / M",
    ("E", "Replacement"): "issue PutE / B",
    ("E", "Invalidate"): "send Clean WB / I",
    ("S", "Load"): "hit",
    ("S", "Store"): "issue GetM / B",
    ("S", "Replacement"): "issue PutS / B",
    ("S", "Invalidate"): "send InvAck / I",
    ("I", "Load"): "issue GetS / B",
    ("I", "Store"): "issue GetM / B",
    ("I", "Replacement"): "-",
    ("I", "Invalidate"): "send InvAck",
    ("B", "Load"): "stall",
    ("B", "Store"): "stall",
    ("B", "Replacement"): "stall",
    ("B", "Invalidate"): "send InvAck / B",
    ("B", "DataM"): "/ M",
    ("B", "DataE"): "/ E",
    ("B", "DataS"): "/ S",
    ("B", "WBAck"): "/ I",
}


def run_table1_accel_l1():
    """Reproduce Table 1: the accelerator L1 transition matrix.

    Returns rows of (state, event, paper_cell, implemented) where
    ``implemented`` reflects the actual transition table of
    :class:`~repro.accel.l1_single.AccelL1`.
    """
    sim = Simulator()
    net = Network(sim, RandomLatency(1, 2), ordered=True, name="probe")
    l1 = AccelL1(sim, "probe_l1", net, "xg")
    declared = {
        (state.name, event.name) for (state, event) in l1.possible_transitions()
    }
    stall_states = {"B"}
    rows = []
    for (state, event), paper_cell in sorted(PAPER_TABLE1.items()):
        if paper_cell == "-":
            implemented = "-" if (state, event) not in declared else "UNEXPECTED"
        elif paper_cell == "stall":
            # Stalls are dispatch behavior, not table entries.
            implemented = "stall" if state in stall_states else "MISSING"
        else:
            implemented = "yes" if (state, event) in declared else "MISSING"
        rows.append(
            {"state": state, "event": event, "paper": paper_cell, "implemented": implemented}
        )
    extras = declared - {(s, e) for (s, e) in PAPER_TABLE1 if PAPER_TABLE1[(s, e)] not in ("-",)}
    return {"rows": rows, "extra_transitions": sorted(extras)}


# -- E2: protocol complexity -----------------------------------------------------------

def run_complexity_comparison():
    """Compare accelerator-interface complexity against host protocols.

    Mirrors the paper's Section 2.1/2.4 claim: the accelerator L1 needs
    4 stable states + 1 transient and sees 1 host request / 4 responses,
    versus the host MESI L1's 6 transient states and 4 requests /
    7 responses.
    """
    sim = Simulator()
    net = Network(sim, RandomLatency(1, 2), name="probe")
    accel = AccelL1(sim, "c_accel", net, "xg")
    mesi = MesiL1(sim, "c_mesi", net, "l2")
    hammer = HammerCache(sim, "c_hammer", net, "dir", n_peers=1)

    def states_of(controller):
        return {state for (state, _event) in controller.transitions}

    def summarize(controller, stable_names):
        states = states_of(controller)
        stable = {s for s in states if s.name in stable_names}
        transient = states - stable
        return {
            "stable_states": len(stable),
            "transient_states": len(transient),
            "transitions": len(controller.transitions),
        }

    rows = []
    accel_row = summarize(accel, {"M", "E", "S", "I"})
    accel_row.update(
        controller="accel L1 (XG interface)",
        incoming_requests=1,  # Invalidate
        incoming_responses=4,  # DataS/DataE/DataM/WBAck
        outgoing_requests=5,  # GetS/GetM/PutS/PutE/PutM
    )
    rows.append(accel_row)
    mesi_row = summarize(mesi, {"M", "E", "S", "I"})
    mesi_row.update(
        controller="host MESI L1",
        incoming_requests=4,  # Inv/Fwd_GetS/Fwd_GetM/Recall
        incoming_responses=7,  # DataS/DataE/DataM/InvAck/WBAck/WBNack + acks
        outgoing_requests=6,
    )
    rows.append(mesi_row)
    hammer_row = summarize(hammer, {"M", "O", "E", "S", "I"})
    hammer_row.update(
        controller="host Hammer cache",
        incoming_requests=3,  # Fwd_GetS/Fwd_GetM/Fwd_GetS_Only
        incoming_responses=6,  # PeerAck/PeerData/PeerDataExcl/MemData/WBAck/WBNack
        outgoing_requests=5,
    )
    rows.append(hammer_row)
    rows.append(
        {
            "controller": "interface message kinds",
            "stable_states": "-",
            "transient_states": "-",
            "transitions": "-",
            "incoming_requests": len(AccelMsg),
            "incoming_responses": len(MesiMsg),
            "outgoing_requests": len(HammerMsg),
        }
    )
    return rows


# -- E3: random stress + coverage --------------------------------------------------------------

def stress_configs(seed, hosts=(HostProtocol.MESI, HostProtocol.HAMMER)):
    """The 12-configuration matrix with tiny caches and random latencies.

    ``hosts`` may include ``HostProtocol.MESIF`` (the Intel-like host this
    reproduction adds) for an 18-configuration sweep.
    """
    shared = dict(
        n_cpus=2,
        n_accel_cores=2,
        cpu_l1_sets=2,
        cpu_l1_assoc=1,
        shared_l2_sets=4,
        shared_l2_assoc=2,
        accel_l1_sets=2,
        accel_l1_assoc=1,
        accel_l2_sets=2,
        accel_l2_assoc=2,
        randomize_latencies=True,
        seed=seed,
        deadlock_threshold=400_000,
        accel_timeout=150_000,
        mem_latency=30,
    )
    configs = []
    for host in hosts:
        configs.append(SystemConfig(host=host, org=AccelOrg.ACCEL_SIDE, **shared))
        configs.append(SystemConfig(host=host, org=AccelOrg.HOST_SIDE, **shared))
        for variant in (XGVariant.FULL_STATE, XGVariant.TRANSACTIONAL):
            for levels in (1, 2):
                configs.append(
                    SystemConfig(
                        host=host, org=AccelOrg.XG, xg_variant=variant,
                        accel_levels=levels, **shared,
                    )
                )
    return configs


def _stress_jobs(seed, num_blocks):
    """(config, tester_kwargs, label_suffix) for one seed's campaigns.

    Beyond the 12-configuration matrix, two special campaigns close
    structural coverage gaps: read-only accelerator pages (GetS_Only /
    Full State retention paths) and heavy L2 pressure (inclusive Recall
    paths).
    """
    blocks = [0x1000 + 64 * i for i in range(num_blocks)]
    all_hosts = (HostProtocol.MESI, HostProtocol.HAMMER, HostProtocol.MESIF)
    jobs = [
        (config, {"block_addrs": blocks}, "")
        for config in stress_configs(seed, hosts=all_hosts)
    ]

    # read-only pages: two extra blocks on their own (read-only) pages
    ro_blocks = [0x20000, 0x21000]
    base = stress_configs(seed, hosts=all_hosts)
    for config in base:
        if config.org is not AccelOrg.XG or config.accel_levels != 1:
            continue
        jobs.append(
            (
                config,
                {
                    "block_addrs": blocks[:3] + ro_blocks,
                    "accel_read_only": set(ro_blocks),
                },
                "+ro",
            )
        )
    # L2 pressure: single-way shared L2 so inclusive Recalls are constant
    for host in (HostProtocol.MESI, HostProtocol.MESIF):
        for config in base:
            if config.host is host and config.org is AccelOrg.XG and config.accel_levels == 1:
                squeezed = dataclasses.replace(
                    config, shared_l2_sets=2, shared_l2_assoc=1
                )
                jobs.append((squeezed, {"block_addrs": blocks}, "+l2press"))
    return jobs


def _build_stress_tester(config, tester_kwargs, ops_per_run):
    """Build one stress system + tester (shared by run and failure replay)."""
    system = build_system(config)
    kwargs = dict(tester_kwargs)
    blocks = kwargs.pop("block_addrs")
    ro_blocks = kwargs.pop("accel_read_only", None)
    if ro_blocks:
        from repro.xg.permissions import PagePermission

        for permissions in system.permissions_list:
            for addr in ro_blocks:
                permissions.grant(addr, PagePermission.READ)
        kwargs["accel_read_only"] = ro_blocks
        kwargs["accel_seq_names"] = {s.name for s in system.accel_seqs}
    tester = RandomTester(
        system.sim, system.sequencers, blocks,
        ops_target=ops_per_run, store_fraction=0.45, **kwargs,
    )
    return system, tester


def _replay_for_diagnosis(config, tester_kwargs, ops_per_run):
    """Re-run a deadlocked job with the trace ring enabled for forensics.

    Campaign jobs run with ``trace_depth=0`` (recording disabled on the
    hot path); determinism means the same seed reproduces the same wedge,
    this time with the last-N message trace attached.
    """
    traced = dataclasses.replace(config, trace_depth=64)
    _system, tester = _build_stress_tester(traced, tester_kwargs, ops_per_run)
    try:
        tester.run()
    except DeadlockError as exc:
        return exc.diagnose()
    except Exception as exc:  # noqa: BLE001 - replay diverging is itself news
        return f"replay raised {type(exc).__name__}: {exc} (expected DeadlockError)"
    return "replay with tracing enabled did not reproduce the deadlock"


def _run_stress_job(config, tester_kwargs, label, seed, ops_per_run,
                    telemetry=False, lineage=False):
    """One (config, seed) stress simulation.

    Returns (result row, coverage, telemetry summary or None). Runs
    worker-side under the campaign executor; everything returned is plain
    picklable data. Failures never escape — a deadlock row carries the
    forensic diagnosis from a traced deterministic replay.

    ``lineage=True`` additionally records causal lineage and ships this
    run's blame aggregate under ``summary["blame"]`` as a plain
    :meth:`~repro.obs.lineage.BlameMatrix.as_dict` payload.
    """
    system, tester = _build_stress_tester(config, tester_kwargs, ops_per_run)
    obs = None
    if telemetry or lineage:
        from repro.obs import Telemetry

        obs = Telemetry(system.sim, transitions=False, lineage=lineage)
    outcome = {"config": label, "seed": seed, "passed": True, "detail": ""}
    try:
        tester.run()
        outcome["loads_checked"] = tester.loads_checked
        if system.error_log is not None and len(system.error_log):
            outcome["passed"] = False
            outcome["detail"] = f"{len(system.error_log)} spurious XG errors"
    except DeadlockError as exc:
        outcome["passed"] = False
        outcome["detail"] = f"DeadlockError: {exc}"
        outcome["loads_checked"] = tester.loads_checked
        outcome["diagnosis"] = (
            _replay_for_diagnosis(config, tester_kwargs, ops_per_run)
            if system.sim.trace is None
            else exc.diagnose()
        )
    except Exception as exc:  # noqa: BLE001 - report, don't hide
        outcome["passed"] = False
        outcome["detail"] = f"{type(exc).__name__}: {exc}"
        outcome["loads_checked"] = tester.loads_checked
    coverage = collect_coverage(
        [c for c in system.sim.components if hasattr(c, "coverage")]
    )
    summary = None
    if obs is not None:
        obs.finalize()
        summary = obs.summary()
        if obs.lineage is not None:
            summary["blame"] = obs.blame_matrix(label, seed=seed).as_dict()
    return outcome, coverage, summary


def run_stress_coverage(seeds=range(4), ops_per_run=2000, num_blocks=5, workers=1,
                        telemetry=False, lineage=False):
    """E3: random load/store/check over all 12 configs; coverage report.

    Returns per-config pass counts and per-controller-type coverage
    aggregated across all runs, as the paper's Section 4.1 reports.
    ``workers`` fans the independent (config, seed) simulations out over
    a process pool; results and coverage merge in submission order, so
    any worker count produces byte-identical output.

    ``telemetry=True`` additionally records transaction spans in every
    run and returns a per-configuration :class:`~repro.obs.CoverageMatrix`
    under ``"matrix"`` (coverage heatmap cells + span-latency histograms,
    merged in submission order like everything else). The default result
    stays JSON-serializable.

    ``lineage=True`` enables causal lineage in every run (implies span
    recording) and folds the per-job blame aggregates into one
    :class:`~repro.obs.lineage.BlameMatrix` under ``"blame"`` — an
    order-free integer merge, so any worker count produces byte-identical
    blame output.
    """
    campaign_jobs = []
    for seed in seeds:
        for config, tester_kwargs, suffix in _stress_jobs(seed, num_blocks):
            label = config.label + suffix
            fast = dataclasses.replace(config, trace_depth=0)
            campaign_jobs.append(
                CampaignJob(
                    runner=_run_stress_job,
                    args=(fast, tester_kwargs, label, seed, ops_per_run),
                    kwargs={"telemetry": telemetry, "lineage": lineage},
                    label=f"{label}/seed{seed}",
                )
            )
    matrix = None
    if telemetry:
        from repro.obs import CoverageMatrix

        matrix = CoverageMatrix()
    blame = None
    if lineage:
        from repro.obs.lineage import BlameMatrix

        blame = BlameMatrix()
    coverage = {}
    results = []
    forensics = []
    for outcome in run_campaign(campaign_jobs, workers=workers):
        if outcome.ok and outcome.forensics is not None:
            # fabric forensics_all: black boxes kept for successful jobs
            forensics.append({"label": outcome.label,
                              "forensics": outcome.forensics})
        if not outcome.ok:
            # the job's own error capture failed (worker died mid-build):
            # surface it as a failed row rather than losing the run
            results.append(
                merge_failure_into({"config": outcome.label, "seed": None}, outcome)
            )
            continue
        row, job_coverage, telemetry_summary = outcome.value
        if blame is not None and telemetry_summary:
            from repro.obs.lineage import BlameMatrix

            job_blame = telemetry_summary.pop("blame", None)
            if job_blame:
                blame.merge(BlameMatrix.from_dict(job_blame))
        results.append(row)
        for ctype, report in job_coverage.items():
            if ctype in coverage:
                coverage[ctype].merge(report)
            else:
                coverage[ctype] = report
        if matrix is not None:
            matrix.add_run(row["config"], coverage=job_coverage,
                           telemetry_summary=telemetry_summary)
    coverage_rows = [
        {
            "controller": ctype,
            "visited": len(rep.visited_pairs & rep.possible),
            "possible": len(rep.possible),
            "fraction": rep.fraction,
            "missing": sorted(
                f"{getattr(s, 'name', s)}+{getattr(e, 'name', e)}" for (s, e) in rep.missing
            ),
        }
        for ctype, rep in sorted(coverage.items())
    ]
    result = {"runs": results, "coverage": coverage_rows}
    if matrix is not None:
        result["matrix"] = matrix
    if blame is not None:
        result["blame"] = blame
    if forensics:
        result["forensics"] = forensics
    return result


# -- E4: fuzz safety matrix ---------------------------------------------------------------------------

def run_fuzz_matrix(seeds=range(3), duration=50_000, cpu_ops=1000, workers=1):
    """E4: byzantine accelerators against every host x XG variant.

    The paper's claim: "this fuzz testing never leads to a crash or
    deadlock" — every row must have host_safe=True, and campaigns that
    inject violations must show them reported to the OS. The ``fuzz``
    adversary also aims at CPU pages it has no permission on; the others
    keep to their own pages. ``workers`` fans the campaigns out over a
    process pool (submission-order merge: output is identical for any
    worker count).
    """
    cells = [
        (FUZZ.replace(host=host, variant=variant, adversary=adversary, seed=seed,
                      duration=duration, cpu_ops=cpu_ops,
                      pages="probe" if adversary == "fuzz" else "private"), {})
        for host in ALL_HOSTS
        for variant in ALL_VARIANTS
        for adversary in FIXED_ADVERSARIES
        for seed in seeds
    ]
    return run_matrix(cells, workers=workers)
