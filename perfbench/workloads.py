"""The four benchmark workloads, driven only through repro's public entry points.

Each workload is a closed loop: the next simulation starts when the
previous one returns. ``stress``, ``explore`` and ``paper_perf`` run one
client in this process; ``hostile`` runs one pool of ``nproc`` workers
through ``run_campaign``.

A run is a fixed list of rounds that :func:`plan` generates from the
workload seed; :func:`run_round` executes one round and returns one
:class:`Sim` record per simulation (or proof). Only generated inputs --
configs, seeds, fault mixes, rogue plans, explorer cells -- reach the
program.

Simulation seeds are drawn from small pools whose outputs are pinned in
``pins.json``, so every workload seed maps onto pinned inputs.
:data:`HELD_OUT_SEED` draws from pool entries no other workload seed uses.
"""

import dataclasses
import json
import os
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.coherence.coverage import collect_coverage
from repro.eval.campaign import CampaignJob, run_campaign
from repro.eval.experiments import stress_configs
from repro.eval.perf import perf_configs, run_one
from repro.host.config import AccelOrg, HostProtocol, SystemConfig
from repro.host.system import build_system
from repro.obs import BlameMatrix, FabricCollector, sample_counters
from repro.testing.chaos import run_chaos_campaign
from repro.testing.golden import memory_digest
from repro.testing.random_tester import RandomTester
from repro.testing.rogue import ROGUE_PLANS, run_rogue_campaign
from repro.verify.explorer import cell_config, explore_cell
from repro.workloads.synthetic import PERF_WORKLOADS
from repro.xg.interface import XGVariant

from perfbench.layers import NULL_TRACER, Tracer, merge_folded, profiled

WORKLOADS = ("stress", "hostile", "explore", "paper_perf")

#: The held-out workload seed: its simulations come from pool entries no
#: other seed draws, so a claim checked on it was not tuned on its inputs.
HELD_OUT_SEED = 1009

PINS_PATH = Path(__file__).resolve().parent / "pins.json"

HOSTS = (HostProtocol.MESI, HostProtocol.HAMMER, HostProtocol.MESIF)
VARIANTS = (XGVariant.FULL_STATE, XGVariant.TRANSACTIONAL)

#: Host seconds one round takes on a 2-core x86-64 VM under CPython 3.11.
#: A run of ``--seconds s`` is ``max(1, round(s / NOMINAL_ROUND_S))``
#: rounds, so its work is fixed for a given ``s`` on every machine.
NOMINAL_ROUND_S = {"stress": 3.3, "hostile": 19.0, "explore": 29.0, "paper_perf": 7.3}

# stress: the 18-config E3 matrix, one simulation seed per round
STRESS_OPS = 800
STRESS_BLOCKS = tuple(0x1000 + 64 * i for i in range(5))
STRESS_POOL = tuple(range(32))
STRESS_HELD_OUT = tuple(range(1000, 1008))

# hostile: 5 chaos mixes and 8 rogue plans on every host x XG variant
FAULT_RATE = 0.2
CHAOS_MIXES = {kind: {kind: FAULT_RATE} for kind in ("drop", "duplicate", "delay", "corrupt")}
CHAOS_MIXES["mixed"] = {kind: FAULT_RATE / 2 for kind in tuple(CHAOS_MIXES)}
HOSTILE_DURATION = 20_000
HOSTILE_CPU_OPS = 400
HOSTILE_ACCEL_TIMEOUT = 2000
CHAOS_POOL = tuple(range(8))
CHAOS_HELD_OUT = (1000,)
ROGUE_POOL = tuple(range(8))
ROGUE_HELD_OUT = (1000, 1001)
#: two rogue seeds per round put a round at 126 campaigns, enough for a p90
ROGUE_SEEDS_PER_ROUND = 2

# explore: complete 1-CPU proofs (one per host, both variants) + a capped 2-CPU cell
EXPLORE_COMPLETE = (("mesi", "full_state"), ("hammer", "transactional"),
                    ("mesif", "full_state"))
EXPLORE_CAP = 200

# paper_perf: the E5/E6 sweep
PERF_SCALE = 1


@dataclass
class Sim:
    """One simulation (or proof): its pin key, pinned outputs and costs."""

    key: str
    ms: float
    out: dict
    problem: str = ""
    events: int = 0
    ratio: float = None
    counts: dict = field(default_factory=dict)


@dataclass
class Round:
    wall: float
    sims: list
    extra: dict = field(default_factory=dict)


def nproc():
    """CPUs this process may run on (what ``nproc`` prints)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def rounds_for(workload, seconds):
    return max(1, round(seconds / NOMINAL_ROUND_S[workload]))


def _ordered(rng, seed, pool, held_out):
    chosen = held_out if seed == HELD_OUT_SEED else pool
    return rng.sample(chosen, len(chosen))


def plan(workload, seed, rounds):
    """The run's rounds: plain input specs generated from the workload seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "stress":
        order = _ordered(rng, seed, STRESS_POOL, STRESS_HELD_OUT)
        return [{"sim_seed": order[k % len(order)]} for k in range(rounds)]
    if workload == "hostile":
        chaos = _ordered(rng, seed, CHAOS_POOL, CHAOS_HELD_OUT)
        rogue = _ordered(rng, seed, ROGUE_POOL, ROGUE_HELD_OUT)
        per = ROGUE_SEEDS_PER_ROUND
        return [{"chaos_seeds": [chaos[k % len(chaos)]],
                 "rogue_seeds": [rogue[(per * k + j) % len(rogue)] for j in range(per)]}
                for k in range(rounds)]
    if workload == "explore":
        capped = rng.choice([(host, variant) for host in ("mesi", "hammer", "mesif")
                             for variant in ("full_state", "transactional")])
        cells = [[host, variant, 1, None] for host, variant in EXPLORE_COMPLETE]
        cells.append([capped[0], capped[1], 2, EXPLORE_CAP])
        rng.shuffle(cells)
        return [{"cells": cells} for _ in range(rounds)]
    if workload == "paper_perf":
        sims = [[kernel, host.name, index] for kernel in PERF_WORKLOADS(scale=PERF_SCALE)
                for host in HOSTS for index in range(len(perf_configs(host)))]
        return [{"seed": seed, "order": rng.sample(sims, len(sims))} for _ in range(rounds)]
    raise ValueError(f"unknown workload {workload!r}")


def first_system(workload, spec):
    """Build the first system the round would build (the end of set-up)."""
    if workload == "stress":
        return build_system(_stress_configs(spec["sim_seed"])[0])
    if workload == "hostile":
        # the campaigns build their own configs; build the first campaign's cell
        return build_system(SystemConfig(host=HOSTS[0], org=AccelOrg.XG,
                                         xg_variant=VARIANTS[0]))
    if workload == "explore":
        host, variant, n_cpus, _cap = spec["cells"][0]
        return build_system(cell_config(host=host, variant=variant, n_cpus=n_cpus))
    kernel, host_name, index = spec["order"][0]
    return build_system(perf_configs(HostProtocol[host_name], seed=spec["seed"])[index])


def run_round(workload, spec, tracer=NULL_TRACER):
    return _RUNNERS[workload](spec, tracer)


# -- counters read from a finished system ----------------------------------------


def system_counts(system, coverage=None):
    """Per-layer counts of one finished simulation, from its public stats."""
    report = system.sim.stats_report()
    if coverage is None:
        coverage = collect_coverage(
            [c for c in system.sim.components if hasattr(c, "coverage")])
    counts = {
        "sim.events": sample_counters(system.sim)["events_fired"],
        "sim.network.messages": sum(stats.get("messages", 0)
                                    for owner, stats in report.items()
                                    if owner.startswith("network.")),
        "coherence.stalls": sum(stats.get("stalls", 0) for stats in report.values()),
        "coherence.fires": sum(sum(rep.visited.values()) for rep in coverage.values()),
        "host.ops": sum(report.get(seq.name, {}).get("ops_completed", 0)
                        for seq in system.sequencers),
    }
    if system.xgs:
        xg_stats = [report.get(xg.name, {}) for xg in system.xgs]
        counts["xg.accel_requests"] = sum(v for stats in xg_stats for k, v in stats.items()
                                          if k.startswith("accel_req."))
        counts["xg.host_msgs"] = sum(s.get("xg_to_host_msgs", 0) for s in xg_stats)
        for name in ("probes_forwarded", "probe_retries", "rate_limited",
                     "malformed_rejected"):
            counts[f"xg.{name}"] = sum(s.get(name, 0) for s in xg_stats)
        counts["xg.violations"] = sum(len(log) for log in system.error_logs)
    hits = misses = 0
    for cache in system.accel_caches:
        for key, value in report.get(cache.name, {}).items():
            if key.endswith("_hits"):
                hits += value
            elif key.endswith("_misses"):
                misses += value
    if hits or misses:
        counts["accel.l1_hits"] = hits
        counts["accel.l1_misses"] = misses
    if system.accel_seqs:
        hists = [seq.stats.histogram("op_latency") for seq in system.accel_seqs]
        counts["host.accel_op_ticks"] = sum(h.total for h in hists)
        counts["host.accel_ops"] = sum(h.count for h in hists)
    return counts


def _set_xg_ratios(rows):
    """Set each XG sim's ratio: its final tick / the accel-side tick of its group.

    ``rows`` are ``(group, config, final tick, sim)``.
    """
    base = {group: tick for group, config, tick, _sim in rows
            if config.org is AccelOrg.ACCEL_SIDE}
    for group, config, tick, sim in rows:
        if config.org is AccelOrg.XG and base.get(group):
            sim.ratio = tick / base[group]


# -- stress -------------------------------------------------------------------------


def _stress_configs(sim_seed):
    return [dataclasses.replace(config, trace_depth=0)
            for config in stress_configs(sim_seed, hosts=HOSTS)]


def _stress_round(spec, tracer):
    sim_seed = spec["sim_seed"]
    rows = []
    with profiled(tracer.profile) as folded:
        start = time.perf_counter()
        for config in _stress_configs(sim_seed):
            sim = _stress_sim(config, sim_seed, tracer)
            rows.append((config.host, config, sim.out["final_tick"], sim))
        wall = time.perf_counter() - start
    if folded is not None:
        merge_folded(tracer.folded, folded)
    _set_xg_ratios(rows)
    return Round(wall, [row[-1] for row in rows])


def _stress_sim(config, sim_seed, tracer):
    start = time.perf_counter()
    with tracer.span("build_system"):
        system = build_system(config)
    tester = RandomTester(system.sim, system.sequencers, STRESS_BLOCKS,
                          ops_target=STRESS_OPS, store_fraction=0.45)
    problem = ""
    with tracer.span("tester.run"):
        try:
            tester.run()
        except Exception as exc:  # noqa: BLE001 - a failed simulation is counted, not fatal
            problem = f"{type(exc).__name__}: {exc}"
    with tracer.span("collect_coverage"):
        coverage = collect_coverage(
            [c for c in system.sim.components if hasattr(c, "coverage")])
    ms = (time.perf_counter() - start) * 1e3
    counts = system_counts(system, coverage)
    counts["testing.loads_checked"] = tester.loads_checked
    if counts.get("xg.violations") and not problem:
        problem = f"{counts['xg.violations']} XG errors on a correct accelerator"
    out = {
        "events": counts["sim.events"],
        "final_tick": system.sim.tick,
        "memory": memory_digest(system.memory),
        "loads_checked": tester.loads_checked,
    }
    return Sim(f"{config.label}/s{sim_seed}", ms, out, problem,
               counts["sim.events"], counts=counts)


# -- hostile ------------------------------------------------------------------------


def hostile_jobs(spec, trace=0):
    """The round's campaigns; ``trace`` 1 records job spans, 2 also profiles."""
    jobs = []
    for seed in spec["chaos_seeds"]:
        for host in HOSTS:
            for variant in VARIANTS:
                for mix in CHAOS_MIXES:
                    jobs.append(("chaos", host.name, variant.name, mix, seed))
    for seed in spec["rogue_seeds"]:
        for plan_name in ROGUE_PLANS:
            for host in HOSTS:
                for variant in VARIANTS:
                    jobs.append(("rogue", host.name, variant.name, plan_name, seed))
    return [CampaignJob(runner=hostile_job, args=args + (trace,), label=_hostile_key(*args))
            for args in jobs]


def _hostile_key(kind, host_name, variant_name, name, seed):
    return f"{kind}/{name}/{host_name.lower()}/{variant_name.lower()}/s{seed}"


def hostile_job(kind, host_name, variant_name, name, seed, trace=0):
    """One chaos or rogue campaign in a pool worker; returns plain picklable data."""
    key = _hostile_key(kind, host_name, variant_name, name, seed)
    host, variant = HostProtocol[host_name], XGVariant[variant_name]
    common = dict(seed=seed, duration=HOSTILE_DURATION, cpu_ops=HOSTILE_CPU_OPS,
                  accel_timeout=HOSTILE_ACCEL_TIMEOUT, telemetry=True)
    blame = None
    with profiled(trace > 1) as folded:
        start = time.perf_counter()
        if kind == "chaos":
            result, system = run_chaos_campaign(host, variant, faults=CHAOS_MIXES[name],
                                                probe_retries=2, lineage=True, **common)
            ran = time.perf_counter()
            # one blame cell per campaign cell, seeds folded together, as `repro blame` does
            blame = system.sim.obs.blame_matrix(key.rsplit("/s", 1)[0], seed=seed).as_dict()
        else:
            result, system = run_rogue_campaign(host, variant, plan=name, **common)
            ran = time.perf_counter()
        end = time.perf_counter()
    spans = []
    if trace:
        spans.append((f"run_{kind}_campaign", start, ran))
        if blame is not None:
            spans.append(("blame_matrix", ran, end))
    ms = (end - start) * 1e3
    obs = system.sim.obs
    counts = system_counts(system)
    counts.update({
        "testing.loads_checked": result.cpu_loads_checked,
        "accel.adversary_msgs": result.adversary_messages,
        "obs.spans_closed": obs.spans.finished_total,
        "obs.spans_orphaned": obs.orphaned_count(),
        "obs.transitions_recorded": len(obs.transitions or ()),
    })
    problem = ""
    if kind == "chaos":
        counts["sim.faults.injected"] = result.faults_total
    else:
        counts["testing.watchdog_checks"] = result.watchdog_checks
        if result.containment == "escaped":
            problem = f"rogue escaped: {result.invariant_detail or result.crash_detail}"
    if not result.host_safe:
        problem = f"host unsafe: {result.crash_detail}"
    elif counts["obs.spans_orphaned"]:
        problem = f"{counts['obs.spans_orphaned']} orphaned spans"
    out = {
        "final_tick": result.final_tick,
        "events": counts["sim.events"],
        "violations": dict(sorted(result.violations.items())),
        "host_safe": result.host_safe,
    }
    sim = Sim(key, ms, out, problem, counts["sim.events"],
              ratio=result.final_tick / HOSTILE_DURATION, counts=counts)
    return sim, blame, folded, spans


def _hostile_round(spec, tracer):
    jobs = hostile_jobs(spec, trace=0 if tracer is NULL_TRACER else 1 + tracer.profile)
    workers = nproc()
    fabric = FabricCollector()
    blame = BlameMatrix()
    sims = []
    start = time.perf_counter()
    with tracer.span("run_campaign"):
        outcomes = run_campaign(jobs, workers=workers, fabric=fabric)
    campaign_wall = time.perf_counter() - start
    for job, outcome in zip(jobs, outcomes):
        if not outcome.ok:
            sims.append(Sim(job.label, 0.0, {},
                            f"{outcome.error_type}: {outcome.error}"))
            continue
        sim, job_blame, folded, spans = outcome.value
        if job_blame:
            # merging is measured work, as in `repro blame`; the matrix is not reported
            blame.merge(BlameMatrix.from_dict(job_blame))
        if folded is not None:
            merge_folded(tracer.folded, folded)
        for name, span_start, span_end in spans:
            tracer.add_span(name, span_start, span_end, depth=1, lane="worker")
        sims.append(sim)
    wall = time.perf_counter() - start
    extra = {
        "campaign_jobs": len(jobs),
        "campaign_busy_s": sum(sim.ms for sim in sims) / 1e3,
        "campaign_wall_s": campaign_wall,
        "workers": workers,
        "jobs_lost": fabric.jobs_lost,
        "fabric_frames": fabric.frames_seen,
        "fabric_dropped": fabric.frames_dropped,
    }
    return Round(wall, sims, extra)


# -- explore ------------------------------------------------------------------------


def _explore_round(spec, tracer):
    start = time.perf_counter()
    if not tracer.profile:
        sims = [_explore_cell(cell, tracer) for cell in spec["cells"]]
        return Round(time.perf_counter() - start, sims)
    # cProfile triples a proof's cost; the profiled pass runs its proofs on
    # every core, largest first, so a traced run stays well inside its time limit
    cells = sorted(spec["cells"], key=lambda cell: (cell[3] is not None, cell[0] != "hammer"))
    jobs = [CampaignJob(runner=explore_job, args=(cell,), label=explore_key(*cell[:3]))
            for cell in cells]
    sims = []
    for job, outcome in zip(jobs, run_campaign(jobs, workers=nproc())):
        if not outcome.ok:
            sims.append(Sim(job.label, 0.0, {}, f"{outcome.error_type}: {outcome.error}"))
            continue
        sim, folded = outcome.value
        merge_folded(tracer.folded, folded)
        sims.append(sim)
    return Round(time.perf_counter() - start, sims)


def explore_job(cell):
    """One profiled proof in a pool worker; returns its record and folded profile."""
    tracer = Tracer(profile=True)
    return _explore_cell(cell, tracer), tracer.folded


def _explore_cell(cell, tracer):
    host, variant, n_cpus, cap = cell
    limit = {} if cap is None else {"max_states": cap}
    with profiled(tracer.profile) as folded:
        cell_start = time.perf_counter()
        with tracer.span("explore_cell"):
            result = explore_cell(host=host, variant=variant, n_cpus=n_cpus,
                                  progress=tracer.level_callback(), **limit)
        ms = (time.perf_counter() - cell_start) * 1e3
    if folded is not None:
        merge_folded(tracer.folded, folded)
    out = {"ok": result["ok"]}
    if cap is None:
        reachable = {ctype: [list(pair) for pair in pairs]
                     for ctype, pairs in sorted(result["reachable"].items())}
        out.update(complete=result["complete"], reachable=reachable)
    problem = ""
    if result["counterexample"] is not None:
        problem = f"counterexample: {result['counterexample']['reason']}"
    counts = {
        "verify.explorer.states": result["states"],
        "verify.explorer.transitions": result["transitions"],
        "verify.explorer.depth": result["depth"],
    }
    return Sim(explore_key(host, variant, n_cpus), ms, out, problem,
               result["transitions"], counts=counts)


def explore_key(host, variant, n_cpus):
    return f"{host}/{variant}/{n_cpus}cpu"


# -- paper_perf ---------------------------------------------------------------------


def _perf_round(spec, tracer):
    builders = PERF_WORKLOADS(scale=PERF_SCALE)
    configs = {host.name: perf_configs(host, seed=spec["seed"]) for host in HOSTS}
    rows = []
    with profiled(tracer.profile) as folded:
        start = time.perf_counter()
        for kernel, host_name, index in spec["order"]:
            config = configs[host_name][index]
            sim_start = time.perf_counter()
            with tracer.span("run_one"):
                row, system = run_one(config, builders[kernel])
            ms = (time.perf_counter() - sim_start) * 1e3
            counts = system_counts(system)
            problem = f"{row['xg_errors']} XG errors" if row.get("xg_errors") else ""
            sim = Sim(f"{kernel}/{config.label}", ms, {"ticks": row["ticks"]},
                      problem, counts["sim.events"], counts=counts)
            rows.append(((kernel, host_name), config, row["ticks"], sim))
        wall = time.perf_counter() - start
    if folded is not None:
        merge_folded(tracer.folded, folded)
    _set_xg_ratios(rows)
    return Round(wall, [row[-1] for row in rows])


_RUNNERS = {
    "stress": _stress_round,
    "hostile": _hostile_round,
    "explore": _explore_round,
    "paper_perf": _perf_round,
}


# -- pins ---------------------------------------------------------------------------


def load_pins(path=PINS_PATH):
    with open(path) as fh:
        return json.load(fh)


def check(workload, sims, pins):
    """Failures among ``sims``: a failed structural check or any pin mismatch."""
    pinned = pins[workload]
    failures = []
    for sim in sims:
        if sim.problem:
            failures.append((sim.key, sim.problem))
        elif sim.key not in pinned:
            failures.append((sim.key, "no pinned output for this input"))
        else:
            got, want = json.loads(json.dumps(sim.out)), pinned[sim.key]
            diff = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
            if diff:
                failures.append((sim.key, f"pin mismatch in {', '.join(diff)}"))
    return failures
