"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``demo``        — tiny coherent CPU/accelerator exchange through XG;
* ``stress``      — Section 4.1 random stress over the 12 configurations;
* ``fuzz``        — byzantine-accelerator safety campaign;
* ``chaos``       — fault-injected interconnect campaign (drop/dup/delay/corrupt);
* ``rogue``       — Byzantine-accelerator containment sweep (plans x hosts x
  variants) with the online invariant watchdog armed;
* ``trace``       — traced chaos run exported as Chrome/Perfetto JSON;
* ``report``      — telemetry-on stress: coverage heatmap + span percentiles;
* ``blame``       — lineage-on stress: per-(config x span-kind) blame
  breakdown plus the slowest transactions with their critical paths;
* ``top``         — live campaign view: stress sweep under the telemetry
  fabric with per-worker throughput/heartbeats, then the fabric summary;
* ``golden``      — golden-run digests: verify against the committed file,
  prove compiled/legacy dispatch equivalence, or refresh with ``--update``;
* ``verify``      — exhaustive single-address interface verification;
* ``explore``     — concrete-state reachability exploration: enumerate all
  interleavings of small (host x XG-variant) cells on the real simulator,
  prove G0-G2 exhaustively, cross-check stress coverage vs reachability;
* ``perf``        — runtime comparison of the cache organizations;
* ``experiment``  — run one of the table/figure experiments (e1..e12).
"""

import argparse
import sys
import time
from contextlib import ExitStack, contextmanager, nullcontext

from repro.eval.report import format_error_log, format_table


def _add_live_args(cmd):
    """``--live``/``--live-interval`` knobs shared by campaign commands."""
    cmd.add_argument("--live", action="store_true",
                     help="stream live campaign progress (per-worker "
                          "throughput, heartbeats, coverage growth); "
                          "degrades to periodic plain lines off a TTY")
    cmd.add_argument("--live-interval", dest="live_interval", type=float,
                     default=1.0, metavar="SECONDS",
                     help="seconds between live progress updates")
    cmd.add_argument("--forensics-all", dest="forensics_all",
                     action="store_true",
                     help="keep the bounded FlightRecorder black box for "
                          "successful jobs too (default: failures only)")


@contextmanager
def _campaign_fabric(args):
    """Fabric for a campaign command: live renderer and/or forensics-all.

    ``--live`` brings up the rendering fabric as before; ``--forensics-all``
    without ``--live`` still needs a (renderer-less) fabric so workers
    carry their flight recorders. Yields the collector or None.
    """
    from repro.obs.fabric import FabricCollector, live_fabric, use_fabric

    config = {"forensics_all": True} if args.forensics_all else None
    with ExitStack() as stack:
        fabric = stack.enter_context(
            live_fabric(live=args.live, interval=args.live_interval, config=config)
        )
        if fabric is None and config is not None:
            fabric = stack.enter_context(
                use_fabric(FabricCollector(renderer=None, config=config))
            )
        yield fabric


def _add_stress_args(cmd, seeds, ops):
    """``--seeds``/``--ops``/``--workers``, shared by the commands that run
    the stress campaign (:func:`_run_stress_command`)."""
    cmd.add_argument("--seeds", type=int, default=seeds)
    cmd.add_argument("--ops", type=int, default=ops)
    cmd.add_argument("--workers", type=int, default=None,
                     help="parallel campaign processes (default: cpu count; "
                          "1 = in-process, best for debugging)")


def _run_stress_command(args, show, fabric=nullcontext(), **options):
    """The body of ``stress``, ``report``, ``blame`` and ``top``.

    Runs the stress campaign over ``--seeds`` x ``--ops`` on ``--workers``
    inside the ``fabric`` context, with ``options`` passed on to
    ``run_stress_coverage``, and prints the run count. Then ``show(result,
    collector)`` prints the command's own output, and each failed run is
    printed with its deadlock diagnosis. Exits 1 when a run failed or
    ``show`` returns true.
    """
    from repro.eval.campaign import resolve_workers
    from repro.eval.experiments import run_stress_coverage

    workers = resolve_workers(args.workers)
    start = time.perf_counter()
    with fabric as collector:
        result = run_stress_coverage(
            seeds=range(args.seeds), ops_per_run=args.ops, workers=workers, **options
        )
    elapsed = time.perf_counter() - start
    failures = [r for r in result["runs"] if not r["passed"]]
    print(f"{len(result['runs'])} stress runs, {len(failures)} failures "
          f"({workers} worker{'s' if workers != 1 else ''}, {elapsed:.1f}s)")
    bad = show(result, collector)
    for failure in failures:
        print("FAIL:", failure["config"], "seed", failure["seed"], failure["detail"])
        if failure.get("diagnosis"):
            print(failure["diagnosis"])
    return 1 if failures or bad else 0


def _cmd_demo(args):
    from repro.host.config import AccelOrg, HostProtocol, SystemConfig
    from repro.host.system import build_system
    from repro.xg.interface import XGVariant

    config = SystemConfig(
        host=HostProtocol[args.host.upper()],
        org=AccelOrg.XG,
        xg_variant=XGVariant[args.variant.upper()],
    )
    system = build_system(config)
    results = []
    system.cpu_seqs[0].store(0x1000, 21)
    system.sim.run()
    system.accel_seqs[0].load(
        0x1000, lambda m, d: results.append(("accel read", d.read_byte(0)))
    )
    system.sim.run()
    system.accel_seqs[0].store(0x1000, 42)
    system.sim.run()
    system.cpu_seqs[0].load(
        0x1000, lambda m, d: results.append(("cpu read", d.read_byte(0)))
    )
    system.sim.run()
    for label, value in results:
        print(f"{label}: {value}")
    print(f"config: {config.label}; ticks: {system.sim.tick}; "
          f"guarantee violations: {len(system.error_log)}")
    return 0


def _cmd_stress(args):
    def show(result, fabric):
        print(format_table(
            ["controller", "visited", "possible", "coverage"],
            [
                (c["controller"], c["visited"], c["possible"], f"{c['fraction']:.1%}")
                for c in result["coverage"]
            ],
        ))
        if fabric is not None and args.live and args.dash_out:
            from repro.eval.report import write_campaign_dashboard

            write_campaign_dashboard(args.dash_out, fabric.summary())
            print(f"wrote {args.dash_out}")
        kept = result.get("forensics", [])
        if kept:
            print(f"forensics: kept {len(kept)} successful-job black box(es)")

    return _run_stress_command(args, show, _campaign_fabric(args))


def _cmd_golden(args):
    from repro.testing.golden import (
        check_pinned,
        equivalence_matrix,
        load_pinned,
        pinned_digests,
        write_pinned,
    )

    if args.update:
        payload = write_pinned(args.path, seed=args.seed, ops=args.ops)
        print(f"wrote {len(payload['digests'])} golden digests to {args.path}")
        for label, digest in sorted(payload["digests"].items()):
            print(f"  {label}: {digest['transitions_count']} transitions, "
                  f"{digest['transitions'][:16]}…")
        return 0
    if args.matrix:
        rows = equivalence_matrix(args.scenario, seed=args.seed, ops=args.ops)
        bad = [label for label, row in rows.items() if not row["identical"]]
        print(
            format_table(
                ["config", "transitions", "compiled == legacy"],
                [
                    (label, row["compiled"]["transitions_count"],
                     "OK" if row["identical"] else "MISMATCH")
                    for label, row in sorted(rows.items())
                ],
                title=f"dispatch equivalence matrix ({args.scenario})",
            )
        )
        if bad:
            print(f"\nMISMATCH in: {', '.join(bad)}", file=sys.stderr)
        return 1 if bad else 0
    pinned = load_pinned(args.path)
    fresh = pinned_digests(seed=pinned["seed"], ops=pinned["ops"])
    verdicts = check_pinned(pinned["digests"], fresh["digests"])
    for label, verdict in verdicts.items():
        print(f"  {label}: {verdict}")
    bad = [label for label, verdict in verdicts.items() if verdict != "OK"]
    if bad:
        print(f"\ngolden digests changed: {', '.join(bad)}\n"
              f"If deliberate, refresh with `python -m repro golden --update` "
              f"and explain the behavior change in the PR.", file=sys.stderr)
        return 1
    print("all golden digests match")
    return 0


def _add_scenario_args(cmd, preset, duration, cpu_ops, faults=None, rate=None):
    """Scenario knobs shared by ``fuzz``, ``chaos`` and ``trace``.

    ``preset`` is the command's :class:`~repro.testing.scenario.Scenario`
    starting point. ``faults`` (a default comma list of kinds) and ``rate``
    add the link-fault arguments; without them the wire is perfect.
    """
    from repro.testing.scenario import ALL_HOSTS, ALL_VARIANTS, FIXED_ADVERSARIES

    cmd.add_argument("--host", default="mesi", choices=[h.name.lower() for h in ALL_HOSTS])
    cmd.add_argument("--variant", default="full_state",
                     choices=[v.name.lower() for v in ALL_VARIANTS])
    cmd.add_argument("--adversary", default=preset.adversary, choices=FIXED_ADVERSARIES)
    cmd.add_argument("--seed", type=int, default=0)
    cmd.add_argument("--duration", type=int, default=duration)
    cmd.add_argument("--cpu-ops", dest="cpu_ops", type=int, default=cpu_ops)
    if faults is not None:
        cmd.add_argument("--faults", default=faults,
                         help="comma list of fault kinds on the accel link "
                              "(empty for a clean run)")
        cmd.add_argument("--rate", type=float, default=rate,
                         help="per-message injection rate per fault kind")
        cmd.add_argument("--blackhole", default=None, metavar="START:END",
                         help="drop everything on the accel link during [START, END)")
    cmd.set_defaults(preset=preset)


def _scenario_from_args(args, **changes):
    """The scenario a ``fuzz``/``chaos``/``trace`` command line asks for.

    Every parsed argument named like a Scenario field is taken as is;
    ``--faults``/``--rate``/``--blackhole`` become the fault rates and
    window. Raises ValueError on a malformed fault list, rate or window.
    """
    import dataclasses

    from repro.host.config import HostProtocol
    from repro.sim.faults import FaultWindow
    from repro.testing.scenario import Scenario
    from repro.xg.interface import XGVariant

    names = {f.name for f in dataclasses.fields(Scenario)} - {"host", "variant", "faults"}
    changes.update({name: value for name, value in vars(args).items() if name in names})
    if "faults" in vars(args):
        changes["faults"] = {kind: args.rate for kind in args.faults.split(",") if kind}
        if args.blackhole:
            start, _, end = args.blackhole.partition(":")
            changes["windows"] = (FaultWindow(int(start), int(end), "drop", 1.0),)
    return args.preset.replace(host=HostProtocol[args.host.upper()],
                               variant=XGVariant[args.variant.upper()], **changes)


def _cmd_campaign(args):
    """``fuzz`` and ``chaos``: one in-process scenario run, key by key.

    With ``--live`` or ``--forensics-all`` the run is framed as a one-job
    fabric session (collector, in-process emitter, progress hook), and
    ``--forensics-all`` snapshots its black box before the fabric closes.
    """
    from repro.testing.scenario import run_scenario

    try:
        scenario = _scenario_from_args(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    snap = None
    with ExitStack() as stack:
        if args.live or args.forensics_all:
            from repro.obs.fabric import inproc_session

            label = f"{args.command}/{args.host}/{args.variant}/{args.adversary}"
            fabric = stack.enter_context(_campaign_fabric(args))
            emitter = stack.enter_context(inproc_session(fabric, label=label))
        result, system = run_scenario(scenario)
        if args.forensics_all:
            snap = emitter.failure_forensics()["flight_recorder"]
    report = result.as_dict()
    for key in (
        "host_safe", "final_tick", "cpu_loads_checked", "adversary_messages",
        "faults_total", "probe_retries", "duplicates_sunk",
        "retry_echoes_absorbed", "quarantine_surrogates", "accel_disabled",
        "violations_total",
    ):
        print(f"{key}: {report[key]}")
    for kind, count in sorted(report["faults_injected"].items()):
        print(f"  injected {kind}: {count}")
    for guarantee, count in sorted(report["violations"].items()):
        print(f"  {guarantee}: {count}")
    if len(system.error_log):
        print()
        print(format_error_log(system.error_log, limit=args.show_errors))
    if not report["host_safe"]:
        print(f"\nhost unsafe: {report['crash_detail']}", file=sys.stderr)
        if report["diagnosis"]:
            print(report["diagnosis"], file=sys.stderr)
    if snap is not None:
        print(f"\nforensics (kept for successful run): "
              f"{snap['frames_seen']} frames recorded, "
              f"final tick {snap.get('tick', '-')}")
        path = (snap.get("critical_path") or {}).get("path")
        if path:
            rendered = " -> ".join(f"{bucket}:{ticks}" for bucket, ticks in path)
            print(f"  oldest open span critical path: {rendered}")
    return 0 if report["host_safe"] else 1


def _cmd_rogue(args):
    import json

    from repro.eval.campaign import resolve_workers
    from repro.eval.report import format_rogue_matrix
    from repro.host.config import HostProtocol
    from repro.testing.rogue import run_rogue_matrix
    from repro.xg.interface import XGVariant

    plans = [p.strip() for p in args.plans.split(",") if p.strip()] or None
    try:
        hosts = tuple(
            HostProtocol[h.strip().upper()]
            for h in args.hosts.split(",") if h.strip()
        )
        variants = tuple(
            XGVariant[v.strip().upper()]
            for v in args.variants.split(",") if v.strip()
        )
    except KeyError as exc:
        print(f"error: unknown host or variant {exc.args[0]!r}", file=sys.stderr)
        return 2
    workers = resolve_workers(args.workers)
    start = time.perf_counter()
    try:
        with _campaign_fabric(args):
            rows = run_rogue_matrix(
                plans=plans,
                hosts=hosts,
                variants=variants,
                seeds=range(args.seeds),
                duration=args.duration,
                cpu_ops=args.cpu_ops,
                invariant_interval=args.invariant_interval,
                workers=workers,
            )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - start
    print(format_rogue_matrix(rows))
    print(f"({workers} worker{'s' if workers != 1 else ''}, {elapsed:.1f}s)")
    escaped = [r for r in rows if not r.get("contained")]
    invariant = [r for r in rows if r.get("invariant_violated")]
    starved = [
        r for r in rows if r.get("contained") and not r.get("cpu_loads_checked")
    ]
    contained = len(rows) - len(escaped)
    checks = sum(r.get("watchdog_checks", 0) for r in rows)
    print(f"contained: {contained}/{len(rows)}; invariant violations: "
          f"{len(invariant)}; watchdog checks: {checks}")
    if args.forensics_all:
        kept = sum(1 for r in rows if r.get("forensics"))
        print(f"forensics: {kept}/{len(rows)} rows carry a black box "
              f"(--out writes them as JSON)")
    for row in escaped:
        print(f"\nESCAPED: {row['plan']} on {row['host']}/{row['variant']} "
              f"seed {row['seed']}: {row.get('crash_detail') or row.get('detail')}",
              file=sys.stderr)
        if row.get("diagnosis"):
            print(row["diagnosis"], file=sys.stderr)
        if row.get("invariant_detail"):
            print(f"invariant: {row['invariant_detail']}", file=sys.stderr)
    for row in starved:
        print(f"\nSTARVED: {row['plan']} on {row['host']}/{row['variant']} "
              f"seed {row['seed']}: no CPU load ever completed", file=sys.stderr)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"rows": rows}, fh, indent=2, sort_keys=True)
        print(f"wrote {args.out}")
    return 1 if escaped or starved else 0


def _cmd_trace(args):
    from repro.obs import build_trace, write_trace
    from repro.testing.scenario import run_scenario

    try:
        scenario = _scenario_from_args(args, telemetry=True)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result, system = run_scenario(scenario)
    obs = system.sim.obs
    payload = build_trace(
        obs, fault_plan=system.config.fault_plan, label=system.config.label
    )
    count = write_trace(payload, args.out)
    print(f"config: {system.config.label}; ticks: {system.sim.tick}; "
          f"host_safe: {result.host_safe}")
    print(f"spans: {result.spans_closed} closed, {result.spans_orphaned} orphaned; "
          f"transitions: {len(obs.transitions)}; faults: {len(obs.faults)}; "
          f"marks: {len(obs.marks)}")
    print(f"wrote {count} trace events to {args.out} "
          f"(load in https://ui.perfetto.dev or chrome://tracing)")
    if result.spans_orphaned:
        print(f"warning: {result.spans_orphaned} spans never closed", file=sys.stderr)
    return 0 if result.host_safe else 1


def _cmd_report(args):
    from repro.obs import render_blame, render_matrix

    reachable = None
    if args.explore_report:
        from repro.verify.explorer import load_reachable_report

        reachable = load_reachable_report(args.explore_report)

    def show(result, _fabric):
        print()
        print(render_matrix(result["matrix"], reachable=reachable))
        if args.lineage:
            print()
            print(render_blame(result["blame"]))

    return _run_stress_command(args, show, telemetry=True, lineage=args.lineage)


def _cmd_blame(args):
    import json

    from repro.obs import render_blame

    def show(result, _fabric):
        print()
        print(render_blame(result["blame"], top=args.top))
        if args.out:
            with open(args.out, "w") as fh:
                json.dump(result["blame"].as_dict(), fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"\nwrote {args.out}")

    return _run_stress_command(args, show, telemetry=True, lineage=True)


def _cmd_top(args):
    from repro.eval.report import format_fabric_summary, write_campaign_dashboard
    from repro.obs.fabric import live_fabric

    def show(_result, fabric):
        summary = fabric.summary()
        print()
        print(format_fabric_summary(summary))
        if args.dash_out:
            write_campaign_dashboard(args.dash_out, summary)
            print(f"\nwrote {args.dash_out}")
        return summary["jobs_lost"]

    return _run_stress_command(
        args, show, live_fabric(live=True, interval=args.live_interval))


def _cmd_verify(args):
    from repro.verify import VerificationError, explore

    failures = 0
    for name, allow in (("transactional-style", True), ("full-state-style", False)):
        try:
            stats = explore(allow_probe_when_absent=allow)
        except VerificationError as exc:
            failures += 1
            print(f"{name}: FAIL — {exc}", file=sys.stderr)
            continue
        print(f"{name}: {stats['states']} states, "
              f"{stats['transitions']} transitions, "
              f"{stats['quiescent_states']} quiescent — OK")
    return 1 if failures else 0


def _cmd_explore(args):
    import json

    from repro.verify.explorer import (
        cross_check_coverage, explore_cell, run_cell_stress)

    hosts = ["mesi", "hammer", "mesif"] if args.host == "all" else [args.host]
    variants = (["full_state", "transactional"] if args.variant == "all"
                else [args.variant])
    cells = []
    rows = []
    exit_code = 0
    for host in hosts:
        for variant in variants:
            start = time.perf_counter()
            progress = None
            if args.progress:
                progress = lambda depth, states, frontier, _h=host, _v=variant: print(
                    f"  {_h}/{_v}: depth {depth}, {states} states, "
                    f"frontier {frontier}", file=sys.stderr, flush=True)
            result = explore_cell(
                host=host, variant=variant, addresses=args.addresses,
                max_states=args.max_states,
                check=args.check, progress=progress,
            )
            elapsed = time.perf_counter() - start
            result["elapsed_sec"] = round(elapsed, 2)
            counterexample = result["counterexample"]
            if counterexample is not None:
                status = "FAIL"
                exit_code = 1
            elif result["truncated"]:
                status = "partial"
            else:
                status = "proved"
            crosscheck = "-"
            if args.cross_check and counterexample is None and not result["truncated"]:
                problems = []
                for seed in range(args.cross_check):
                    covered = run_cell_stress(result["cell"], seed=seed,
                                              ops=args.stress_ops)
                    problems.extend(cross_check_coverage(result, covered))
                if problems:
                    crosscheck = "FAIL"
                    exit_code = 1
                    result["cross_check_failures"] = [
                        {"ctype": ctype, "transitions": pairs}
                        for ctype, pairs in problems
                    ]
                else:
                    crosscheck = f"ok ({args.cross_check} seeds)"
            rows.append([
                f"{host}/{variant}", result["states"], result["transitions"],
                result["slept"], result["restores"], result["replays"],
                result["checkpoints_peak"],
                result["quiescent_states"], result["depth"], status,
                crosscheck, f"{elapsed:.1f}s",
            ])
            cells.append(result)
            if counterexample is not None:
                print(f"counterexample in {host}/{variant}: "
                      f"{counterexample['reason']}", file=sys.stderr)
                for step in counterexample["path"]:
                    print(f"    {step}", file=sys.stderr)
    print(format_table(
        ["cell", "states", "transitions", "slept", "restores", "replays",
         "checkpoints", "quiescent", "depth", "G0-G2", "cross-check", "time"],
        rows,
        title=f"reachability exploration ({args.addresses} address(es))",
    ))
    if args.out:
        payload = {"addresses": args.addresses, "max_states": args.max_states,
                   "cells": cells}
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"\nwrote {args.out}")
    return exit_code


def _cmd_perf(args):
    from repro.eval.perf import run_perf_sweep

    results = run_perf_sweep(
        workloads=args.workloads or None, scale=args.scale, seed=args.seed
    )
    for workload, rows in results.items():
        print(
            format_table(
                ["config", "ticks", "normalized"],
                [(r["config"], r["ticks"], f"{r['ticks_norm']:.2f}x") for r in rows],
                title=f"runtime: {workload}",
            )
        )
        print()
    return 0


_EXPERIMENTS = {}


def _experiment(name):
    def register(fn):
        _EXPERIMENTS[name] = fn
        return fn

    return register


@_experiment("e1")
def _e1():
    from repro.eval.experiments import run_table1_accel_l1

    result = run_table1_accel_l1()
    return format_table(
        ["state", "event", "paper", "implemented"],
        [(r["state"], r["event"], r["paper"], r["implemented"]) for r in result["rows"]],
        title="Table 1",
    )


@_experiment("e2")
def _e2():
    from repro.eval.experiments import run_complexity_comparison

    rows = run_complexity_comparison()
    return format_table(
        ["controller", "stable", "transient", "transitions"],
        [
            (r["controller"], r["stable_states"], r["transient_states"], r["transitions"])
            for r in rows
        ],
        title="protocol complexity",
    )


@_experiment("e7")
def _e7():
    from repro.eval.overheads import run_storage_comparison

    result = run_storage_comparison()
    return format_table(
        ["accel KiB", "full-state KiB", "transactional KiB"],
        [
            (r["accel_cache_kib"], f"{r['full_state_kib']:.1f}", f"{r['transactional_kib']:.2f}")
            for r in result["analytic"]
        ],
        title="XG storage",
    )


@_experiment("e8")
def _e8():
    from repro.eval.overheads import run_puts_overhead

    rows = run_puts_overhead()
    return format_table(
        ["workload", "suppress", "PutS %"],
        [
            (r["workload"], r["suppress_puts"], f"{100 * r['puts_fraction']:.1f}%")
            for r in rows
        ],
        title="PutS overhead (Hammer host)",
    )


@_experiment("e9")
def _e9():
    from repro.eval.overheads import run_rate_limit_sweep

    rows = run_rate_limit_sweep()
    return format_table(
        ["limit", "cpu latency", "throttled"],
        [
            (r["rate_limit"], f"{r['cpu_mean_latency']:.1f}", r["adversary_requests_throttled"])
            for r in rows
        ],
        title="rate limiting",
    )


@_experiment("e10")
def _e10():
    from repro.eval.overheads import run_block_translation

    rows = run_block_translation()
    return format_table(
        ["accel block", "loads checked", "XG->host msgs"],
        [(r["accel_block"], r["loads_checked"], r["xg_to_host_msgs"]) for r in rows],
        title="block translation",
    )


@_experiment("e11")
def _e11():
    from repro.eval.overheads import run_timeout_recovery

    rows = run_timeout_recovery()
    return format_table(
        ["timeout", "G2c errors", "cpu max latency"],
        [(r["timeout"], r["g2c_errors"], r["cpu_max_latency"]) for r in rows],
        title="timeout recovery",
    )


def _cmd_experiment(args):
    runner = _EXPERIMENTS.get(args.name.lower())
    if runner is None:
        known = ", ".join(sorted(_EXPERIMENTS))
        print(f"unknown experiment {args.name!r}; choose from: {known} "
              f"(e3/e4/e5/e6/e12 run via pytest benchmarks/)", file=sys.stderr)
        return 2
    print(runner())
    return 0


def build_parser():
    from repro.testing.scenario import CHAOS, FUZZ

    parser = argparse.ArgumentParser(
        prog="repro", description="Crossing Guard reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="coherent CPU/accelerator exchange")
    demo.add_argument("--host", default="mesi", choices=["mesi", "hammer", "mesif"])
    demo.add_argument("--variant", default="full_state",
                      choices=["full_state", "transactional"])
    demo.set_defaults(fn=_cmd_demo)

    stress = sub.add_parser("stress", help="random protocol stress (Section 4.1)")
    _add_stress_args(stress, seeds=2, ops=1500)
    _add_live_args(stress)
    stress.add_argument("--dash-out", dest="dash_out", default=None,
                        metavar="PATH",
                        help="with --live, write the campaign_dash.json "
                             "fabric summary + BENCH_*.json history here")
    stress.set_defaults(fn=_cmd_stress)

    golden = sub.add_parser(
        "golden", help="golden-run digests: verify, prove equivalence, or refresh"
    )
    golden.add_argument("--update", action="store_true",
                        help="regenerate the committed digest file from seed runs")
    golden.add_argument("--matrix", action="store_true",
                        help="run the compiled-vs-legacy equivalence matrix "
                             "instead of checking the committed digests")
    golden.add_argument("--scenario", default="stress",
                        choices=["stress", "fuzz", "chaos"],
                        help="scenario for --matrix runs")
    golden.add_argument("--seed", type=int, default=0)
    golden.add_argument("--ops", type=int, default=400,
                        help="CPU ops per run (matrix/update)")
    golden.add_argument("--path", default="tests/golden/digests.json",
                        metavar="PATH", help="committed digest file")
    golden.set_defaults(fn=_cmd_golden)

    fuzz = sub.add_parser("fuzz", help="byzantine accelerator safety campaign")
    _add_scenario_args(fuzz, FUZZ, duration=40_000, cpu_ops=1000)
    fuzz.add_argument("--show-errors", dest="show_errors", type=int, default=10,
                      help="OS error-log records to print")
    _add_live_args(fuzz)
    fuzz.set_defaults(fn=_cmd_campaign)

    chaos = sub.add_parser(
        "chaos", help="fault-injected interconnect safety campaign"
    )
    _add_scenario_args(chaos, CHAOS, duration=60_000, cpu_ops=1200,
                       faults="drop,duplicate,delay,corrupt", rate=0.15)
    chaos.add_argument("--fault-seed", dest="fault_seed", type=int, default=None,
                       help="fault plan RNG seed (defaults to --seed)")
    chaos.add_argument("--accel-timeout", dest="accel_timeout", type=int,
                       default=CHAOS.accel_timeout)
    chaos.add_argument("--probe-retries", dest="probe_retries", type=int,
                       default=CHAOS.probe_retries)
    chaos.add_argument("--disable-after", dest="disable_after", type=int, default=None,
                       help="quarantine the accelerator after N violations")
    chaos.add_argument("--show-errors", dest="show_errors", type=int, default=10,
                       help="OS error-log records to print")
    _add_live_args(chaos)
    chaos.set_defaults(fn=_cmd_campaign)

    rogue = sub.add_parser(
        "rogue", help="Byzantine-accelerator containment sweep"
    )
    rogue.add_argument("--plans", default="",
                       help="comma list of rogue plan names (default: all)")
    rogue.add_argument("--hosts", default="mesi,hammer,mesif",
                       help="comma list of host protocols")
    rogue.add_argument("--variants", default="full_state,transactional",
                       help="comma list of XG variants")
    rogue.add_argument("--seeds", type=int, default=1)
    rogue.add_argument("--duration", type=int, default=40_000)
    rogue.add_argument("--cpu-ops", dest="cpu_ops", type=int, default=600)
    rogue.add_argument("--invariant-interval", dest="invariant_interval",
                       type=int, default=2000,
                       help="watchdog sampling period in ticks (0 disables)")
    rogue.add_argument("--workers", type=int, default=None,
                       help="parallel campaign processes (default: cpu count)")
    rogue.add_argument("-o", "--out", default=None, metavar="PATH",
                       help="write the full result rows as JSON")
    _add_live_args(rogue)
    rogue.set_defaults(fn=_cmd_rogue)

    trace = sub.add_parser(
        "trace", help="traced chaos run exported as Chrome/Perfetto JSON"
    )
    _add_scenario_args(trace, CHAOS, duration=30_000, cpu_ops=600,
                       faults="drop,duplicate", rate=0.1)
    trace.add_argument("--series-interval", dest="series_interval", type=int,
                       default=1000, help="counter sampling period in ticks "
                       "(0 disables the time series)")
    trace.add_argument("-o", "--out", default="trace.json", metavar="PATH")
    trace.set_defaults(fn=_cmd_trace)

    report = sub.add_parser(
        "report", help="telemetry-on stress: coverage heatmap + span percentiles"
    )
    _add_stress_args(report, seeds=2, ops=1500)
    report.add_argument("--lineage", action="store_true",
                        help="also record causal lineage and append the "
                             "blame breakdown (see `repro blame`)")
    report.add_argument("--explore-report", dest="explore_report", default=None,
                        metavar="PATH",
                        help="explore_report.json from `repro explore -o`: "
                             "filters the uncovered-transition lists down to "
                             "transitions proven reachable (the authoritative "
                             "coverage holes)")
    report.set_defaults(fn=_cmd_report)

    blame = sub.add_parser(
        "blame",
        help="lineage-on stress: critical-path blame for every transaction",
    )
    _add_stress_args(blame, seeds=1, ops=800)
    blame.add_argument("--top", type=int, default=5,
                       help="slowest transactions to show with critical paths")
    blame.add_argument("-o", "--out", default=None, metavar="PATH",
                       help="write the mergeable blame-matrix JSON here "
                            "(blame_report.json; CI archives it)")
    blame.set_defaults(fn=_cmd_blame)

    top = sub.add_parser(
        "top", help="live campaign view: stress sweep under the telemetry fabric"
    )
    _add_stress_args(top, seeds=2, ops=1500)
    top.add_argument("--live-interval", dest="live_interval", type=float,
                     default=1.0, metavar="SECONDS",
                     help="seconds between live progress updates")
    top.add_argument("--dash-out", dest="dash_out", default=None, metavar="PATH",
                     help="write the campaign_dash.json fabric summary + "
                          "BENCH_*.json history here")
    top.set_defaults(fn=_cmd_top)

    verify = sub.add_parser("verify", help="exhaustive interface verification")
    verify.set_defaults(fn=_cmd_verify)

    explore = sub.add_parser(
        "explore",
        help="concrete-state reachability exploration of the real simulator",
    )
    explore.add_argument("--host", default="mesi",
                         choices=["mesi", "hammer", "mesif", "all"])
    explore.add_argument("--variant", default="full_state",
                         choices=["full_state", "transactional", "all"])
    explore.add_argument("--addresses", type=int, default=1, choices=[1, 2],
                         help="explored block addresses (2 adds replacement "
                              "interleavings; much larger space)")
    explore.add_argument("--max-states", dest="max_states", type=int,
                         default=100_000,
                         help="truncate the search after N canonical states "
                              "(result marked partial, never wrong)")
    explore.add_argument("--check", default=None,
                         help="extra named per-state check from the "
                              "explorer registry (used to demo "
                              "counterexample traces)")
    explore.add_argument("--cross-check", dest="cross_check", type=int,
                         default=0, metavar="SEEDS",
                         help="after a complete proof, run N seeded stress "
                              "runs on the same cell and verify every "
                              "covered transition is reachable")
    explore.add_argument("--stress-ops", dest="stress_ops", type=int,
                         default=200,
                         help="ops per cross-check stress run")
    explore.add_argument("--progress", action="store_true",
                         help="per-level progress on stderr")
    explore.add_argument("-o", "--out", default=None, metavar="PATH",
                         help="write explore_report.json (feed to "
                              "`repro report --explore-report`)")
    explore.set_defaults(fn=_cmd_explore)

    perf = sub.add_parser("perf", help="runtime by cache organization")
    perf.add_argument("--workloads", nargs="*", default=None)
    perf.add_argument("--scale", type=int, default=1)
    perf.add_argument("--seed", type=int, default=7)
    perf.set_defaults(fn=_cmd_perf)

    experiment = sub.add_parser("experiment", help="run one table/figure experiment")
    experiment.add_argument("name", help="e1, e2, e7, e8, e9, e10, e11")
    experiment.set_defaults(fn=_cmd_experiment)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
