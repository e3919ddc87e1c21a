"""Run one benchmark workload; the last stdout line is the result as JSON.

    python3 perfbench/run.py --workload stress --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the program is imported from ``src/``
of the checkout this file lives in. ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` runs the first round twice -- once with the
benchmark's spans, once more under cProfile -- and reports the per-layer
metrics. Every run compares the program's outputs with ``pins.json`` and
counts any mismatch as a failed simulation. See NOTES.md.
"""

import argparse
import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: set-up is measured this many times per run, in fresh processes
SETUP_PROBES = 5

#: End-to-end metrics as (name, unit, better).
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("sims_per_s", "1/s", "higher"),
    ("events_per_s", "1/s", "higher"),
    ("sim_ms_p50", "ms", "lower"),
    ("sim_ms_p90", "ms", "lower"),
    ("xg_overhead", "ratio", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


def _import_program():
    """Put this checkout's ``src`` first on the path, or stop with an error."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'repro'} is missing; run from a full checkout")
    sys.path[:0] = [str(SRC), str(ROOT)]


def provenance():
    """nproc, Python version, git commit (when a git checkout) and a source digest."""
    sha = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        sha.update(str(path.relative_to(SRC)).encode())
        sha.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    from perfbench.workloads import nproc

    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "commit": commit,
        "src_sha256": sha.hexdigest(),
    }


def measure_setup(args):
    """Median set-up time over fresh processes: start, imports, inputs, first system.

    Each probe prints a line once its first system is built; interpreter
    teardown after that line is not set-up and is not timed.
    """
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                 "--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds)],
                stdout=subprocess.PIPE, text=True) as probe:
            ready = probe.stdout.readline()
            samples.append(time.perf_counter() - start)
            probe.stdout.read()
            if probe.wait(timeout=120) != 0 or not ready:
                sys.exit(f"error: set-up probe for {args.workload} failed")
    return samples


def peak_rss_mb():
    """Max resident set of this process and every child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end(workload, rounds, setup, pins):
    sims = [sim for rnd in rounds for sim in rnd.sims]
    busy = sum(rnd.wall for rnd in rounds)
    ms = [sim.ms for sim in sims]
    if workload == "explore":
        # fixed work: the transitions the pinned explorer needs for these cells,
        # so a state-space reduction shows as a gain rather than lost throughput
        events = sum(pins["explore_work"].get(sim.key, sim.events) for sim in sims)
    else:
        events = sum(sim.events for sim in sims)
    ratios = [sim.ratio for sim in sims if sim.ratio]
    if not ratios:
        # explore has neither simulated time nor a non-XG baseline
        print("xg_overhead: n/a on this workload, reported as 1.0")
        ratios = [1.0]
    p90 = statistics.quantiles(ms, n=10, method="inclusive")[-1] if len(ms) > 1 else ms[0]
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(rnd.wall for rnd in rounds),
        "sims_per_s": len(sims) / busy,
        "events_per_s": events / busy,
        "sim_ms_p50": statistics.median(ms),
        "sim_ms_p90": p90,
        "xg_overhead": math.exp(statistics.fmean(math.log(r) for r in ratios)),
        "peak_rss_mb": peak_rss_mb(),
    }


def report_failures(failures, attempted):
    print(f"failed_frac: {len(failures) / attempted:.6f} ({len(failures)}/{attempted})")
    for key, reason in failures[:20]:
        print(f"  FAILED {key}: {reason}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    _import_program()
    from perfbench import layers, workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    rounds = 1 if args.trace else workloads.rounds_for(args.workload, args.seconds)
    if args.setup_probe:
        specs = workloads.plan(args.workload, args.seed, rounds)
        workloads.first_system(args.workload, specs[0])
        print("ready", flush=True)
        return 0

    print("provenance:", json.dumps(provenance(), sort_keys=True))
    setup = [] if args.trace else measure_setup(args)
    pins = workloads.load_pins()
    specs = workloads.plan(args.workload, args.seed, rounds)
    print(f"{args.workload}: seed {args.seed}, {rounds} round(s), "
          f"held-out seed {workloads.HELD_OUT_SEED}", flush=True)

    if args.trace:
        spanned_tracer = layers.Tracer()
        spanned = [workloads.run_round(args.workload, spec, spanned_tracer)
                   for spec in specs]
        profile_tracer = layers.Tracer(profile=True)
        profiled = [workloads.run_round(args.workload, spec, profile_tracer)
                    for spec in specs]
        sims = [sim for rnd in spanned + profiled for sim in rnd.sims]
        values = layers.per_layer(spanned, profiled, spanned_tracer, profile_tracer)
        print(layers.format_spans(spanned_tracer))
        print(layers.format_table(values, args.workload))
        catalog = layers.PER_LAYER
    else:
        done = []
        for index, spec in enumerate(specs):
            done.append(workloads.run_round(args.workload, spec))
            rnd = done[-1]
            print(f"  round {index}: {rnd.wall:.3f} s, {len(rnd.sims)} sims", flush=True)
        sims = [sim for rnd in done for sim in rnd.sims]
        values = end_to_end(args.workload, done, setup, pins)
        print(f"setup_s samples: {', '.join(f'{s:.4f}' for s in setup)}")
        print(f"simulations: {len(sims)} (sim_ms_p50/p90 over {len(sims)} samples)")
        for name, unit, better in END_TO_END:
            print(f"  {name:<14} {values[name]:>14.6g} {unit:<6} ({better} is better)")
        catalog = END_TO_END

    failures = workloads.check(args.workload, sims, pins)
    report_failures(failures, len(sims))
    metrics = {name: {"value": 0 if values[name] is None else values[name], "unit": unit}
               for name, unit, _better in catalog}
    print(json.dumps({"correct": not failures, "attempted": len(sims),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
