"""Interleaved A/B run of the repo benchmark against a base checkout.

    python benchmarks/perf_ab.py BASE

Run from the root of the change checkout; ``BASE`` is the path of a
second checkout, of the commit the change is based on. Each of
:data:`PAIRS` pairs runs ``perfbench/run.py`` once per side on every
workload in :data:`WORKLOADS`, alternating which side goes first, each
side with its own checkout's runner. The command, run length and the
end-to-end metrics with their bounds and directions come from
``BENCHMARK.json``.

Every run's result goes to stdout as one JSON line (side, workload,
pair, position, seed, the run's provenance with its commit, and the
result it printed), in the format of ``benchmarks/history/``; progress
and the verdict go to stderr. The exit status is 1 when a change-side
run fails (non-zero exit, no result line, ``correct: false`` or
``failed > 0``) or when, for any metric on any workload, the change's
median is worse than the base's by more than ``max(bound * base median,
base IQR)``. A metric whose base IQR is wider than its bound reads
``unresolved``: the base's own spread is too wide to judge it by the
bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: The workloads gated: the campaign-mode protocol path and time-to-proof.
WORKLOADS = ("stress", "explore")
PAIRS = 5
SEED = 1
#: A run that takes this many times its nominal length is counted as failed
#: rather than left to hang the gate.
TIMEOUT_FACTOR = 30


def load_spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return spec["command"], spec["run_seconds"], spec["end_to_end"]


def run_side(checkout, command, workload, seconds):
    """One benchmark run in ``checkout``: ``(result, provenance, problem)``.

    ``result`` is the parsed last stdout line, or None with ``problem``
    saying why when the run exited non-zero or printed no result.
    """
    argv = list(command) + ["--workload", workload, "--seed", str(SEED),
                            "--seconds", str(seconds), "--trace", "0"]
    try:
        proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True,
                              timeout=seconds * TIMEOUT_FACTOR)
    except subprocess.TimeoutExpired:
        return None, None, f"timed out after {seconds * TIMEOUT_FACTOR} s"
    lines = proc.stdout.splitlines()
    provenance = None
    for line in lines:
        if line.startswith("provenance: "):
            provenance = json.loads(line[len("provenance: "):])
    if proc.returncode != 0:
        return None, provenance, f"exit status {proc.returncode}: {proc.stderr.strip()[-500:]}"
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or "metrics" not in result:
        return None, provenance, "printed no result line"
    return result, provenance, None


def run_problem(result):
    """Why a result counts as a failed run, or None."""
    if result is None:
        return "no result"
    if not result.get("correct") or result.get("failed", 0) > 0:
        return f"failed {result.get('failed')}/{result.get('attempted')} simulations"
    return None


def quartiles(values):
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def judge(base, change, end_to_end):
    """Compare per-workload run results of the two sides.

    ``base`` and ``change`` map a workload to its list of results, None
    standing for a run that produced none; ``end_to_end`` is the
    ``BENCHMARK.json`` list of ``{name, better, bound}``. Returns
    ``(rows, failures)``: one row per (workload, metric) and a list of
    reasons the change fails.
    """
    rows, failures = [], []
    for workload in sorted(change):
        bad = [problem for problem in map(run_problem, change[workload]) if problem]
        if bad:
            failures.append(f"{workload}: {len(bad)} change-side run(s) failed: {bad[0]}")
        base_ok = [r for r in base.get(workload, ()) if run_problem(r) is None]
        change_ok = [r for r in change[workload] if run_problem(r) is None]
        for metric in end_to_end:
            name, bound = metric["name"], metric["bound"]
            if not base_ok or not change_ok:
                rows.append({"workload": workload, "metric": name, "verdict": "no data"})
                continue
            q1, base_median, q3 = quartiles([r["metrics"][name]["value"] for r in base_ok])
            change_median = statistics.median(r["metrics"][name]["value"] for r in change_ok)
            worse_by = (change_median - base_median if metric["better"] == "lower"
                        else base_median - change_median)
            allowed = max(bound * abs(base_median), q3 - q1)
            if worse_by > allowed:
                verdict = "WORSE"
                failures.append(f"{workload} {name}: median {change_median:.6g} vs base "
                                f"{base_median:.6g}, worse by {worse_by:.6g} > {allowed:.6g}")
            elif q3 - q1 > bound * abs(base_median):
                verdict = "unresolved"
            else:
                verdict = "ok"
            rows.append({"workload": workload, "metric": name, "base": base_median,
                         "change": change_median, "base_iqr": q3 - q1,
                         "allowed": allowed, "verdict": verdict})
    return rows, failures


def format_rows(rows):
    lines = [f"{'workload':<9} {'metric':<13} {'base':>11} {'change':>11} "
             f"{'ratio':>7} {'base IQR':>10}  verdict"]
    for row in rows:
        if "base" not in row:
            lines.append(f"{row['workload']:<9} {row['metric']:<13} {row['verdict']}")
            continue
        ratio = row["change"] / row["base"] if row["base"] else float("nan")
        lines.append(f"{row['workload']:<9} {row['metric']:<13} {row['base']:>11.5g} "
                     f"{row['change']:>11.5g} {ratio:>7.3f} {row['base_iqr']:>10.4g}  "
                     f"{row['verdict']}")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", metavar="BASE",
                        help="path of a second checkout, of the base commit")
    base = Path(parser.parse_args(argv).base).resolve()
    if not (base / "perfbench" / "run.py").is_file():
        parser.error(f"{base} has no perfbench/run.py")
    checkouts = {"base": base, "change": ROOT}
    command, seconds, end_to_end = load_spec()
    results = {side: {workload: [] for workload in WORKLOADS} for side in checkouts}
    for pair in range(PAIRS):
        order = ("base", "change") if pair % 2 == 0 else ("change", "base")
        for workload in WORKLOADS:
            for position, side in enumerate(order):
                result, provenance, problem = run_side(
                    checkouts[side], command, workload, seconds)
                results[side][workload].append(result)
                print(json.dumps({"pair": pair, "position": position,
                                  "provenance": provenance, "result": result,
                                  "seed": SEED, "side": side, "workload": workload},
                                 sort_keys=True), flush=True)
                commit = (provenance or {}).get("commit") or "?"
                status = problem or run_problem(result) or (
                    f"wall_s {result['metrics']['wall_s']['value']:.3f}")
                print(f"pair {pair} {workload} {side} ({commit[:10]}): {status}",
                      file=sys.stderr, flush=True)
    rows, failures = judge(results["base"], results["change"], end_to_end)
    print(format_rows(rows), file=sys.stderr)
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    print("FAILED" if failures else "PASSED", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
