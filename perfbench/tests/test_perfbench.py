"""The benchmark's own tests: determinism, metric catalog, pin checking.

    python3 -m pytest perfbench/tests -q
"""

import copy
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import layers, run, workloads as wl
from repro.eval.perf import run_perf_sweep

ROOT = Path(__file__).resolve().parents[2]

#: the smallest unit of each workload, run through the same round code
SMALL = {
    "stress": {"sim_seed": 0},
    "hostile": {"chaos_seeds": [], "rogue_seeds": [0]},
    "explore": {"cells": [["mesi", "transactional", 2, wl.EXPLORE_CAP]]},
    "paper_perf": {"seed": 0, "order": [["streaming", "MESI", 0],
                                         ["streaming", "MESI", 2],
                                         ["graph_walk", "HAMMER", 0],
                                         ["graph_walk", "HAMMER", 3]]},
}


@pytest.fixture(scope="module")
def pins():
    return wl.load_pins()


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_two_smallest_runs_give_identical_pins_and_counts(workload, pins):
    first = wl.run_round(workload, SMALL[workload])
    second = wl.run_round(workload, SMALL[workload])
    assert [s.key for s in first.sims] == [s.key for s in second.sims]
    assert [s.out for s in first.sims] == [s.out for s in second.sims]
    assert [s.counts for s in first.sims] == [s.counts for s in second.sims]
    assert wl.check(workload, first.sims, pins) == []


def test_one_chaos_campaign_is_deterministic_and_pinned(pins):
    args = ("chaos", "MESIF", "TRANSACTIONAL", "mixed", 0)
    first, blame, _, _ = wl.hostile_job(*args)
    second, blame_again, _, _ = wl.hostile_job(*args)
    assert (first.out, first.counts) == (second.out, second.counts)
    assert blame == blame_again and blame["cells"]
    assert wl.check("hostile", [first], pins) == []


def test_every_seed_maps_onto_pinned_inputs(pins):
    stress_seeds = {int(key.rsplit("/s", 1)[1]) for key in pins["stress"]}
    seeds = list(range(40)) + [wl.HELD_OUT_SEED, -7, 2**40]
    for seed in seeds:
        for spec in wl.plan("stress", seed, 8):
            assert spec["sim_seed"] in stress_seeds
        for spec in wl.plan("hostile", seed, 2):
            assert {job.label for job in wl.hostile_jobs(spec)} <= set(pins["hostile"])
        for spec in wl.plan("explore", seed, 1):
            keys = {wl.explore_key(h, v, n) for h, v, n, _cap in spec["cells"]}
            assert keys <= set(pins["explore"]) and keys <= set(pins["explore_work"])
    assert len(pins["paper_perf"]) == len(wl.plan("paper_perf", 0, 1)[0]["order"])


def test_held_out_seed_draws_inputs_no_other_seed_uses():
    def drawn(seed):
        stress = {spec["sim_seed"] for spec in wl.plan("stress", seed, 64)}
        hostile = wl.plan("hostile", seed, 16)
        chaos = {s for spec in hostile for s in spec["chaos_seeds"]}
        rogue = {s for spec in hostile for s in spec["rogue_seeds"]}
        return stress, chaos, rogue

    held = drawn(wl.HELD_OUT_SEED)
    for seed in range(200):
        for mine, theirs in zip(held, drawn(seed)):
            assert not mine & theirs


def test_corrupted_pin_drives_failed_frac_above_zero(pins):
    rnd = wl.run_round("stress", SMALL["stress"])
    assert wl.check("stress", rnd.sims, pins) == []
    corrupted = copy.deepcopy(pins)
    corrupted["stress"][rnd.sims[3].key]["final_tick"] += 1
    failures = wl.check("stress", rnd.sims, corrupted)
    assert [key for key, _reason in failures] == [rnd.sims[3].key]
    assert len(failures) / len(rnd.sims) > 0


def test_xg_overhead_matches_run_perf_sweep_rows(pins):
    seed = 11
    rnd = wl.run_round("paper_perf", wl.plan("paper_perf", seed, 1)[0])
    assert wl.check("paper_perf", rnd.sims, pins) == []
    ours = run.end_to_end("paper_perf", [rnd], [1.0], pins)["xg_overhead"]
    rows = run_perf_sweep(hosts=wl.HOSTS, scale=wl.PERF_SCALE, seed=seed)
    norms = [row["ticks_norm"] for kernel_rows in rows.values() for row in kernel_rows
             if "/xg-" in row["config"]]
    assert len(norms) == len(wl.PERF_WORKLOADS(scale=wl.PERF_SCALE)) * len(wl.HOSTS) * 4
    expected = math.exp(sum(math.log(n) for n in norms) / len(norms))
    assert math.isclose(ours, expected, rel_tol=1e-12)


def test_benchmark_json_names_every_metric_with_unit_and_direction():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    named = {(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]}
    assert named == set(run.END_TO_END)
    layered = {(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]}
    assert layered == set(layers.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)


def _run_cli(*args):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines(), json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace, catalog", [(0, run.END_TO_END), (1, layers.PER_LAYER)])
def test_cli_prints_every_metric_with_its_unit(trace, catalog):
    lines, result = _run_cli("--workload", "stress", "--seed", "2", "--seconds", "1",
                             "--trace", str(trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        name: unit for name, unit, _better in catalog}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert any(line.startswith("provenance:") for line in lines)
    if trace:
        table = "\n".join(lines)
        assert all(name in table for name, _u, _b in catalog)
        assert "n/a" in table  # obs, eval and verify are idle on stress
