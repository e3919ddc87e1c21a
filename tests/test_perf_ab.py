"""``benchmarks/perf_ab.py``: its verdict on synthetic run results, and
the bytecode it writes in both checkouts before the first pair."""

import importlib.util
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "perf_ab.py"
_spec = importlib.util.spec_from_file_location("perf_ab", SCRIPT)
perf_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_ab)

END_TO_END = perf_ab.load_spec()[2]
BASE_METRICS = {"setup_s": 0.3, "wall_s": 3.0, "sims_per_s": 6.0, "events_per_s": 45000.0,
                "sim_ms_p50": 140.0, "sim_ms_p90": 200.0, "xg_overhead": 0.4,
                "peak_rss_mb": 29.0}


def _result(failed=0, **scale):
    """One run's result line: the base metrics, each scaled by ``scale[name]``."""
    return {"correct": not failed, "attempted": 108, "failed": failed,
            "metrics": {name: {"value": value * scale.get(name, 1.0), "unit": "-"}
                        for name, value in BASE_METRICS.items()}}


def _runs(jitter=(1.0, 0.99, 1.01, 0.98, 1.02), **scale):
    """Five runs of one side, every metric multiplied by a run's jitter."""
    return [_result(**{name: factor * scale.get(name, 1.0) for name in BASE_METRICS})
            for factor in jitter]


def _judge(base, change):
    return perf_ab.judge({"stress": base}, {"stress": change}, END_TO_END)


def _verdicts(rows):
    return {row["metric"]: row["verdict"] for row in rows}


def test_identical_sides_pass():
    rows, failures = _judge(_runs(), _runs())
    assert failures == []
    assert set(_verdicts(rows).values()) == {"ok"}
    assert len(rows) == len(END_TO_END)


def test_twice_the_wall_time_fails():
    rows, failures = _judge(_runs(), _runs(wall_s=2.0))
    assert _verdicts(rows)["wall_s"] == "WORSE"
    assert [f.split(":")[0] for f in failures] == ["stress wall_s"]


def test_half_the_throughput_fails():
    """``sims_per_s`` is higher-is-better: a lower median is the regression."""
    rows, failures = _judge(_runs(), _runs(sims_per_s=0.5))
    assert _verdicts(rows)["sims_per_s"] == "WORSE"
    assert [f.split(":")[0] for f in failures] == ["stress sims_per_s"]
    rows, failures = _judge(_runs(), _runs(sims_per_s=2.0))
    assert failures == []


def test_gap_inside_a_wider_base_iqr_is_unresolved_and_passes():
    # base wall_s spread: quartiles 2.4 and 3.6 s, an IQR of 40% of the median
    wide = (1.0, 0.6, 1.4, 0.8, 1.2)
    rows, failures = _judge(_runs(jitter=wide), _runs(wall_s=1.3))
    assert failures == []
    assert _verdicts(rows)["wall_s"] == "unresolved"
    # beyond the IQR as well, the same spread no longer excuses it
    rows, failures = _judge(_runs(jitter=wide), _runs(wall_s=1.5))
    assert _verdicts(rows)["wall_s"] == "WORSE"


def test_change_side_with_failed_simulations_fails():
    change = _runs()
    change[2] = _result(failed=1)
    rows, failures = _judge(_runs(), change)
    assert len(failures) == 1 and "failed 1/108" in failures[0]
    assert set(_verdicts(rows).values()) == {"ok"}


def test_change_side_without_a_result_fails():
    change = _runs()
    change[0] = None
    _rows, failures = _judge(_runs(), change)
    assert len(failures) == 1 and "no result" in failures[0]


def _checkout(root):
    """A minimal checkout: one module under ``src`` and one under ``perfbench``."""
    (root / "src" / "pkg").mkdir(parents=True)
    (root / "src" / "pkg" / "mod.py").write_text("VALUE = 1\n")
    (root / "perfbench").mkdir()
    (root / "perfbench" / "run.py").write_text("print('run')\n")
    return root


def test_compile_bytecode_writes_pycache_despite_dontwritebytecode(tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    checkout = _checkout(tmp_path / "checkout")
    perf_ab.compile_bytecode(checkout, sys.executable)
    for folder in (checkout / "src" / "pkg", checkout / "perfbench"):
        assert list((folder / "__pycache__").glob("*.pyc")), folder


def test_both_checkouts_compile_before_the_first_run(tmp_path, monkeypatch):
    base = _checkout(tmp_path / "base")
    calls = []
    monkeypatch.setattr(perf_ab, "PAIRS", 1)
    monkeypatch.setattr(perf_ab, "compile_bytecode",
                        lambda checkout, python: calls.append(("compile", checkout)))

    def run_side(checkout, command, workload, seconds):
        calls.append(("run", checkout))
        return _result(), {"commit": "0" * 40}, None

    monkeypatch.setattr(perf_ab, "run_side", run_side)
    assert perf_ab.main([str(base)]) == 0
    assert calls[:2] == [("compile", base.resolve()), ("compile", perf_ab.ROOT)]
    runs = calls[2:]
    assert len(runs) == 2 * len(perf_ab.WORKLOADS)
    assert {kind for kind, _ in runs} == {"run"}
