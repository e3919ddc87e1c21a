"""Tests for the command-line interface."""

import json
import os

import pytest

from repro.cli import build_parser, main

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden", "digests.json")


def test_demo_runs_clean(capsys):
    assert main(["demo"]) == 0
    out = capsys.readouterr().out
    assert "accel read: 21" in out
    assert "cpu read: 42" in out
    assert "guarantee violations: 0" in out


def test_demo_hammer_transactional(capsys):
    assert main(["demo", "--host", "hammer", "--variant", "transactional"]) == 0
    assert "hammer/xg-txn-L1" in capsys.readouterr().out


def test_verify_command(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "transactional-style" in out and "OK" in out


def test_fuzz_command_safe(capsys):
    assert main(["fuzz", "--duration", "8000", "--cpu-ops", "200"]) == 0
    out = capsys.readouterr().out
    assert "host_safe: True" in out


def test_chaos_command_safe(capsys):
    assert main([
        "chaos", "--duration", "10000", "--cpu-ops", "200", "--rate", "0.2",
        "--accel-timeout", "1500", "--probe-retries", "2",
    ]) == 0
    out = capsys.readouterr().out
    assert "host_safe: True" in out
    assert "faults_total:" in out


def test_chaos_command_blackhole_and_disable(capsys):
    assert main([
        "chaos", "--duration", "12000", "--cpu-ops", "200", "--rate", "0.1",
        "--blackhole", "3000:6000", "--accel-timeout", "1500",
        "--adversary", "fuzz", "--disable-after", "5",
    ]) == 0
    out = capsys.readouterr().out
    assert "host_safe: True" in out
    assert "OS error log:" in out


def test_experiment_e1(capsys):
    assert main(["experiment", "e1"]) == 0
    assert "Table 1" in capsys.readouterr().out


def test_experiment_unknown(capsys):
    assert main(["experiment", "nope"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_stress_small(capsys):
    assert main(["stress", "--seeds", "1", "--ops", "400"]) == 0
    assert "stress runs, 0 failures" in capsys.readouterr().out


def test_stress_live_plain_on_non_tty(capsys, tmp_path):
    # capsys' stdout is not a TTY, so --live must degrade to periodic
    # plain-text lines (no ANSI) and still produce the normal report
    dash = tmp_path / "campaign_dash.json"
    assert main([
        "stress", "--seeds", "1", "--ops", "300", "--workers", "2",
        "--live", "--live-interval", "0.2", "--dash-out", str(dash),
    ]) == 0
    out = capsys.readouterr().out
    assert "\x1b[" not in out, "non-TTY live output must stay plain"
    assert "fabric: jobs" in out
    assert "stress runs, 0 failures" in out
    import json

    payload = json.loads(dash.read_text())
    assert payload["schema"] == "repro.campaign_dash/1"
    assert payload["fabric"]["jobs_done"] == payload["fabric"]["jobs_total"]


def test_top_command_prints_fabric_summary(capsys):
    assert main(["top", "--seeds", "1", "--ops", "300", "--workers", "1",
                 "--live-interval", "0.2"]) == 0
    out = capsys.readouterr().out
    assert "campaign fabric summary" in out
    assert "job_ms" in out
    assert "\x1b[" not in out


def test_fuzz_live_frames_single_run(capsys):
    assert main(["fuzz", "--duration", "8000", "--cpu-ops", "200",
                 "--live", "--live-interval", "0.1"]) == 0
    out = capsys.readouterr().out
    assert "host_safe: True" in out
    assert "fabric: jobs 1/1" in out


SMALL_CAMPAIGN = ["--seeds", "1", "--ops", "100", "--workers", "1"]
BLAME_TITLE = "blame breakdown (% of span ticks)"


def test_report_lineage_prints_blame_table(capsys):
    assert main(["report", "--lineage"] + SMALL_CAMPAIGN) == 0
    out = capsys.readouterr().out
    assert "0 failures" in out
    assert BLAME_TITLE in out
    assert "no lineage recorded" not in out
    assert "slowest" in out.split(BLAME_TITLE, 1)[1]


def test_blame_output_round_trips_through_blame_matrix(tmp_path, capsys):
    from repro.obs import BlameMatrix

    path = tmp_path / "blame.json"
    assert main(["blame", "-o", str(path)] + SMALL_CAMPAIGN) == 0
    out = capsys.readouterr().out
    assert BLAME_TITLE in out
    assert f"wrote {path}" in out
    data = json.loads(path.read_text())
    assert data["cells"], "a lineage-on campaign blames every span kind it closed"
    written = json.dumps(data, sort_keys=True, separators=(",", ":")).encode()
    assert BlameMatrix.from_dict(data).canonical() == written


def test_explore_command(tmp_path, capsys):
    report = tmp_path / "explore_report.json"
    assert main(["explore", "--max-states", "40", "-o", str(report)]) == 0
    payload = json.loads(report.read_text())
    assert set(payload) == {"addresses", "max_states", "cells"}
    [cell] = payload["cells"]
    assert cell["truncated"] and cell["states"] == 40
    capsys.readouterr()

    failing = tmp_path / "counterexample.json"
    assert main(["explore", "--max-states", "5000", "--check",
                 "demo_accel_never_owns", "-o", str(failing)]) == 1
    err = capsys.readouterr().err.splitlines()
    path = json.loads(failing.read_text())["cells"][0]["counterexample"]["path"]
    assert path
    assert err[0].startswith("counterexample in mesi/full_state: ")
    assert err[1:] == [f"    {step}" for step in path]

    with pytest.raises(SystemExit) as exc:
        main(["explore", "--workers", "2"])
    assert exc.value.code == 2


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def _tampered_golden(tmp_path, tamper):
    with open(GOLDEN_PATH) as fh:
        pinned = json.load(fh)
    tamper(pinned["digests"])
    path = tmp_path / "digests.json"
    path.write_text(json.dumps(pinned))
    return str(path)


def test_golden_names_the_changed_fields(tmp_path, capsys):
    def tamper(digests):
        digests["stress/mesif/xg"]["stats"] = "0" * 64
        digests["l2press/mesi/xg"]["final_tick"] += 1
        digests["l2press/mesi/xg"]["state"] = "0" * 64

    assert main(["golden", "--path", _tampered_golden(tmp_path, tamper)]) == 1
    out = capsys.readouterr().out
    assert "stress/mesif/xg: CHANGED (stats)" in out
    assert "l2press/mesi/xg: CHANGED (final_tick, state)" in out
    assert "stress/mesi/xg: OK" in out


def test_golden_fails_when_pins_and_file_disagree_on_labels(tmp_path, capsys):
    def tamper(digests):
        del digests["l2press/mesif/xg"]
        digests["stress/nohost/xg"] = dict(digests["stress/mesi/xg"])

    assert main(["golden", "--path", _tampered_golden(tmp_path, tamper)]) == 1
    out = capsys.readouterr().out
    assert "l2press/mesif/xg: MISSING from the digest file" in out
    assert "stress/nohost/xg: not in PINNED_CONFIGS" in out
    assert "CHANGED" not in out
