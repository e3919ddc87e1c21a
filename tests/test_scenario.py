"""The one scenario type behind the fuzz, chaos and rogue harnesses.

Covers the picklable :class:`Scenario` value and its validation, the one
row schema and worker-count independence of :func:`run_matrix`, the
defaults that must differ between presets, and that every harness
reports *why* a host crashed.
"""

import pickle

import pytest

from repro.accel.rogue import RoguePlan
from repro.cli import main
from repro.host.config import HostProtocol
from repro.testing.random_tester import RandomTester
from repro.testing.scenario import (
    CHAOS,
    FUZZ,
    ROGUE,
    ROGUE_PLANS,
    Scenario,
    run_matrix,
    run_scenario,
)
from repro.xg.interface import XGVariant


def _cells():
    """One short fuzz, chaos and rogue cell, labelled alike."""
    short = dict(host=HostProtocol.HAMMER, seed=2, duration=6_000, cpu_ops=80)
    return [
        (FUZZ.replace(**short), {"harness": "fuzz"}),
        (CHAOS.replace(faults={"drop": 0.2, "duplicate": 0.2}, **short),
         {"harness": "chaos"}),
        (ROGUE.replace(adversary="mute", variant=XGVariant.TRANSACTIONAL, **short),
         {"harness": "rogue"}),
    ]


# -- the value -----------------------------------------------------------------


def test_scenario_survives_pickle_round_trip():
    scenario = ROGUE.replace(
        host=HostProtocol.MESIF,
        adversary=ROGUE_PLANS["liar"].reseed(5),
        adversary_kwargs={"block_size": 64},
        faults={"delay": 0.1},
        fault_seed=9,
        lineage=True,
    )
    clone = pickle.loads(pickle.dumps(scenario))
    assert clone == scenario
    assert isinstance(clone.adversary, RoguePlan)


def test_unknown_adversary_rejected():
    with pytest.raises(ValueError, match="unknown adversary"):
        Scenario(adversary="protocol")


def test_unknown_page_layout_rejected():
    with pytest.raises(ValueError, match="page layout"):
        Scenario(pages="nope")


def test_bad_fault_rates_rejected_at_construction():
    with pytest.raises(ValueError):
        CHAOS.replace(faults={"bogus": 0.1})


def test_trace_offers_only_runnable_adversaries(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["trace", "--adversary", "protocol"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_flood_retries_only_when_a_fault_plan_exists():
    """Chaos always builds a fault plan, even an empty one, and a flood
    behind one re-requests what the link may have eaten."""
    short = dict(adversary="flood", duration=500, cpu_ops=10)
    _, perfect = run_scenario(FUZZ.replace(**short))
    _, lossy = run_scenario(CHAOS.replace(**short))
    assert perfect.config.fault_plan is None
    assert perfect.accel_caches[0].retry_after is None
    assert lossy.config.fault_plan is not None
    assert lossy.accel_caches[0].retry_after == 4 * CHAOS.accel_timeout
    assert (perfect.config.probe_retries, lossy.config.probe_retries) == (1, 2)


# -- the matrix ----------------------------------------------------------------


def test_run_matrix_is_worker_count_independent_with_one_row_schema():
    cells = _cells()
    serial = run_matrix(cells, workers=1)
    parallel = run_matrix(cells, workers=2)
    assert serial == parallel
    assert [row["harness"] for row in serial] == ["fuzz", "chaos", "rogue"]
    assert len({frozenset(row) for row in serial}) == 1, "one row schema"
    fuzz, chaos, rogue = serial
    assert fuzz["adversary"] == "fuzz" and fuzz["plan"] == ""
    assert chaos["faults_total"] > 0
    assert rogue["plan"] == "mute" and rogue["variant"] == "TRANSACTIONAL"
    for row in serial:
        assert row["host_safe"] and row["contained"]
        assert row["containment"] != "escaped"


# -- crash reasons -------------------------------------------------------------


@pytest.fixture
def crashing_tester(monkeypatch):
    """Every campaign's host crashes with ``RuntimeError: boom``."""
    original = RandomTester.start

    def start(self):
        original(self)
        self.sim.schedule(50, _boom)

    monkeypatch.setattr(RandomTester, "start", start)


def _boom():
    raise RuntimeError("boom")


def test_every_harness_row_carries_the_crash_reason(crashing_tester):
    rows = run_matrix(_cells(), workers=1)
    for row in rows:
        assert not row["host_safe"], row["harness"]
        assert row["containment"] == "escaped"
        assert row["crash_detail"] == "RuntimeError: boom", row["harness"]


def test_rogue_command_prints_the_crash_reason(crashing_tester, capsys):
    assert main(["rogue", "--plans", "mute", "--hosts", "mesi",
                 "--variants", "full_state", "--duration", "3000",
                 "--cpu-ops", "40", "--workers", "1"]) == 1
    err = capsys.readouterr().err
    assert "ESCAPED: mute on MESI/FULL_STATE seed 0: RuntimeError: boom" in err


@pytest.mark.parametrize("command", ["fuzz", "chaos"])
def test_campaign_command_prints_the_crash_reason(crashing_tester, capsys, command):
    assert main([command, "--duration", "3000", "--cpu-ops", "40"]) == 1
    captured = capsys.readouterr()
    assert "host_safe: False" in captured.out
    assert "probe_retries:" in captured.out
    assert "host unsafe: RuntimeError: boom" in captured.err
