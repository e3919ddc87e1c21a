"""Chaos-campaign safety tests: link faults vs the hardened Crossing Guard.

The acceptance claims, asserted per campaign:

* the host never crashes and never deadlocks under drops, duplicates,
  delay spikes, corruption, or all of them at once;
* CPU traffic keeps completing and stays data-checked;
* faults were actually injected (the campaigns are not vacuous);
* whatever XG could not silently recover is visible in the OS error log
  or in its recovery counters — never silently lost.
"""

import pytest

from repro.host.config import HostProtocol
from repro.sim.faults import DROP, FaultWindow, single_link_plan
from repro.testing.chaos import run_chaos_campaign, run_chaos_matrix
from repro.xg.interface import XGVariant

RECOVERY_KEYS = (
    "probe_retries",
    "duplicates_sunk",
    "retry_echoes_absorbed",
    "quarantine_surrogates",
    "requests_dropped_disabled",
)


def _assert_row_safe(row):
    label = f"{row['host']}/{row['variant']}/{row['fault']}/seed{row['seed']}"
    detail = row.get("crash_detail", "")
    diagnosis = row.get("diagnosis", "")
    assert row["host_safe"], f"{label}: {detail}\n{diagnosis}"
    assert row["cpu_loads_checked"] > 0, f"{label}: CPUs made no progress"
    assert row["cpu_loads_value_checked"] > 0, f"{label}: no load was data-checked"
    assert row["faults_total"] > 0, f"{label}: campaign injected nothing"
    recovered = sum(row[key] for key in RECOVERY_KEYS)
    assert recovered + row["violations_total"] > 0, (
        f"{label}: faults neither recovered nor surfaced to the OS"
    )


def test_chaos_matrix_host_survives_every_fault_kind():
    """Acceptance sweep: 3 fault kinds (+ the mixed campaign) x 3 hosts x
    2 XG variants, nonzero rates on the XG<->accel link."""
    rows = run_chaos_matrix(
        fault_kinds=("drop", "duplicate", "corrupt"),
        rate=0.2,
        duration=20_000,
        cpu_ops=300,
    )
    assert len(rows) == 24  # (3 kinds + mixed) x 3 hosts x 2 variants
    for row in rows:
        _assert_row_safe(row)
    # Kind-specific recovery evidence, aggregated across hosts/variants so
    # a single quiet interleaving cannot flake the suite.
    dup_rows = [r for r in rows if r["fault"] == "duplicate"]
    assert sum(r["duplicates_sunk"] for r in dup_rows) > 0
    drop_rows = [r for r in rows if r["fault"] in ("drop", "mixed")]
    assert sum(r["probe_retries"] + r["violations_total"] for r in drop_rows) > 0


def test_chaos_blackhole_window_recovered():
    """A scheduled total outage of the accel link must not wedge the host."""
    result, system = run_chaos_campaign(
        HostProtocol.MESI,
        XGVariant.FULL_STATE,
        faults={"drop": 0.05},
        windows=(FaultWindow(4_000, 9_000, DROP, rate=1.0),),
        seed=2,
        duration=25_000,
        cpu_ops=400,
        accel_timeout=1_500,
        probe_retries=2,
    )
    assert result.host_safe, result.crash_detail + "\n" + result.diagnosis
    assert result.faults_injected.get("drop", 0) > 0
    assert result.cpu_loads_value_checked > 0


def test_chaos_quarantine_disables_and_drains():
    """OS disable policy under faults: once tripped, further accelerator
    requests are dropped at the crossing and the host still quiesces."""
    result, system = run_chaos_campaign(
        HostProtocol.MESI,
        XGVariant.FULL_STATE,
        faults={"drop": 0.15, "duplicate": 0.15},
        adversary="fuzz",
        seed=4,
        duration=30_000,
        cpu_ops=400,
        accel_timeout=1_500,
        probe_retries=1,
        disable_after=5,
    )
    assert result.host_safe, result.crash_detail + "\n" + result.diagnosis
    assert result.accel_disabled
    assert result.requests_dropped_disabled > 0
    assert result.violations_total >= 5
    assert result.cpu_loads_value_checked > 0


def test_chaos_campaign_deterministic_for_fixed_seeds():
    """Same (sim seed, fault plan) => bit-identical campaign: final tick,
    every stats counter and histogram, and the full OS error log."""

    def run():
        result, system = run_chaos_campaign(
            HostProtocol.MESI,
            XGVariant.TRANSACTIONAL,
            faults={"drop": 0.15, "duplicate": 0.15, "delay": 0.15, "corrupt": 0.15},
            seed=6,
            fault_seed=13,
            duration=15_000,
            cpu_ops=300,
            accel_timeout=1_500,
            probe_retries=2,
        )
        return result, system

    first, sys_a = run()
    second, sys_b = run()
    assert first.as_dict() == second.as_dict()
    assert sys_a.error_log.as_dict() == sys_b.error_log.as_dict()
    assert sys_a.sim.stats_report() == sys_b.sim.stats_report()


def test_chaos_campaign_fault_seed_changes_outcome():
    def run(fault_seed):
        result, system = run_chaos_campaign(
            HostProtocol.MESI,
            XGVariant.FULL_STATE,
            faults={"drop": 0.2, "duplicate": 0.2},
            seed=6,
            fault_seed=fault_seed,
            duration=15_000,
            cpu_ops=300,
            accel_timeout=1_500,
        )
        return result, system

    base, sys_a = run(13)
    other, sys_b = run(14)
    assert (
        base.faults_injected != other.faults_injected
        or sys_a.sim.stats_report() != sys_b.sim.stats_report()
    ), "different fault seeds must perturb the campaign"


def test_chaos_accepts_prebuilt_plan():
    plan = single_link_plan({"duplicate": 0.3}, seed=21, link="accel")
    result, _system = run_chaos_campaign(
        HostProtocol.HAMMER,
        XGVariant.FULL_STATE,
        faults=plan,
        seed=3,
        duration=15_000,
        cpu_ops=300,
        accel_timeout=1_500,
    )
    assert result.host_safe, result.crash_detail
    assert result.faults_total == plan.total_injected > 0


@pytest.mark.slow
def test_chaos_deep_sweep_all_kinds_two_seeds():
    """The full acceptance sweep at depth: every fault kind, all three
    hosts, both variants, two seeds. Run explicitly with ``-m slow``."""
    rows = run_chaos_matrix(
        fault_kinds=("drop", "duplicate", "delay", "corrupt"),
        rate=0.25,
        seeds=range(2),
        duration=40_000,
        cpu_ops=600,
    )
    assert len(rows) == 60  # (4 kinds + mixed) x 3 hosts x 2 variants x 2 seeds
    for row in rows:
        _assert_row_safe(row)
