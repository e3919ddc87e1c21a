"""Experiment runners regenerating every table and figure (see DESIGN.md).

Each ``run_*`` function returns plain dict/list structures; the
``benchmarks/`` scripts print them with :mod:`repro.eval.report` in the
shape the paper reports.
"""

from repro.eval.report import format_table, normalize_rows
from repro.eval.campaign import (
    CampaignJob,
    CampaignOutcome,
    resolve_workers,
    run_campaign,
)
from repro.eval.experiments import (
    run_table1_accel_l1,
    run_complexity_comparison,
    run_stress_coverage,
    run_fuzz_matrix,
)
from repro.eval.perf import run_perf_sweep
from repro.eval.overheads import (
    run_storage_comparison,
    run_puts_overhead,
    run_rate_limit_sweep,
    run_timeout_recovery,
    run_block_translation,
)

__all__ = [
    "CampaignJob",
    "CampaignOutcome",
    "format_table",
    "normalize_rows",
    "resolve_workers",
    "run_block_translation",
    "run_campaign",
    "run_complexity_comparison",
    "run_fuzz_matrix",
    "run_perf_sweep",
    "run_puts_overhead",
    "run_rate_limit_sweep",
    "run_storage_comparison",
    "run_stress_coverage",
    "run_table1_accel_l1",
    "run_timeout_recovery",
]
