"""Protocol validation harnesses.

* :mod:`repro.testing.random_tester` — the Ruby-random-tester analogue
  used by the paper's Section 4.1 stress test: rapid loads/stores to a
  small address pool with data-value checking, random message latencies,
  and tiny caches so replacements and races are frequent.
* :mod:`repro.testing.scenario` — the Section 4 safety experiment as one
  :class:`~repro.testing.scenario.Scenario` value with one runner, one
  result type and one matrix runner. Three presets cover the adversarial
  harnesses:

  * :mod:`repro.testing.fuzzer` — a byzantine message source aimed at the
    Crossing Guard accelerator interface;
  * :mod:`repro.testing.chaos` — fault-injected interconnect campaigns:
    drops, duplicates, delay spikes, and payload corruption on the
    XG<->accelerator link, with host safety and CPU progress asserted;
  * :mod:`repro.testing.rogue` — programmable Byzantine accelerators
    (:class:`~repro.accel.rogue.RoguePlan` driven) with per-cell
    containment classification and the online invariant watchdog.
"""

from repro.testing.chaos import run_chaos_campaign, run_chaos_matrix
from repro.testing.invariants import (
    DEFAULT_WATCHDOG_INTERVAL,
    InvariantError,
    InvariantWatchdog,
    check_all,
)
from repro.testing.random_tester import DataCheckError, RandomTester
from repro.testing.rogue import run_rogue_campaign, run_rogue_matrix
from repro.testing.scenario import (
    CHAOS,
    FUZZ,
    ROGUE,
    ROGUE_PLANS,
    Scenario,
    ScenarioResult,
    run_matrix,
    run_scenario,
)

__all__ = [
    "CHAOS",
    "DataCheckError",
    "DEFAULT_WATCHDOG_INTERVAL",
    "FUZZ",
    "InvariantError",
    "InvariantWatchdog",
    "ROGUE",
    "ROGUE_PLANS",
    "RandomTester",
    "Scenario",
    "ScenarioResult",
    "check_all",
    "run_chaos_campaign",
    "run_chaos_matrix",
    "run_matrix",
    "run_rogue_campaign",
    "run_rogue_matrix",
    "run_scenario",
]
