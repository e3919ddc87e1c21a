"""Record the benchmark's output pins by running every pooled input once.

    python3 perfbench/record_pins.py

Run at the commit whose behaviour the benchmark pins. Later runs of
``run.py`` compare their outputs with ``pins.json`` exactly and count any
difference as a failed simulation. Refuses to record if any simulation
fails its structural checks.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import workloads as wl  # noqa: E402
from perfbench.run import provenance  # noqa: E402


def _record(pins, workload, rnd):
    for sim in rnd.sims:
        if sim.problem:
            sys.exit(f"error: {workload} {sim.key}: {sim.problem}; not recording")
        pins[workload][sim.key] = json.loads(json.dumps(sim.out))
    print(f"{workload}: {len(rnd.sims)} simulations in {rnd.wall:.1f} s", flush=True)


def main():
    pins = {"meta": provenance(), "stress": {}, "hostile": {}, "explore": {},
            "paper_perf": {}, "explore_work": {}}
    for seed in wl.STRESS_POOL + wl.STRESS_HELD_OUT:
        _record(pins, "stress", wl.run_round("stress", {"sim_seed": seed}))
    _record(pins, "hostile", wl.run_round("hostile", {
        "chaos_seeds": list(wl.CHAOS_POOL + wl.CHAOS_HELD_OUT),
        "rogue_seeds": list(wl.ROGUE_POOL + wl.ROGUE_HELD_OUT)}))
    cells = [[host, variant, 1, None] for host, variant in wl.EXPLORE_COMPLETE]
    cells += [[host, variant, 2, wl.EXPLORE_CAP] for host in ("mesi", "hammer", "mesif")
              for variant in ("full_state", "transactional")]
    explored = wl.run_round("explore", {"cells": cells})
    _record(pins, "explore", explored)
    pins["explore_work"] = {sim.key: sim.events for sim in explored.sims}
    _record(pins, "paper_perf", wl.run_round("paper_perf", wl.plan("paper_perf", 0, 1)[0]))
    with open(wl.PINS_PATH, "w") as fh:
        json.dump(pins, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {wl.PINS_PATH}")


if __name__ == "__main__":
    main()
