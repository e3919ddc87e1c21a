"""E12c — allocation profile: steady-state allocations per event.

The protocol path should keep nothing once a simulation is over: every
delivered ``Message`` is garbage once consumed, the event kernel's
integer tokens and per-tick buckets replace per-event objects, and TBEs,
cache entries and XG's per-address state die with their system. This
bench checks it on the 18-config E3 stress matrix that perfbench
``stress`` runs (MESI, Hammer and MESIF hosts; controllers, TBEs, XG and
the kernel all on the path), one warm-up run per configuration priming
the program's caches first: net allocated blocks per event (post-GC)
must be ~0, and the payload records tracemalloc net/peak plus gen-0
collection counts for the CI trajectory.

Set ``BENCH_ALLOC_OUT`` to control where the JSON lands (default:
``BENCH_alloc.json`` in the current directory; empty string disables
the write).
"""

import json
import os

from repro.eval.profiling import alloc_benchmark_report
from repro.eval.report import format_table

#: A steady state may still retain a handful of blocks per run (a fresh
#: counter key, an interned string) — but per *event* the retained
#: budget is effectively zero.
MAX_NET_BLOCKS_PER_EVENT = 0.05


def test_alloc_steady_state(once):
    report = once(alloc_benchmark_report)
    rows = [
        (
            name,
            w["events"],
            w["messages"],
            w["net_blocks"],
            f"{w['net_blocks_per_event']:.4f}",
            w["gc_gen0_collections"],
            f"{w['traced_peak_bytes'] / 1024:.1f}",
        )
        for name, w in report["workloads"].items()
    ]
    print()
    print(
        format_table(
            ["config", "events", "messages", "net blocks", "net/event",
             "gen0 GCs", "peak KiB"],
            rows,
            title="steady-state allocations, E3 stress matrix (after warmup)",
        )
    )

    print(f"worst: {report['worst_net_blocks_per_event']:.4f} net blocks/event")

    out = os.environ.get("BENCH_ALLOC_OUT", "BENCH_alloc.json")
    if out:
        with open(out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
        print(f"wrote {out}")

    assert report["worst_net_blocks_per_event"] <= MAX_NET_BLOCKS_PER_EVENT, (
        f"steady-state leak: {report['worst_net_blocks_per_event']:.4f} "
        f"net blocks/event (budget {MAX_NET_BLOCKS_PER_EVENT})"
    )
