"""Protocol-path cost accounting: steady-state allocations and telemetry overhead.

Both reports run the full coherence stack — host controllers, Crossing
Guard, accelerator caches and the event kernel under them — because
that is where a leak or a hook's cost would show:

* :func:`alloc_benchmark_report` — net allocated blocks per event on
  the 18-config E3 stress matrix (``benchmarks/bench_alloc.py``);
* :func:`obs_overhead_report` — events/sec of one XG stress run with
  each observability mode on (``benchmarks/bench_obs_overhead.py``).

Event counts and final ticks are deterministic per seed, so rows of
either report compare exactly across versions; the timings and
allocation counts depend on the machine and the interpreter.
End-to-end speed is measured by ``perfbench/run.py`` instead.
"""

import dataclasses
import gc
import statistics
import sys
import time
import tracemalloc
from contextlib import ExitStack

from repro.eval.experiments import stress_configs
from repro.host.config import AccelOrg, HostProtocol, SystemConfig
from repro.host.system import build_system
from repro.testing.random_tester import RandomTester


#: The E3 stress matrix as perfbench ``stress`` drives it: every host x
#: organization, tiny caches, random latencies, five contended blocks.
ALLOC_HOSTS = (HostProtocol.MESI, HostProtocol.HAMMER, HostProtocol.MESIF)
ALLOC_BLOCKS = tuple(0x1000 + 64 * i for i in range(5))
ALLOC_OPS = 800


def _stress_run(config):
    """Build ``config``'s system and drive it with checked random traffic.

    Returns ``(events, messages)``; nothing else of the run outlives the
    call, so whatever it allocated is garbage once it returns.
    """
    system = build_system(config)
    RandomTester(system.sim, system.sequencers, ALLOC_BLOCKS,
                 ops_target=ALLOC_OPS, store_fraction=0.45).run()
    return (system.sim._events_fired,
            sum(net.stats.get("messages") for net in system.sim.networks))


def alloc_benchmark_report(seed=0, warmup_runs=1):
    """Steady-state allocation profile of the protocol path (``BENCH_alloc.json``).

    For each of the 18 E3 stress configurations (MESI, Hammer and MESIF
    hosts; accelerator-side, host-side and both XG variants at one and
    two accelerator levels) this runs ``warmup_runs`` throwaway runs
    first — priming compiled dispatch tables, route caches, counter keys
    and string interning — then measures one steady-state run two ways:

    * **net allocated blocks** (``sys.getallocatedblocks`` delta across
      the run, garbage-collected on both sides): what the run *retained*
      once its system is gone. Controllers, TBEs, XG and the event
      kernel together should keep ~0 per event;
    * **tracemalloc** net/peak bytes in a second pass (tracemalloc skews
      block counts, so it never overlaps the block measurement);
    * **gen-0 GC collections** during the run: transient container churn
      (tuples, argument frames) that never survives a collection.
    """
    workloads = {}
    for config in stress_configs(seed, hosts=ALLOC_HOSTS):
        config = dataclasses.replace(config, trace_depth=0)
        for _ in range(max(1, warmup_runs)):
            _stress_run(config)
        gc.collect()
        gen0_before = gc.get_stats()[0]["collections"]
        blocks_before = sys.getallocatedblocks()
        events, messages = _stress_run(config)
        gen0_during = gc.get_stats()[0]["collections"] - gen0_before
        gc.collect()
        net_blocks = sys.getallocatedblocks() - blocks_before

        tracemalloc.start()
        traced_before, _ = tracemalloc.get_traced_memory()
        if hasattr(tracemalloc, "reset_peak"):
            tracemalloc.reset_peak()
        _stress_run(config)
        traced_after, traced_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()

        workloads[config.label] = {
            "events": events,
            "messages": messages,
            "net_blocks": net_blocks,
            "net_blocks_per_event": net_blocks / events if events else 0.0,
            "gc_gen0_collections": gen0_during,
            "traced_net_bytes": traced_after - traced_before,
            "traced_peak_bytes": traced_peak,
        }
    worst = max(
        abs(w["net_blocks_per_event"]) for w in workloads.values()
    )
    return {
        "bench": "alloc_steady_state",
        "unit": "net_blocks_per_event",
        "seed": seed,
        "warmup_runs": warmup_runs,
        "workloads": workloads,
        "worst_net_blocks_per_event": worst,
    }


def bench_xg_stress(mode="default", seed=0, ops=1200):
    """Protocol-path throughput: one small stress run through XG, timed.

    It pays the full coherence stack — MESI L1/L2, Crossing Guard,
    accelerator caches — so it is where telemetry hook overhead would
    actually show. ``mode``:

    * ``"default"``     — metrics on, no telemetry hub (how tests run);
    * ``"metrics_off"`` — :class:`NullStats` everywhere (campaign mode);
    * ``"traced"``      — a :class:`~repro.obs.Telemetry` hub attached,
      spans + transitions recorded (the `repro trace` path);
    * ``"fabric"``      — campaign telemetry fabric attached in-process
      (emitter + progress monitor + collector, the ``--live`` path);
    * ``"lineage"``     — causal lineage + span recording on (the
      ``repro blame`` path: every send/fire/stall books a cause record).
    """
    config = SystemConfig(
        host=HostProtocol.MESI,
        org=AccelOrg.XG,
        n_cpus=2,
        n_accel_cores=2,
        cpu_l1_sets=2,
        cpu_l1_assoc=1,
        shared_l2_sets=4,
        shared_l2_assoc=2,
        accel_l1_sets=2,
        accel_l1_assoc=1,
        randomize_latencies=True,
        seed=seed,
        deadlock_threshold=400_000,
        accel_timeout=150_000,
        mem_latency=30,
        trace_depth=0,
        metrics=mode != "metrics_off",
        lineage=mode == "lineage",
    )
    with ExitStack() as stack:
        if mode == "fabric":
            # the progress hook must be live before build_system — the
            # Simulator picks it up at construction
            from repro.obs.fabric import FabricCollector, inproc_session

            collector = FabricCollector(renderer=None)
            stack.enter_context(inproc_session(collector, label="bench"))
        system = build_system(config)
        if mode == "traced":
            from repro.obs import Telemetry

            Telemetry(system.sim)
        elif mode == "lineage":
            # spans only — transition recording would drown the
            # lineage cost being measured
            from repro.obs import Telemetry

            Telemetry(system.sim, transitions=False)
        blocks = [0x1000 + 64 * i for i in range(6)]
        tester = RandomTester(
            system.sim, system.sequencers, blocks,
            ops_target=ops, store_fraction=0.45,
        )
        start = time.perf_counter()
        tester.run()
        elapsed = time.perf_counter() - start
    return {
        "events": system.sim._events_fired,
        "final_tick": system.sim.tick,
        "seconds": elapsed,
    }


#: Telemetry modes :func:`obs_overhead_report` compares.
OBS_MODES = ("metrics_off", "default", "traced", "fabric", "lineage")

#: Round-robin rounds per mode; each mode's time is its median over them.
OBS_ROUNDS = 5


def obs_overhead_report(seed=0, stress_ops=1200):
    """The ``BENCH_obs.json`` payload: telemetry cost accounting.

    ``xg_stress`` runs the full protocol stack once per mode per round,
    the five modes round-robin, in reverse order every other round, so
    no mode always runs first or last while the host drifts; each mode's
    time is its median over :data:`OBS_ROUNDS` rounds. Event counts are
    deterministic per seed, so mode rows are comparable exactly.
    """
    samples = {mode: [] for mode in OBS_MODES}
    for index in range(OBS_ROUNDS):
        for mode in OBS_MODES if index % 2 == 0 else OBS_MODES[::-1]:
            samples[mode].append(bench_xg_stress(mode=mode, seed=seed, ops=stress_ops))
    modes = {}
    for mode, runs in samples.items():
        seconds = statistics.median(run["seconds"] for run in runs)
        modes[mode] = {
            "events": runs[0]["events"],
            "final_tick": runs[0]["final_tick"],
            "seconds": seconds,
            "seconds_samples": [run["seconds"] for run in runs],
            "events_per_sec": runs[0]["events"] / seconds if seconds else 0.0,
        }
    default_eps = modes["default"]["events_per_sec"]
    off_eps = modes["metrics_off"]["events_per_sec"]
    traced_eps = modes["traced"]["events_per_sec"]
    fabric_eps = modes["fabric"]["events_per_sec"]
    lineage_eps = modes["lineage"]["events_per_sec"]
    return {
        "bench": "obs_overhead",
        "unit": "events_per_sec",
        "seed": seed,
        "rounds": OBS_ROUNDS,
        "xg_stress": modes,
        "overhead_pct": {
            # metrics accounting cost relative to the all-no-op mode
            "metrics_vs_off": (
                100.0 * (off_eps - default_eps) / off_eps if off_eps else 0.0
            ),
            # full span/transition recording relative to metrics-on
            "traced_vs_default": (
                100.0 * (default_eps - traced_eps) / default_eps
                if default_eps else 0.0
            ),
            # campaign fabric (emitter + progress monitor) relative to
            # metrics-on — the ≤2% budget bench_obs_overhead.py gates
            "fabric_vs_default": (
                100.0 * (default_eps - fabric_eps) / default_eps
                if default_eps else 0.0
            ),
            # causal lineage + span recording relative to metrics-on —
            # the ≤3% budget bench_obs_overhead.py gates
            "lineage_vs_default": (
                100.0 * (default_eps - lineage_eps) / default_eps
                if default_eps else 0.0
            ),
        },
    }
