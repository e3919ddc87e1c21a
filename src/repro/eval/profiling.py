"""Engine throughput profiling: events/sec microbenchmarks + campaign timing.

The simulator kernel (event queue, component wakeups, network delivery)
is the inner loop every experiment pays for; a campaign that runs 2x as
many simulations per hour doubles the value of every harness in the
repo. This module measures that kernel directly:

* :func:`run_engine_microbench` — a synthetic workload mix exercising the
  three hot paths (ordered ping-pong delivery, unordered out-of-order
  arrival, wakeup cancel/reschedule churn) with *no* coherence protocol
  on top, reporting raw events/sec;
* :func:`campaign_wallclock` — end-to-end wall-clock of a small stress
  campaign at different ``workers`` settings (the scaling figure);
* :func:`profile_engine` — cProfile attribution for one workload, for
  finding the next hot spot;
* :func:`dispatch_breakdown` — per-controller-type fires/stalls/table
  sizes for a protocol stress run, so dispatch-path wins are attributable;
* :func:`engine_benchmark_report` — the ``BENCH_engine.json``-compatible
  dict the CI perf-smoke job archives.

Events/sec depends on the machine, so reports carry the raw event and
message counts too — those are deterministic for a given seed and can be
compared exactly across engine versions.
"""

import cProfile
import io
import os
import pstats
import time

from repro.sim.component import Component
from repro.sim.message import Message
from repro.sim.network import FixedLatency, Network, RandomLatency
from repro.sim.simulator import Simulator


class _Ponger(Component):
    """One half of an ordered-link ping-pong pair."""

    PORTS = ("inbox",)

    def __init__(self, sim, name, net):
        super().__init__(sim, name)
        self.net = net
        self.peer = None
        self.budget = 0

    def wakeup(self):
        inbox = self.in_ports["inbox"]
        while True:
            msg = inbox.pop(self.sim.tick)
            if msg is None:
                return
            if self.budget > 0:
                self.budget -= 1
                self.net.send(
                    Message(msg.mtype, msg.addr, sender=self.name, dest=self.peer),
                    "inbox",
                )


class _Sink(Component):
    """Counts arrivals; used by the unordered storm."""

    PORTS = ("inbox",)

    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.received = 0

    def wakeup(self):
        inbox = self.in_ports["inbox"]
        while True:
            msg = inbox.pop(self.sim.tick)
            if msg is None:
                return
            self.received += 1


def _timed(sim, **run_kwargs):
    start = time.perf_counter()
    sim.run(**run_kwargs)
    elapsed = time.perf_counter() - start
    return elapsed


def bench_ping_pong(pairs=24, rounds=300, seed=0, trace_depth=0):
    """Ordered-network ping-pong: the common deliver/wakeup/reply path."""
    sim = Simulator(seed=seed, trace_depth=trace_depth)
    net = Network(sim, FixedLatency(2), ordered=True, name="pp")
    pongers = []
    for i in range(pairs):
        a = _Ponger(sim, f"a{i}", net)
        b = _Ponger(sim, f"b{i}", net)
        a.peer, b.peer = b.name, a.name
        net.attach(a)
        net.attach(b)
        pongers.append((a, b))
    for i, (a, b) in enumerate(pongers):
        a.budget = rounds
        b.budget = rounds
        net.send(Message("ping", 0x40 * i, sender=a.name, dest=b.name), "inbox")
    elapsed = _timed(sim)
    return {
        "workload": "ping_pong",
        "events": sim._events_fired,
        "messages": sim.stats_for("network.pp").get("messages"),
        "final_tick": sim.tick,
        "seconds": elapsed,
        "events_per_sec": sim._events_fired / elapsed if elapsed else 0.0,
    }


def bench_unordered_storm(sources=16, burst=4, rounds=150, seed=0, trace_depth=0):
    """Random-latency fan-in: exercises out-of-order MessageBuffer inserts."""
    sim = Simulator(seed=seed, trace_depth=trace_depth)
    net = Network(sim, RandomLatency(1, 24), ordered=False, name="storm")
    sink = _Sink(sim, "sink")
    net.attach(sink)

    def emit(idx, remaining):
        for j in range(burst):
            net.send(
                Message("blast", 0x40 * j, sender=f"src{idx}", dest="sink"), "inbox"
            )
        if remaining > 1:
            sim.schedule(3, emit, idx, remaining - 1)

    for idx in range(sources):
        sim.schedule(1 + idx % 3, emit, idx, rounds)
    elapsed = _timed(sim)
    return {
        "workload": "unordered_storm",
        "events": sim._events_fired,
        "messages": sink.received,
        "final_tick": sim.tick,
        "seconds": elapsed,
        "events_per_sec": sim._events_fired / elapsed if elapsed else 0.0,
    }


def bench_timer_churn(timers=64, waves=400, seed=0, trace_depth=0):
    """Cancel/reschedule storms: the EventQueue garbage-collection path.

    Every wave delivers one message per timer component and then re-arms
    each component's wakeup three times with successively earlier ticks —
    the ``request_wakeup`` cancel-and-reschedule pattern rate limiters
    and retry timers hit constantly.
    """
    sim = Simulator(seed=seed, trace_depth=trace_depth)
    net = Network(sim, FixedLatency(1), name="churn")
    sinks = [_Sink(sim, f"timer{i}") for i in range(timers)]
    for sink in sinks:
        net.attach(sink)

    def wave(remaining):
        now = sim.tick
        for i, sink in enumerate(sinks):
            net.send(Message("tick", 0x40 * i, sender="drv", dest=sink.name), "inbox")
            # re-arm three times, each earlier: two cancels per component
            sink.request_wakeup(now + 9)
            sink.request_wakeup(now + 6)
            sink.request_wakeup(now + 3)
        if remaining > 1:
            sim.schedule(4, wave, remaining - 1)

    sim.schedule(1, wave, waves)
    elapsed = _timed(sim)
    return {
        "workload": "timer_churn",
        "events": sim._events_fired,
        "messages": sum(s.received for s in sinks),
        "final_tick": sim.tick,
        "seconds": elapsed,
        "events_per_sec": sim._events_fired / elapsed if elapsed else 0.0,
    }


#: The synthetic mix: every row regenerated by ``run_engine_microbench``.
ENGINE_WORKLOADS = {
    "ping_pong": bench_ping_pong,
    "unordered_storm": bench_unordered_storm,
    "timer_churn": bench_timer_churn,
}


def run_engine_microbench(scale=1, seed=0, trace_depth=0, repeats=3):
    """Run the full mix; keep each workload's best-of-``repeats`` timing.

    ``scale`` multiplies per-workload work (rounds/waves); events/sec is
    total events over total (best-run) seconds, so the aggregate is
    dominated by the workloads that dominate real campaigns.
    """
    scale_kwargs = {
        "ping_pong": {"rounds": 300 * scale},
        "unordered_storm": {"rounds": 150 * scale},
        "timer_churn": {"waves": 400 * scale},
    }
    rows = []
    for name, fn in ENGINE_WORKLOADS.items():
        best = None
        for _ in range(max(1, repeats)):
            row = fn(seed=seed, trace_depth=trace_depth, **scale_kwargs[name])
            if best is None or row["seconds"] < best["seconds"]:
                best = row
        rows.append(best)
    total_events = sum(r["events"] for r in rows)
    total_seconds = sum(r["seconds"] for r in rows)
    return {
        "workloads": rows,
        "events": total_events,
        "seconds": total_seconds,
        "events_per_sec": total_events / total_seconds if total_seconds else 0.0,
    }


def alloc_benchmark_report(seed=0, warmup_runs=1):
    """Steady-state allocation profile of the engine mix (``BENCH_alloc.json``).

    For each synthetic workload this runs ``warmup_runs`` throwaway
    iterations first — priming route caches, counter keys, and string
    interning — then measures one steady-state run two ways:

    * **net allocated blocks** (``sys.getallocatedblocks`` delta across
      the run, garbage-collected on both sides): what the run *retained*.
      With the struct-of-arrays event kernel this is ~0 per event — the
      no-leak guarantee the perf gate story rests on;
    * **tracemalloc** net/peak bytes in a second pass (tracemalloc skews
      block counts, so it never overlaps the block measurement);
    * **gen-0 GC collections** during the run: transient container churn
      (tuples, argument frames) that never survives a collection.
    """
    import gc
    import sys
    import tracemalloc

    workloads = {}
    for name, fn in ENGINE_WORKLOADS.items():
        for _ in range(max(1, warmup_runs)):
            fn(seed=seed)
        gc.collect()
        gen0_before = gc.get_stats()[0]["collections"]
        blocks_before = sys.getallocatedblocks()
        row = fn(seed=seed)
        gen0_during = gc.get_stats()[0]["collections"] - gen0_before
        events = row["events"]
        messages = row["messages"]
        del row  # drop the report dict before the closing measurement
        gc.collect()
        net_blocks = sys.getallocatedblocks() - blocks_before

        tracemalloc.start()
        traced_before, _ = tracemalloc.get_traced_memory()
        if hasattr(tracemalloc, "reset_peak"):
            tracemalloc.reset_peak()
        fn(seed=seed)
        traced_after, traced_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()

        workloads[name] = {
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


def campaign_wallclock(workers_list=(1, None), seeds=range(1), ops_per_run=400,
                       num_blocks=3):
    """Wall-clock one small stress campaign per ``workers`` setting.

    ``None`` in ``workers_list`` means ``os.cpu_count()``. Returns rows of
    {workers, seconds, runs, failures, speedup_vs_serial}; also asserts
    nothing about correctness — the equivalence tests own that.
    """
    from repro.eval.experiments import run_stress_coverage

    rows = []
    serial_seconds = None
    for workers in workers_list:
        resolved = workers if workers is not None else (os.cpu_count() or 1)
        start = time.perf_counter()
        result = run_stress_coverage(
            seeds=seeds, ops_per_run=ops_per_run, num_blocks=num_blocks,
            workers=resolved,
        )
        elapsed = time.perf_counter() - start
        if resolved == 1 and serial_seconds is None:
            serial_seconds = elapsed
        rows.append(
            {
                "workers": resolved,
                "seconds": elapsed,
                "runs": len(result["runs"]),
                "failures": sum(1 for r in result["runs"] if not r["passed"]),
            }
        )
    for row in rows:
        row["speedup_vs_serial"] = (
            serial_seconds / row["seconds"] if serial_seconds and row["seconds"] else None
        )
    return rows


def bench_xg_stress(mode="default", seed=0, ops=1200, repeats=3):
    """Protocol-path throughput: one small stress run through XG, timed.

    Unlike the synthetic engine mix, this pays the full coherence stack —
    MESI L1/L2, Crossing Guard, accelerator caches — so it is where
    telemetry hook overhead would actually show. ``mode``:

    * ``"default"``     — metrics on, no telemetry hub (how tests run);
    * ``"metrics_off"`` — :class:`NullStats` everywhere (campaign mode);
    * ``"traced"``      — a :class:`~repro.obs.Telemetry` hub attached,
      spans + transitions recorded (the `repro trace` path);
    * ``"fabric"``      — campaign telemetry fabric attached in-process
      (emitter + progress monitor + collector, the ``--live`` path);
    * ``"lineage"``     — causal lineage + span recording on (the
      ``repro blame`` path: every send/fire/stall books a cause record).
    """
    from contextlib import ExitStack

    from repro.host.config import AccelOrg, HostProtocol, SystemConfig
    from repro.host.system import build_system
    from repro.testing.random_tester import RandomTester

    best = None
    for _ in range(max(1, repeats)):
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
        row = {
            "workload": "xg_stress",
            "mode": mode,
            "events": system.sim._events_fired,
            "final_tick": system.sim.tick,
            "seconds": elapsed,
            "events_per_sec": system.sim._events_fired / elapsed if elapsed else 0.0,
        }
        if best is None or row["seconds"] < best["seconds"]:
            best = row
    return best


def dispatch_breakdown(host=None, seed=0, ops=1200):
    """Per-controller dispatch accounting for one XG stress run.

    Attributes the protocol-path work to controller types: how many
    compiled table entries each type carries, how many transitions fired
    through the dispatch table, and how often messages stalled (the
    indexed stall-queue path). Run under both dispatch modes (see
    :func:`repro.coherence.controller.dispatch_mode`) the ``fires`` and
    ``stalls`` columns are identical — only ``seconds`` moves, which is
    what makes the events/sec win attributable to dispatch itself.
    """
    from repro.host.config import AccelOrg, HostProtocol, SystemConfig
    from repro.host.system import build_system
    from repro.coherence.controller import CoherenceController
    from repro.testing.random_tester import RandomTester

    config = SystemConfig(
        host=host or HostProtocol.MESI,
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
    )
    system = build_system(config)
    blocks = [0x1000 + 64 * i for i in range(6)]
    tester = RandomTester(
        system.sim, system.sequencers, blocks,
        ops_target=ops, store_fraction=0.45,
    )
    start = time.perf_counter()
    tester.run()
    elapsed = time.perf_counter() - start

    by_type = {}
    for ctrl in system.controllers():
        row = by_type.setdefault(
            ctrl.CONTROLLER_TYPE,
            {"controllers": 0, "table_entries": 0, "fires": 0, "stalls": 0},
        )
        row["controllers"] += 1
        row["table_entries"] += len(ctrl.transitions)
        row["fires"] += sum(ctrl.coverage.values())
        row["stalls"] += ctrl.stats.get("stalls")
    total_fires = sum(r["fires"] for r in by_type.values())
    return {
        "host": config.host.name.lower(),
        "dispatch_mode": CoherenceController.DISPATCH_MODE,
        "seed": seed,
        "ops": ops,
        "events": system.sim._events_fired,
        "final_tick": system.sim.tick,
        "seconds": elapsed,
        "events_per_sec": system.sim._events_fired / elapsed if elapsed else 0.0,
        "fires_total": total_fires,
        "controllers": {
            ctype: dict(
                row,
                fires_pct=(100.0 * row["fires"] / total_fires
                           if total_fires else 0.0),
            )
            for ctype, row in sorted(by_type.items())
        },
    }


def obs_overhead_report(scale=1, seed=0, repeats=3, stress_ops=1200):
    """The ``BENCH_obs.json`` payload: telemetry cost accounting.

    ``engine`` is the synthetic mix with telemetry off — directly
    comparable to ``BENCH_engine.json`` across versions (the "telemetry
    must cost nothing when off" acceptance number). ``xg_stress`` runs
    the full protocol stack in all three modes and reports the relative
    overheads; event counts are deterministic per seed, so mode rows are
    comparable exactly.
    """
    engine = run_engine_microbench(scale=scale, seed=seed, repeats=repeats)
    modes = {}
    for mode in ("metrics_off", "default", "traced", "fabric", "lineage"):
        modes[mode] = bench_xg_stress(mode=mode, seed=seed, ops=stress_ops,
                                      repeats=repeats)
    default_eps = modes["default"]["events_per_sec"]
    off_eps = modes["metrics_off"]["events_per_sec"]
    traced_eps = modes["traced"]["events_per_sec"]
    fabric_eps = modes["fabric"]["events_per_sec"]
    lineage_eps = modes["lineage"]["events_per_sec"]
    return {
        "bench": "obs_overhead",
        "unit": "events_per_sec",
        "scale": scale,
        "seed": seed,
        "engine_events_per_sec": engine["events_per_sec"],
        "engine": {
            r["workload"]: {
                "events": r["events"],
                "seconds": r["seconds"],
                "events_per_sec": r["events_per_sec"],
            }
            for r in engine["workloads"]
        },
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


def profile_engine(workload="ping_pong", scale=1, seed=0, top=15):
    """cProfile one workload; returns (text report, total events)."""
    fn = ENGINE_WORKLOADS[workload]
    profiler = cProfile.Profile()
    profiler.enable()
    row = fn(seed=seed)
    profiler.disable()
    buf = io.StringIO()
    stats = pstats.Stats(profiler, stream=buf)
    stats.sort_stats("cumulative").print_stats(top)
    return buf.getvalue(), row["events"]


def engine_benchmark_report(scale=1, seed=0, include_campaign=True,
                            workers=None, repeats=3, include_dispatch=True):
    """The ``BENCH_engine.json`` payload: microbench mix + campaign scaling
    + (by default) the per-controller dispatch breakdown."""
    micro = run_engine_microbench(scale=scale, seed=seed, repeats=repeats)
    report = {
        "bench": "engine_throughput",
        "unit": "events_per_sec",
        "scale": scale,
        "seed": seed,
        "events_per_sec": micro["events_per_sec"],
        "events": micro["events"],
        "seconds": micro["seconds"],
        "workloads": {
            r["workload"]: {
                "events": r["events"],
                "messages": r["messages"],
                "final_tick": r["final_tick"],
                "seconds": r["seconds"],
                "events_per_sec": r["events_per_sec"],
            }
            for r in micro["workloads"]
        },
    }
    if include_campaign:
        resolved = workers if workers is not None else min(4, os.cpu_count() or 1)
        # on a single-core host the parallel leg would just repeat serial
        workers_list = (1, resolved) if resolved > 1 else (1,)
        rows = campaign_wallclock(workers_list=workers_list)
        report["campaign"] = {
            "rows": rows,
            "parallel_workers": resolved,
            "speedup": rows[-1]["speedup_vs_serial"],
        }
    if include_dispatch:
        report["dispatch"] = dispatch_breakdown(seed=seed)
    return report
