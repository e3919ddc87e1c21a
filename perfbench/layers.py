"""Tracing for the benchmark's traced run: spans, cProfile buckets, per-layer metrics.

Spans are recorded in the benchmark's own code around its calls into the
program (``build_system``, ``tester.run``, ``collect_coverage``,
``run_campaign``, ``run_one``, ``explore_cell`` and each explorer BFS
level). The profile's per-function self time is bucketed by repro module,
with the standard library and builtins as a bucket of their own.
"""

import cProfile
import os
import pstats
import time
from contextlib import contextmanager, nullcontext

#: Per-layer metrics as (name, unit, better). For simulated counts the
#: direction is nominal: they only move when the model itself changes.
PER_LAYER = (
    ("sim.events", "count", "lower"),
    ("sim.network.messages", "count", "lower"),
    ("sim.faults.injected", "count", "higher"),
    ("sim.event.self_pct", "%", "lower"),
    ("sim.simulator.self_pct", "%", "lower"),
    ("sim.network.self_pct", "%", "lower"),
    ("sim.component.self_pct", "%", "lower"),
    ("sim.message.self_pct", "%", "lower"),
    ("sim.stats.self_pct", "%", "lower"),
    ("sim.other.self_pct", "%", "lower"),
    ("memory.self_pct", "%", "lower"),
    ("coherence.fires", "count", "lower"),
    ("coherence.stalls", "count", "lower"),
    ("coherence.stalls_per_fire", "ratio", "lower"),
    ("coherence.controller.self_pct", "%", "lower"),
    ("coherence.tbe.self_pct", "%", "lower"),
    ("coherence.other.self_pct", "%", "lower"),
    ("protocols.mesi.self_pct", "%", "lower"),
    ("protocols.mesif.self_pct", "%", "lower"),
    ("protocols.hammer.self_pct", "%", "lower"),
    ("protocols.common.self_pct", "%", "lower"),
    ("xg.accel_requests", "count", "lower"),
    ("xg.host_msgs", "count", "lower"),
    ("xg.probes_forwarded", "count", "lower"),
    ("xg.violations", "count", "lower"),
    ("xg.probe_retries", "count", "lower"),
    ("xg.rate_limited", "count", "lower"),
    ("xg.malformed_rejected", "count", "lower"),
    ("xg.self_pct", "%", "lower"),
    ("accel.l1_hit_ratio", "ratio", "higher"),
    ("accel.adversary_msgs", "count", "higher"),
    ("accel.self_pct", "%", "lower"),
    ("host.ops", "count", "higher"),
    ("host.accel_op_ticks_mean", "ticks", "lower"),
    ("host.builds", "count", "lower"),
    ("host.build_s", "s", "lower"),
    ("host.self_pct", "%", "lower"),
    ("workloads.self_pct", "%", "lower"),
    ("testing.loads_checked", "count", "higher"),
    ("testing.watchdog_checks", "count", "higher"),
    ("testing.self_pct", "%", "lower"),
    ("obs.spans_closed", "count", "higher"),
    ("obs.spans_orphaned", "count", "lower"),
    ("obs.transitions_recorded", "count", "higher"),
    ("obs.fabric_frames", "count", "higher"),
    ("obs.fabric_dropped", "count", "lower"),
    ("obs.finalize_s", "s", "lower"),
    ("obs.self_pct", "%", "lower"),
    ("eval.campaign.jobs", "count", "higher"),
    ("eval.campaign.efficiency", "ratio", "higher"),
    ("eval.campaign.jobs_lost", "count", "lower"),
    ("eval.self_pct", "%", "lower"),
    ("verify.explorer.states", "count", "lower"),
    ("verify.explorer.transitions", "count", "lower"),
    ("verify.explorer.depth", "count", "lower"),
    ("verify.explorer.states_per_s", "1/s", "higher"),
    ("verify.explorer.builds_per_state", "ratio", "lower"),
    ("verify.explorer.hash_pct", "%", "lower"),
    ("verify.explorer.replay_pct", "%", "lower"),
    ("verify.explorer.check_pct", "%", "lower"),
    ("verify.self_pct", "%", "lower"),
    ("other.self_pct", "%", "lower"),
    ("bench.self_pct", "%", "lower"),
    ("stdlib.self_pct", "%", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.profiled_wall_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
)

#: repro module prefix -> self-time bucket; the longest matching prefix wins.
MODULE_BUCKETS = {
    "repro.sim.event": "sim.event",
    "repro.sim.simulator": "sim.simulator",
    "repro.sim.network": "sim.network",
    "repro.sim.component": "sim.component",
    "repro.sim.message": "sim.message",
    "repro.sim.stats": "sim.stats",
    "repro.sim": "sim.other",
    "repro.memory": "memory",
    "repro.coherence.controller": "coherence.controller",
    "repro.coherence.tbe": "coherence.tbe",
    "repro.coherence": "coherence.other",
    "repro.protocols.mesi": "protocols.mesi",
    "repro.protocols.mesif": "protocols.mesif",
    "repro.protocols.hammer": "protocols.hammer",
    "repro.protocols": "protocols.common",
    "repro.xg": "xg",
    "repro.accel": "accel",
    "repro.host": "host",
    "repro.workloads": "workloads",
    "repro.testing": "testing",
    "repro.obs": "obs",
    "repro.eval": "eval",
    "repro.verify": "verify",
    "repro": "other",
}

#: Functions whose call counts and cumulative times feed per-layer metrics,
#: keyed by (path suffix, function name).
WATCHED = {
    ("repro/host/system.py", "build_system"): "build_system",
    ("repro/obs/spans.py", "finalize"): "finalize",
    ("repro/verify/explorer.py", "explore_cell"): "explore_cell",
    ("repro/verify/explorer.py", "digest"): "digest",
    ("repro/verify/explorer.py", "replay_path"): "replay_path",
    ("repro/verify/explorer.py", "state_problems"): "state_problems",
}

_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def bucket_of(filename):
    """Self-time bucket for a profiled code location."""
    path = filename.replace(os.sep, "/")
    if os.path.abspath(filename).startswith(_BENCH_DIR):
        return "bench"
    marker = path.rfind("/repro/")
    if marker < 0:
        return "stdlib"
    module = path[marker + 1:].rsplit(".", 1)[0].replace("/", ".")
    if module.endswith(".__init__"):
        module = module[: -len(".__init__")]
    parts = module.split(".")
    for end in range(len(parts), 0, -1):
        bucket = MODULE_BUCKETS.get(".".join(parts[:end]))
        if bucket is not None:
            return bucket
    return "stdlib"


def fold_profile(profile):
    """Reduce a cProfile to plain data: self seconds per bucket, watched calls."""
    selfs = {}
    watched = {}
    for (filename, _line, func), (_cc, ncalls, tottime, cumtime, _callers) in (
            pstats.Stats(profile).stats.items()):
        bucket = bucket_of(filename)
        selfs[bucket] = selfs.get(bucket, 0.0) + tottime
        for (suffix, name), key in WATCHED.items():
            if func == name and filename.replace(os.sep, "/").endswith(suffix):
                calls, cum = watched.get(key, (0, 0.0))
                watched[key] = (calls + ncalls, cum + cumtime)
    return {"self": selfs, "watched": watched}


def merge_folded(into, folded):
    for bucket, seconds in folded["self"].items():
        into["self"][bucket] = into["self"].get(bucket, 0.0) + seconds
    for key, (calls, cum) in folded["watched"].items():
        old_calls, old_cum = into["watched"].get(key, (0, 0.0))
        into["watched"][key] = (old_calls + calls, old_cum + cum)


@contextmanager
def profiled(enabled):
    """Run the body under cProfile when ``enabled``; yields the folded profile.

    The yielded dict is filled in when the body exits.
    """
    folded = {"self": {}, "watched": {}}
    if not enabled:
        yield None
        return
    profile = cProfile.Profile()
    profile.enable()
    try:
        yield folded
    finally:
        profile.disable()
        merge_folded(folded, fold_profile(profile))


class Tracer:
    """Spans recorded by the benchmark around its calls, plus an optional profile.

    A span is ``(name, start, end, depth, lane)``. Spans that pool workers
    recorded arrive on the ``worker`` lane, so self time only subtracts
    children recorded in the same process.
    """

    def __init__(self, profile=False):
        self.profile = profile
        self.spans = []
        self._depth = 0
        self.folded = {"self": {}, "watched": {}}

    @contextmanager
    def span(self, name):
        start = time.perf_counter()
        self._depth += 1
        try:
            yield
        finally:
            self._depth -= 1
            self.spans.append((name, start, time.perf_counter(), self._depth, "main"))

    def add_span(self, name, start, end, depth=None, lane="main"):
        self.spans.append((name, start, end, self._depth if depth is None else depth, lane))

    def level_callback(self):
        """An ``explore_cell`` progress callback that spans each BFS level."""
        last = [time.perf_counter()]

        def progress(_depth, _states, _frontier):
            now = time.perf_counter()
            self.add_span("explore.bfs_level", last[0], now)
            last[0] = now

        return progress

    def span_table(self):
        """name -> [count, total s, self s]; self excludes nested spans."""
        table = {}
        ordered = sorted(self.spans, key=lambda s: (s[4], s[1], s[3]))
        for index, (name, start, end, depth, lane) in enumerate(ordered):
            child = 0.0
            for other in ordered[index + 1:]:
                if other[4] != lane or other[1] >= end:
                    break
                if other[3] == depth + 1 and other[2] <= end:
                    child += other[2] - other[1]
            row = table.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child
        return table

    def total(self, name):
        return sum(span[2] - span[1] for span in self.spans if span[0] == name)


class _NullTracer:
    """Tracing off: spans cost one call, nothing is recorded or profiled."""

    profile = False

    def span(self, _name):
        return nullcontext()

    def level_callback(self):
        return None


NULL_TRACER = _NullTracer()


def _sum_counts(sims):
    totals = {}
    for sim in sims:
        for key, value in sim.counts.items():
            totals[key] = totals.get(key, 0) + value
    return totals


def _ratio(num, den):
    if num is None or not den:
        return None
    return num / den


def per_layer(spanned, profiled_rounds, span_tracer, profile_tracer):
    """Every per-layer metric from one spanned pass and one profiled pass.

    A value is None where its layer is idle on the workload.
    """
    sims = [sim for rnd in spanned for sim in rnd.sims]
    counts = _sum_counts(sims)
    folded = profile_tracer.folded
    self_total = sum(folded["self"].values()) or 1.0
    watched = folded["watched"]
    # host seconds of the spanned pass per host second of the profiled pass:
    # scales profiled cumulative times back to unprofiled seconds
    spanned_ms = sum(sim.ms for sim in sims)
    profiled_ms = sum(sim.ms for rnd in profiled_rounds for sim in rnd.sims)
    scale = _ratio(spanned_ms, profiled_ms)

    def watched_s(key):
        if key not in watched or scale is None:
            return None
        return watched[key][1] * scale

    def watched_pct(key, of):
        if key not in watched or of not in watched:
            return None
        return 100.0 * watched[key][1] / watched[of][1]

    values = {name: counts.get(name) for name, _u, _b in PER_LAYER}
    for bucket in set(MODULE_BUCKETS.values()) | {"bench", "stdlib"}:
        values[f"{bucket}.self_pct"] = 100.0 * folded["self"].get(bucket, 0.0) / self_total
    values["coherence.stalls_per_fire"] = _ratio(counts.get("coherence.stalls"),
                                                 counts.get("coherence.fires"))
    hits, misses = counts.get("accel.l1_hits"), counts.get("accel.l1_misses")
    values["accel.l1_hit_ratio"] = (None if hits is None
                                    else _ratio(hits, hits + misses))
    values["host.accel_op_ticks_mean"] = _ratio(counts.get("host.accel_op_ticks"),
                                                counts.get("host.accel_ops"))
    values["host.builds"] = watched.get("build_system", (None,))[0]
    values["host.build_s"] = watched_s("build_system")
    values["obs.finalize_s"] = watched_s("finalize")
    extras = [rnd.extra for rnd in spanned if rnd.extra]
    if any("campaign_jobs" in extra for extra in extras):
        jobs = sum(extra["campaign_jobs"] for extra in extras)
        busy = sum(extra["campaign_busy_s"] for extra in extras)
        capacity = sum(extra["campaign_wall_s"] * extra["workers"] for extra in extras)
        values["eval.campaign.jobs"] = jobs
        values["eval.campaign.efficiency"] = _ratio(busy, capacity)
        values["eval.campaign.jobs_lost"] = sum(extra["jobs_lost"] for extra in extras)
        values["obs.fabric_frames"] = sum(extra["fabric_frames"] for extra in extras)
        values["obs.fabric_dropped"] = sum(extra["fabric_dropped"] for extra in extras)
    states = counts.get("verify.explorer.states")
    if states:
        values["verify.explorer.states_per_s"] = _ratio(
            states, span_tracer.total("explore_cell"))
        values["verify.explorer.builds_per_state"] = _ratio(values["host.builds"], states)
        values["verify.explorer.hash_pct"] = watched_pct("digest", "explore_cell")
        values["verify.explorer.replay_pct"] = watched_pct("replay_path", "explore_cell")
        values["verify.explorer.check_pct"] = watched_pct("state_problems", "explore_cell")
    values["trace.wall_s"] = sum(rnd.wall for rnd in spanned)
    values["trace.profiled_wall_s"] = sum(rnd.wall for rnd in profiled_rounds)
    # per-simulation host time, so it holds where the profiled pass runs in parallel
    values["trace.overhead"] = _ratio(profiled_ms, spanned_ms)
    return values


def format_table(values, workload):
    """Every per-layer metric; n/a where the layer did no work on this workload."""
    lines = [f"per-layer metrics ({workload}; n/a = layer idle on this workload):"]
    for name, unit, better in PER_LAYER:
        value = values.get(name)
        if value is None or (name.endswith("_pct") and value == 0.0):
            shown = "n/a"
        elif isinstance(value, float):
            shown = f"{value:.4g}"
        else:
            shown = str(value)
        lines.append(f"  {name:<36} {shown:>14} {unit:<6} ({better} is better)")
    return "\n".join(lines)


def format_spans(tracer):
    lines = ["benchmark spans (count, total s, self s):"]
    for name, (count, total, own) in sorted(tracer.span_table().items()):
        lines.append(f"  {name:<24} {count:>7} {total:>10.3f} {own:>10.3f}")
    return "\n".join(lines)
