"""Campaign telemetry fabric: sketches, emitter, collector, equivalence.

The claims under test are the fabric's hard requirements:

* sketch/series folds are **byte-identical regardless of merge order**;
* the emitter never blocks the hot path — a full queue drops the frame
  and counts the drop;
* fabric-on campaigns produce byte-identical merged results to
  fabric-off at every worker count;
* a failed job ships a non-empty flight-recorder payload in
  ``CampaignOutcome.forensics`` across a real process boundary;
* a worker killed mid-job comes back as a ``WorkerLost`` outcome and a
  stale heartbeat marks its shard lost — the campaign never hangs.

All runners are module-level so the job specs stay picklable.
"""

import io
import json
import os
import pickle
import queue
import random
import signal

import pytest

from repro.eval.campaign import CampaignJob, merge_failure_into, run_campaign
from repro.eval.experiments import run_stress_coverage
from repro.eval.report import (
    build_campaign_dashboard,
    format_fabric_summary,
    write_campaign_dashboard,
)
from repro.obs.fabric import (
    DEFAULT_CONFIG,
    FabricCollector,
    FabricEmitter,
    LiveRenderer,
    current_fabric,
    inproc_session,
    live_fabric,
    use_fabric,
    worker_emitter,
)
from repro.obs.recorder import FlightRecorder, format_trace_record
from repro.obs.sketch import CounterSeries, LatencySketch
from repro.sim.component import Component
from repro.sim.message import Message
from repro.sim.simulator import Simulator, progress_hook, set_progress_hook


# -- sketches -------------------------------------------------------------------


def test_latency_sketch_observe_and_stats():
    sketch = LatencySketch(bucket_width=10)
    for value in (5, 15, 25, 95):
        sketch.observe(value)
    assert sketch.count == 4
    assert sketch.total == 140
    assert sketch.min == 5 and sketch.max == 95
    assert sketch.mean == 35.0
    assert sketch.buckets == {0: 1, 1: 1, 2: 1, 9: 1}
    assert 0 < sketch.percentile(0.5) <= 95
    assert sketch.percentile(1.0) == 95


def test_latency_sketch_merge_is_order_free_byte_identical():
    rng = random.Random(7)
    samples = [rng.randrange(0, 500) for _ in range(200)]
    parts = []
    for chunk_start in range(0, 200, 50):
        part = LatencySketch(bucket_width=8)
        for value in samples[chunk_start:chunk_start + 50]:
            part.observe(value)
        parts.append(part)

    forward = LatencySketch(bucket_width=8)
    for part in parts:
        forward.merge(part)
    backward = LatencySketch(bucket_width=8)
    for part in reversed(parts):
        backward.merge(part)
    assert forward.canonical() == backward.canonical()
    assert forward == backward

    whole = LatencySketch(bucket_width=8)
    for value in samples:
        whole.observe(value)
    assert forward.canonical() == whole.canonical()


def test_latency_sketch_width_mismatch_raises():
    with pytest.raises(ValueError, match="width mismatch"):
        LatencySketch(bucket_width=8).merge(LatencySketch(bucket_width=4))
    with pytest.raises(ValueError):
        LatencySketch(bucket_width=0)


def test_latency_sketch_dict_roundtrip_through_json():
    sketch = LatencySketch(bucket_width=5)
    for value in (1, 9, 42):
        sketch.observe(value)
    wire = json.loads(json.dumps(sketch.as_dict()))
    clone = LatencySketch.from_dict(wire)
    assert clone == sketch
    assert clone.buckets == sketch.buckets  # int keys restored


def test_latency_sketch_from_histogram_is_exact():
    from repro.sim.stats import Histogram

    hist = Histogram(8)
    for value in (3, 11, 200):
        hist.observe(value)
    sketch = LatencySketch.from_histogram(hist)
    assert sketch.count == hist.count
    assert sketch.total == hist.total
    assert sketch.buckets == dict(hist.buckets)


def test_counter_series_records_deltas_and_skips_zero():
    series = CounterSeries(bucket_ticks=100)
    series.record(50, "events", 10)
    series.record(150, "events", 5)
    series.record(170, "events", 0)  # zero deltas don't allocate
    series.record(170, "coverage", 2)
    assert series.series == {"events": {0: 10, 1: 5}, "coverage": {1: 2}}
    assert series.total("events") == 15
    assert series.total("missing") == 0


def test_counter_series_merge_order_free_and_mismatch_raises():
    def build(entries):
        series = CounterSeries(bucket_ticks=100)
        for tick, name, delta in entries:
            series.record(tick, name, delta)
        return series

    a = build([(10, "x", 3), (120, "y", 1)])
    b = build([(30, "x", 4), (350, "x", 2)])
    ab = build([]).merge(a).merge(b)
    ba = build([]).merge(b).merge(a)
    assert ab.canonical() == ba.canonical()
    assert ab.total("x") == 9

    clone = CounterSeries.from_dict(json.loads(json.dumps(ab.as_dict())))
    assert clone == ab
    with pytest.raises(ValueError, match="bucket mismatch"):
        a.merge(CounterSeries(bucket_ticks=50))


# -- flight recorder -----------------------------------------------------------


class _Lazy(Component):
    PORTS = ("inbox",)

    def wakeup(self):
        pass  # never consumes: guaranteed final-check deadlock


def test_flight_recorder_ring_is_bounded():
    recorder = FlightRecorder(frame_capacity=4, tail=2)
    for index in range(10):
        recorder.record_frame({"kind": "progress", "n": index})
    assert len(recorder) == 4
    assert recorder.frames_seen == 10
    snap = recorder.snapshot(error="boom")
    assert snap["error"] == "boom"
    assert [f["n"] for f in snap["frames"]] == [6, 7, 8, 9]
    assert snap["frames_seen"] == 10


def test_flight_recorder_snapshot_with_sim_tail_and_pickle():
    from repro.obs import Telemetry

    sim = Simulator(trace_depth=16)
    Telemetry(sim)
    lazy = _Lazy(sim, "lazy")
    msg = Message("m", 0x40, dest="lazy", sender="cpu")
    lazy.deliver("inbox", 1, msg)
    sim.record_trace("accel", msg, note="probe")
    sim.obs.record_transition(1, "lazy", "test", "I", "Load")
    sim.run(final_check=False)

    recorder = FlightRecorder(frame_capacity=8, tail=4)
    recorder.record_frame({"kind": "heartbeat"})
    snap = recorder.snapshot(sim=sim, error="wedged")
    assert snap["tick"] == sim.tick
    assert snap["trace"], "trace tail must be captured"
    assert all(isinstance(line, str) for line in snap["trace"])
    assert snap["transitions"] == ["t=1 lazy [test]: I/Load"]
    clone = pickle.loads(pickle.dumps(snap))
    assert clone == snap


def test_flight_recorder_notes_disabled_trace():
    sim = Simulator(trace_depth=0)
    snap = FlightRecorder().snapshot(sim=sim)
    assert snap["trace"] == []
    assert "trace_note" in snap


def test_format_trace_record():
    line = format_trace_record((7, "accel", "GetM", 0x80, "a", "b", "dup"))
    assert line == "t=7 accel: GetM 0x80 a->b [dup]"


# -- emitter -------------------------------------------------------------------


def test_emitter_drops_on_full_queue_never_raises():
    sink = queue.Queue(maxsize=2)
    emitter = FabricEmitter(sink.put_nowait, worker_id=9)
    emitter.job_started(0, "a")
    emitter.job_finished(0, "a", ok=True)
    assert emitter.frames_sent == 2 and emitter.dropped == 0
    emitter.job_started(1, "b")  # queue full: dropped, not raised
    emitter.job_started(2, "c")
    assert emitter.dropped == 2
    assert emitter.recorder.frames_seen == 4  # ring still saw everything
    sink.get_nowait()
    emitter.job_finished(2, "c", ok=True)
    frame = sink.queue[-1]
    assert frame["dropped"] == 2, "drop count rides the next frame through"


def test_emitter_job_finished_frame_carries_sketches_and_series():
    frames = []
    emitter = FabricEmitter(frames.append, worker_id=1,
                            config={"min_emit_interval": 0.0})
    emitter.job_started(0, "job")

    sim = Simulator()
    sim.schedule(10, lambda: None)
    sim.run()
    emitter.on_progress(sim, final=True)
    emitter.job_finished(0, "job", ok=True)

    done = frames[-1]
    assert done["kind"] == "job_finished" and done["ok"] is True
    assert done["events_fired"] == sim._events_fired
    assert "job_ms" in done["sketches"]
    assert LatencySketch.from_dict(done["sketches"]["job_ms"]).count == 1
    series = CounterSeries.from_dict(done["series"])
    assert series.total("events_fired") == sim._events_fired
    # cumulative payloads reset between jobs: contributions stay disjoint
    emitter.job_started(1, "job2")
    emitter.job_finished(1, "job2", ok=True)
    assert LatencySketch.from_dict(
        frames[-1]["sketches"]["job_ms"]).count == 1


def test_emitter_failure_forensics_carries_flight_recorder():
    emitter = FabricEmitter(lambda frame: None, worker_id=1)
    emitter.job_started(0, "x")
    payload = emitter.failure_forensics(
        invariant={"kind": "inclusion"}, exc=ValueError("bad")
    )
    assert payload["invariant"] == {"kind": "inclusion"}
    recorder = payload["flight_recorder"]
    assert recorder["error"] == "bad"
    assert recorder["frames"], "recent frames ride along"


# -- collector -----------------------------------------------------------------


class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_collector_aggregates_frames_and_detects_stale_worker():
    clock = _FakeClock()
    collector = FabricCollector(stall_after=5.0, clock=clock)
    collector.jobs_total = 2
    collector.handle({"kind": "job_started", "worker": 1, "job": 0,
                      "label": "a", "dropped": 0})
    collector.handle({"kind": "job_started", "worker": 2, "job": 1,
                      "label": "b", "dropped": 0})
    collector.handle({"kind": "progress", "worker": 1, "job": 0, "label": "a",
                      "tick": 500, "events_fired": 100,
                      "events_per_sec": 50.0, "dropped": 0})
    clock.now = 2.0
    collector.handle({
        "kind": "job_finished", "worker": 1, "job": 0, "label": "a",
        "ok": True, "error_type": "", "seconds": 2.0, "jobs_done": 1,
        "events_fired": 100, "final_tick": 900, "coverage_visited": 7,
        "sketches": {"job_ms": LatencySketch(50).as_dict()},
        "series": CounterSeries(5000).as_dict(), "dropped": 3,
    })
    snap = collector.snapshot()
    assert snap["jobs_done"] == 1 and snap["jobs_running"] == 1
    assert snap["coverage_visited"] == 7
    assert snap["frames_dropped"] == 3
    assert not any(w["stalled"] for w in snap["workers"])

    # both workers are now past the stall threshold; only worker 2 still
    # had a running shard, so exactly one job is marked lost
    clock.now = 9.0
    assert 2 in collector.mark_stale()
    snap = collector.snapshot()
    stalled = {w["id"]: w["stalled"] for w in snap["workers"]}
    assert stalled[2] is True
    assert collector.jobs[1]["status"] == "lost"
    assert snap["jobs_lost"] == 1 and snap["jobs_running"] == 0
    forensics = collector.lost_forensics(1)
    assert forensics["flight_recorder"]["job"]["status"] == "lost"


def test_collector_job_lost_is_idempotent_and_skips_finished():
    collector = FabricCollector(clock=_FakeClock())
    collector.handle({"kind": "job_started", "worker": 1, "job": 0,
                      "label": "a", "dropped": 0})
    collector.job_lost(0, "a", error="gone")
    collector.job_lost(0, "a", error="gone again")
    assert collector.jobs_lost == 1
    collector.handle({
        "kind": "job_finished", "worker": 1, "job": 5, "label": "z",
        "ok": True, "error_type": "", "seconds": 0.1, "jobs_done": 2,
        "dropped": 0,
    })
    collector.job_lost(5, "z")
    assert collector.jobs_lost == 1, "a finished job can't be lost"


def test_collector_begin_twice_raises_and_finish_idempotent():
    collector = FabricCollector()
    collector.begin(1, multiprocess=False)
    with pytest.raises(RuntimeError, match="begin without finish"):
        collector.begin(1, multiprocess=False)
    collector.finish()
    collector.finish()  # no-op
    collector.begin(1, multiprocess=False)
    collector.finish()


# -- ambient context / in-process session ---------------------------------------


def test_use_fabric_installs_and_restores():
    collector = FabricCollector()
    assert current_fabric() is None
    with use_fabric(collector):
        assert current_fabric() is collector
    assert current_fabric() is None


def test_inproc_session_installs_hook_and_restores():
    collector = FabricCollector()
    assert worker_emitter() is None and progress_hook() is None
    with inproc_session(collector, label="one"):
        assert worker_emitter() is not None
        assert progress_hook() is not None
        sim = Simulator()
        assert len(sim.monitors) == 1, "new sims get the progress monitor"
        sim.schedule(1, lambda: None)
        sim.run()
    assert worker_emitter() is None and progress_hook() is None
    assert Simulator().monitors == []
    summary = collector.summary()
    assert summary["jobs_done"] == 1
    assert "job_ms" in summary["sketches"]


# -- campaign equivalence (the hard requirement) --------------------------------


def _stress_kwargs():
    return dict(seeds=range(1), ops_per_run=200, num_blocks=3)


def test_fabric_on_campaign_byte_identical_serial():
    baseline = run_stress_coverage(workers=1, **_stress_kwargs())
    collector = FabricCollector()
    with use_fabric(collector):
        fabric_on = run_stress_coverage(workers=1, **_stress_kwargs())
    assert json.dumps(baseline, sort_keys=True) == json.dumps(
        fabric_on, sort_keys=True)
    assert collector.summary()["jobs_done"] == len(baseline["runs"])


def test_fabric_on_campaign_byte_identical_parallel():
    baseline = run_stress_coverage(workers=1, **_stress_kwargs())
    collector = FabricCollector()
    fabric_on = None
    with use_fabric(collector):
        fabric_on = run_stress_coverage(workers=4, **_stress_kwargs())
    assert json.dumps(baseline, sort_keys=True) == json.dumps(
        fabric_on, sort_keys=True)
    summary = collector.summary()
    assert summary["jobs_done"] == len(baseline["runs"])
    assert summary["jobs_lost"] == 0
    assert summary["frames_seen"] >= 2 * len(baseline["runs"])


def test_fabric_on_telemetry_matrix_identical():
    kwargs = dict(seeds=range(1), ops_per_run=200, num_blocks=3,
                  telemetry=True)
    baseline = run_stress_coverage(workers=1, **kwargs)
    with use_fabric(FabricCollector()):
        fabric_on = run_stress_coverage(workers=2, **kwargs)
    from repro.obs import render_matrix

    assert render_matrix(baseline["matrix"]) == render_matrix(
        fabric_on["matrix"])
    assert baseline["runs"] == fabric_on["runs"]


# -- failure forensics across the process boundary ------------------------------


def _wedge(trace_depth):
    """Deliberately deadlock a tiny simulator (message never consumed)."""
    sim = Simulator(trace_depth=trace_depth)
    lazy = _Lazy(sim, "lazy")
    lazy.deliver("inbox", 1, Message("m", 0, dest="lazy"))
    sim.run()


def _boom(msg):
    raise ValueError(msg)


def test_failed_job_ships_flight_recorder_across_pool():
    jobs = [
        CampaignJob(runner=_wedge, args=(16,), label="wedge"),
        CampaignJob(runner=_boom, args=("kaput",), label="boom"),
    ]
    for workers in (1, 2):
        collector = FabricCollector()
        outcomes = run_campaign(jobs, workers=workers, fabric=collector)
        wedge, boom = outcomes
        assert not wedge.ok and wedge.deadlocked
        recorder = wedge.forensics["flight_recorder"]
        assert recorder["frames"], "job_started frame must be recorded"
        assert recorder["error"], "DeadlockError text rides along"
        assert not boom.ok
        assert boom.forensics["flight_recorder"]["error"] == "kaput"
        # the payload crossed a real pipe when workers > 1; either way it
        # must survive another pickle round-trip
        assert pickle.loads(pickle.dumps(wedge.forensics)) == wedge.forensics
        assert collector.summary()["jobs_failed"] == 2


def test_merge_failure_into_ignores_forensics():
    collector = FabricCollector()
    outcome = run_campaign(
        [CampaignJob(runner=_boom, args=("x",), label="only")],
        workers=1, fabric=collector,
    )[0]
    assert outcome.forensics is not None
    row = merge_failure_into({"config": "c", "seed": 4}, outcome)
    assert row["crash_detail"] == "ValueError: x"
    assert "forensics" not in row, "merged rows stay fabric-independent"


def _die(code):
    os.kill(os.getpid(), signal.SIGKILL)


def _square(x):
    return x * x


def test_worker_killed_mid_job_yields_lost_shard_not_hang():
    jobs = [
        CampaignJob(runner=_square, args=(2,), label="ok"),
        CampaignJob(runner=_die, args=(0,), label="victim"),
        CampaignJob(runner=_square, args=(3,), label="after"),
    ]
    collector = FabricCollector()
    outcomes = run_campaign(jobs, workers=2, fabric=collector)
    assert len(outcomes) == 3
    lost = [o for o in outcomes if o.error_type == "WorkerLost"]
    assert lost, "the killed worker's shard must surface as WorkerLost"
    for outcome in lost:
        assert not outcome.ok
        assert outcome.forensics["flight_recorder"]["error"]
    assert collector.summary()["jobs_lost"] >= 1


# -- renderer -------------------------------------------------------------------


def _snapshot(**overrides):
    snap = {
        "jobs_total": 4, "jobs_done": 2, "jobs_failed": 1, "jobs_lost": 1,
        "jobs_running": 1, "coverage_visited": 42, "frames_seen": 10,
        "frames_dropped": 2, "elapsed": 3.5, "events_per_sec": 1500.0,
        "workers": [
            {"id": 1, "label": "mesi/seed0", "events_per_sec": 1500.0,
             "tick": 900, "jobs_done": 2, "heartbeat_age": 0.4,
             "dropped": 0, "stalled": False},
            {"id": 2, "label": "", "events_per_sec": 0.0, "tick": 0,
             "jobs_done": 0, "heartbeat_age": 11.0, "dropped": 2,
             "stalled": True},
        ],
    }
    snap.update(overrides)
    return snap


def test_renderer_plain_mode_appends_lines():
    stream = io.StringIO()
    renderer = LiveRenderer(stream=stream, interval=0.1, mode="plain")
    renderer.render(_snapshot())
    renderer.render(_snapshot(jobs_done=3))
    renderer.close()
    out = stream.getvalue()
    assert "\x1b[" not in out, "plain mode never emits ANSI"
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert "jobs 2/4" in lines[0] and "jobs 3/4" in lines[1]
    assert "1 failed" in lines[0] and "1 LOST" in lines[0]
    assert "(1 stalled)" in lines[0]
    assert "2 frames dropped" in lines[0]


def test_renderer_tty_mode_redraws_in_place():
    stream = io.StringIO()
    renderer = LiveRenderer(stream=stream, interval=0.1, mode="tty")
    renderer.render(_snapshot())
    renderer.render(_snapshot(jobs_done=3))
    renderer.close()
    out = stream.getvalue()
    assert "\x1b[3F\x1b[J" in out, "second render rewinds the drawn block"
    assert "STALLED" in out
    assert "mesi/seed0" in out


def test_renderer_auto_detects_non_tty_as_plain():
    renderer = LiveRenderer(stream=io.StringIO(), interval=1.0)
    assert renderer.mode == "plain"

    class _Tty(io.StringIO):
        def isatty(self):
            return True

    assert LiveRenderer(stream=_Tty(), interval=1.0).mode == "tty"
    with pytest.raises(ValueError, match="unknown renderer mode"):
        LiveRenderer(stream=io.StringIO(), mode="fancy")


def test_live_fabric_off_is_a_noop():
    with live_fabric(live=False) as fabric:
        assert fabric is None
    assert current_fabric() is None


def test_live_fabric_renders_final_snapshot():
    stream = io.StringIO()
    with live_fabric(live=True, interval=5.0, stream=stream,
                     force_mode="plain") as fabric:
        assert current_fabric() is fabric
        run_campaign(
            [CampaignJob(runner=_square, args=(4,), label="sq")], workers=1
        )
    assert "jobs 1/1" in stream.getvalue(), "finish() renders a final line"


# -- report / dashboard ---------------------------------------------------------


def _collector_with_traffic():
    collector = FabricCollector(clock=_FakeClock())
    collector.jobs_total = 1
    collector.handle({"kind": "job_started", "worker": 3, "job": 0,
                      "label": "a", "dropped": 0})
    sketch = LatencySketch(50)
    sketch.observe(120)
    collector.handle({
        "kind": "job_finished", "worker": 3, "job": 0, "label": "a",
        "ok": True, "error_type": "", "seconds": 0.12, "jobs_done": 1,
        "events_fired": 10, "final_tick": 20, "coverage_visited": 5,
        "sketches": {"job_ms": sketch.as_dict()},
        "series": CounterSeries(5000).as_dict(), "dropped": 0,
    })
    return collector


def test_format_fabric_summary_shows_workers_and_sketches():
    text = format_fabric_summary(_collector_with_traffic().summary())
    assert "jobs: 1/1 done" in text
    assert "w3" in text
    assert "job_ms" in text
    assert "p99" in text


def test_campaign_dashboard_folds_bench_history(tmp_path):
    bench = tmp_path / "BENCH_alloc.json"
    bench.write_text(json.dumps({"bench": "alloc_steady_state", "worst_net_blocks_per_event": 0}))
    (tmp_path / "BENCH_bad.json").write_text("{nope")
    summary = _collector_with_traffic().summary()
    payload = build_campaign_dashboard(summary, bench_dir=str(tmp_path))
    assert payload["schema"] == "repro.campaign_dash/1"
    assert payload["bench"]["BENCH_alloc"]["worst_net_blocks_per_event"] == 0
    assert "error" in payload["bench"]["BENCH_bad"]
    out = tmp_path / "campaign_dash.json"
    write_campaign_dashboard(str(out), summary, bench_dir=str(tmp_path))
    loaded = json.loads(out.read_text())
    assert loaded["fabric"]["jobs_done"] == 1


# -- progress monitor digest-neutrality ----------------------------------------


def test_progress_hook_does_not_change_golden_digests():
    from repro.host.config import HostProtocol
    from repro.testing.golden import golden_run

    baseline = golden_run("stress", HostProtocol.MESI, seed=3, ops=120)
    collector = FabricCollector()
    with inproc_session(collector, label="golden"):
        hooked = golden_run("stress", HostProtocol.MESI, seed=3, ops=120)
    assert baseline == hooked, (
        "attaching the fabric progress monitor must not perturb runs"
    )
    assert set_progress_hook is not None  # hook API stays importable
