"""Cross-process campaign telemetry fabric: live progress without perturbation.

A parallel campaign (:func:`repro.eval.campaign.run_campaign`) fans
independent simulations over a process pool and, until this module,
nothing was visible until the submission-order merge barrier finished.
The fabric makes the campaign observable while it runs:

* **workers** emit compact structured *frames* — job started/finished,
  periodic progress (tick, events/sec, coverage growth, open spans),
  heartbeats — through a bounded ``multiprocessing`` queue via a
  :class:`FabricEmitter` that **never blocks**: a full queue drops the
  frame and counts the drop;
* a **collector thread** in the parent (:class:`FabricCollector`) drains
  frames into mergeable aggregates — :class:`~repro.sim.stats.Histogram`
  and :class:`~repro.obs.sketch.CounterSeries` fold byte-identically
  regardless of arrival order — plus per-worker liveness state
  (heartbeat age drives straggler/stalled-shard detection);
* a **live renderer** (:class:`LiveRenderer`) shows per-worker
  throughput, job progress, and heartbeat ages on a TTY, degrading to
  periodic plain-text lines on CI logs;
* each worker keeps a :class:`~repro.obs.recorder.FlightRecorder` ring;
  a failed job ships its black box in ``CampaignOutcome.forensics``.

The hard contract: the fabric must not change merged campaign results.
Worker-side progress sampling rides the simulator's out-of-band monitor
mechanism (no events, no stats, no RNG — the invariant-watchdog
guarantee), frames carry only telemetry, and the collector aggregates
outside the result path entirely. Fabric-on and fabric-off campaigns are
byte-identical; the equivalence tests assert it.
"""

import os
import queue as queue_mod
import sys
import threading
import time
from contextlib import contextmanager

from repro.obs.recorder import FlightRecorder
from repro.obs.sketch import CounterSeries
from repro.obs.spans import sample_counters
from repro.sim import simulator as _simulator
from repro.sim.stats import Histogram

#: Fabric tuning knobs shipped to every worker (plain dict: it crosses
#: the process boundary through the pool initializer).
DEFAULT_CONFIG = {
    "progress_interval_ticks": 5000,   # monitor period inside each sim
    "min_emit_interval": 0.05,         # wall seconds between progress frames
    "heartbeat_interval": 0.5,         # wall seconds: max silence before a
                                       # suppressed progress turns into a
                                       # lightweight heartbeat frame
    "sketch_bucket_width": 8,          # ticks, for span-latency sketches
    "job_ms_bucket_width": 50,         # milliseconds, for job wall-clock
    "series_bucket_ticks": 5000,       # CounterSeries tick bucketing
    "recorder_frames": 256,            # flight-recorder frame ring
    "recorder_tail": 64,               # trace/transition tail length
    "forensics_all": False,            # keep FlightRecorder snapshots for
                                       # successful jobs too (--forensics-all;
                                       # bounded per job, off by default)
}

#: Queue capacity: deep enough that drops only happen when the collector
#: genuinely cannot keep up, small enough to bound parent memory.
QUEUE_CAPACITY = 10_000

#: Heartbeat age (seconds) after which a worker counts as stalled and its
#: running shard is marked lost by :meth:`FabricCollector.mark_stale`.
DEFAULT_STALL_AFTER = 10.0


# -- worker side ----------------------------------------------------------------

_WORKER_EMITTER = None


def worker_emitter():
    """This process's :class:`FabricEmitter`, or None (fabric off)."""
    return _WORKER_EMITTER


def _progress_callback(sim, final):
    emitter = _WORKER_EMITTER
    if emitter is not None:
        emitter.on_progress(sim, final)


def init_fabric_worker(frame_queue, config):
    """Process-pool initializer: install the emitter + progress hook.

    Runs once per worker process. ``frame_queue`` is the collector's
    bounded queue (picklable through the pool's process-creation path);
    ``config`` is a plain dict of fabric knobs.
    """
    global _WORKER_EMITTER
    _WORKER_EMITTER = FabricEmitter(
        frame_queue.put_nowait, worker_id=os.getpid(), config=config
    )
    _simulator.set_progress_hook(
        _progress_callback, interval=config["progress_interval_ticks"]
    )


@contextmanager
def inproc_worker(collector):
    """Run the worker-side fabric in this process (``workers=1`` path).

    Installs an emitter feeding the collector's queue plus the progress
    hook, exactly like the pool initializer, and restores the previous
    state on exit so in-process campaigns never leak hooks into later
    simulations (golden runs in the same test process, say).
    """
    global _WORKER_EMITTER
    prev_emitter = _WORKER_EMITTER
    prev_hook = _simulator.progress_hook()
    init_fabric_worker(collector.queue, collector.config)
    try:
        yield _WORKER_EMITTER
    finally:
        _WORKER_EMITTER = prev_emitter
        if prev_hook is None:
            _simulator.set_progress_hook(None)
        else:
            _simulator.set_progress_hook(prev_hook[0], interval=prev_hook[1])


class FabricEmitter:
    """Worker-side frame source: bounded, non-blocking, self-accounting.

    ``send`` is any callable that may raise :class:`queue.Full`; the
    emitter converts that into a dropped-frame count carried on the next
    frame that does get through — the simulation hot path never blocks on
    a backed-up collector.
    """

    def __init__(self, send, worker_id, config=None):
        self.send = send
        self.worker_id = worker_id
        self.config = dict(DEFAULT_CONFIG, **(config or {}))
        self.dropped = 0
        self.frames_sent = 0
        self.recorder = FlightRecorder(
            frame_capacity=self.config["recorder_frames"],
            tail=self.config["recorder_tail"],
        )
        self.sketches = {}
        self.series = CounterSeries(self.config["series_bucket_ticks"])
        self._job = None          # (index, label)
        self._job_started_wall = 0.0
        self._jobs_done = 0
        self._last_emit_wall = 0.0
        self._last_rate = (0.0, 0)   # (wall, events) for events/sec
        self._last_sample = None     # previous counter sample (for deltas)
        self._last_coverage = 0
        self._last_sim = None

    # -- plumbing ---------------------------------------------------------------

    def _emit(self, frame):
        self.recorder.record_frame(frame)
        try:
            self.send(frame)
        except queue_mod.Full:
            self.dropped += 1
        else:
            self.frames_sent += 1

    def sketch(self, name, bucket_width):
        sketch = self.sketches.get(name)
        if sketch is None:
            sketch = self.sketches[name] = Histogram(bucket_width)
        return sketch

    # -- job lifecycle ----------------------------------------------------------

    def job_started(self, index, label):
        now = time.monotonic()
        self._job = (index, label)
        self._job_started_wall = now
        self._last_rate = (now, 0)
        self._last_sample = None
        self._last_coverage = 0
        self._last_sim = None
        self._emit({
            "kind": "job_started", "worker": self.worker_id,
            "job": index, "label": label, "dropped": self.dropped,
        })

    def job_finished(self, index, label, ok, error_type=""):
        now = time.monotonic()
        seconds = now - self._job_started_wall
        self._jobs_done += 1
        self.sketch("job_ms", self.config["job_ms_bucket_width"]).observe(
            seconds * 1000.0
        )
        sim = self._last_sim
        if sim is not None and sim.obs is not None:
            width = self.config["sketch_bucket_width"]
            for kind, hist in sim.obs.spans.latency_histograms(
                    bucket_width=width).items():
                self.sketch(f"span.{kind}", width).merge(hist)
        sample = self._last_sample or {}
        self._emit({
            "kind": "job_finished", "worker": self.worker_id,
            "job": index, "label": label, "ok": ok,
            "error_type": error_type, "seconds": seconds,
            "jobs_done": self._jobs_done,
            "events_fired": sample.get("events_fired", 0),
            "final_tick": sample.get("tick", 0),
            "coverage_visited": self._last_coverage,
            "sketches": {k: s.as_dict() for k, s in self.sketches.items()},
            "series": self.series.as_dict(),
            "dropped": self.dropped,
        })
        # sketches/series were shipped cumulatively; reset so the next
        # job_finished frame's payload stays a disjoint contribution
        self.sketches = {}
        self.series = CounterSeries(self.config["series_bucket_ticks"])
        self._job = None
        self._last_sim = None
        self._last_emit_wall = now

    # -- periodic progress (called from the simulator monitor) ------------------

    def on_progress(self, sim, final):
        self._last_sim = sim
        sample = sample_counters(sim)
        obs = sim.obs
        if obs is not None:
            sample["open_spans"] = obs.spans.open_count
            sample["spans_closed"] = obs.spans.finished_total
        coverage = 0
        for comp in sim.components:
            cov = getattr(comp, "coverage", None)
            if cov is not None:
                coverage += len(cov)
        prev = self._last_sample
        if prev is not None:
            tick = sample["tick"]
            self.series.record(
                tick, "events_fired",
                sample["events_fired"] - prev["events_fired"],
            )
            self.series.record(
                tick, "coverage_visited", coverage - self._last_coverage
            )
            if "spans_closed" in sample:
                self.series.record(
                    tick, "spans_closed",
                    sample["spans_closed"] - prev.get("spans_closed", 0),
                )
        else:
            self.series.record(sample["tick"], "events_fired",
                               sample["events_fired"])
            self.series.record(sample["tick"], "coverage_visited", coverage)
        self._last_sample = sample
        self._last_coverage = coverage

        now = time.monotonic()
        since_emit = now - self._last_emit_wall
        if not final and since_emit < self.config["min_emit_interval"]:
            if since_emit >= self.config["heartbeat_interval"]:
                self._emit({
                    "kind": "heartbeat", "worker": self.worker_id,
                    "dropped": self.dropped,
                })
                self._last_emit_wall = now
            return
        rate_wall, rate_events = self._last_rate
        elapsed = now - rate_wall
        events = sample["events_fired"]
        rate = (events - rate_events) / elapsed if elapsed > 0 else 0.0
        self._last_rate = (now, events)
        self._last_emit_wall = now
        job = self._job or (None, "")
        frame = {
            "kind": "progress", "worker": self.worker_id,
            "job": job[0], "label": job[1],
            "tick": sample["tick"], "events_fired": events,
            "events_per_sec": rate,
            "open_tbes": sample["open_tbes"],
            "stalled_msgs": sample["stalled_msgs"],
            "coverage_visited": coverage,
            "dropped": self.dropped,
        }
        if "open_spans" in sample:
            frame["open_spans"] = sample["open_spans"]
            frame["spans_closed"] = sample["spans_closed"]
        self._emit(frame)

    # -- failure forensics -------------------------------------------------------

    def failure_forensics(self, invariant=None, exc=None):
        """The flight-recorder payload for a failed job (plain data)."""
        sim = getattr(exc, "sim", None) or self._last_sim
        return {
            "invariant": invariant,
            "flight_recorder": self.recorder.snapshot(
                sim=sim, error=str(exc) if exc is not None else ""
            ),
        }

    def __repr__(self):
        return (f"FabricEmitter(worker={self.worker_id}, "
                f"sent={self.frames_sent}, dropped={self.dropped})")


# -- collector side -------------------------------------------------------------


class FabricCollector:
    """Parent-side aggregation of worker frames + campaign lifecycle.

    Create one, pass it to :func:`repro.eval.campaign.run_campaign` (or
    install it ambiently with :func:`use_fabric`); ``begin``/``finish``
    bracket each campaign, spinning a drain thread over a bounded queue.
    All aggregate state is guarded by one lock — frames are low-rate by
    design, so contention is irrelevant.
    """

    def __init__(self, renderer=None, stall_after=DEFAULT_STALL_AFTER,
                 config=None, clock=time.monotonic):
        self.renderer = renderer
        self.stall_after = stall_after
        self.config = dict(DEFAULT_CONFIG, **(config or {}))
        self.clock = clock
        self.queue = None
        self._thread = None
        self._stop = None
        self._lock = threading.Lock()
        self._started_wall = None
        # aggregate state (lock-guarded)
        self.jobs_total = 0
        self.jobs_done = 0
        self.jobs_failed = 0
        self.jobs_lost = 0
        self.frames_seen = 0
        self.frames_dropped = 0
        self.workers = {}    # wid -> liveness/throughput state
        self.jobs = {}       # index -> {"label", "worker", "status"}
        self.sketches = {}   # name -> Histogram
        self.series = CounterSeries(self.config["series_bucket_ticks"])
        self.coverage_visited = 0

    # -- campaign lifecycle -----------------------------------------------------

    def begin(self, jobs_total, multiprocess):
        """Start collecting for one campaign of ``jobs_total`` jobs."""
        if self._thread is not None:
            raise RuntimeError("collector already collecting (begin without finish)")
        with self._lock:
            self.jobs_total += jobs_total
        if self._started_wall is None:
            self._started_wall = self.clock()
        if multiprocess:
            import multiprocessing

            self.queue = multiprocessing.get_context().Queue(QUEUE_CAPACITY)
        else:
            self.queue = queue_mod.Queue(QUEUE_CAPACITY)
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._drain, name="fabric-collector", daemon=True
        )
        self._thread.start()

    def finish(self):
        """Stop the drain thread after emptying the queue; final render."""
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=10.0)
        self._thread = None
        frame_queue, self.queue = self.queue, None
        # late frames (worker feeder threads flush at process exit) — drain
        # whatever made it into the queue before tearing it down
        while True:
            try:
                self.handle(frame_queue.get_nowait())
            except queue_mod.Empty:
                break
        if hasattr(frame_queue, "close"):
            frame_queue.close()
            frame_queue.join_thread()
        self.mark_stale()
        if self.renderer is not None:
            self.renderer.render(self.snapshot(), final=True)

    def _drain(self):
        last_render = 0.0
        interval = self.renderer.interval if self.renderer is not None else 1.0
        while True:
            try:
                frame = self.queue.get(timeout=0.1)
            except queue_mod.Empty:
                frame = None
                if self._stop.is_set():
                    return
            except (EOFError, OSError):
                return
            if frame is not None:
                self.handle(frame)
            now = self.clock()
            if now - last_render >= interval:
                last_render = now
                self.mark_stale(now)
                if self.renderer is not None:
                    self.renderer.render(self.snapshot(now))

    # -- aggregation (pure; directly testable without threads) -------------------

    def handle(self, frame, now=None):
        """Fold one frame into the aggregate state."""
        if now is None:
            now = self.clock()
        kind = frame.get("kind")
        wid = frame.get("worker")
        with self._lock:
            self.frames_seen += 1
            worker = self.workers.get(wid)
            if worker is None:
                worker = self.workers[wid] = {
                    "id": wid, "last_seen": now, "job": None, "label": "",
                    "events_per_sec": 0.0, "tick": 0, "jobs_done": 0,
                    "dropped": 0, "stalled": False,
                }
            worker["last_seen"] = now
            worker["stalled"] = False
            if "dropped" in frame:
                self.frames_dropped += max(
                    0, frame["dropped"] - worker["dropped"]
                )
                worker["dropped"] = frame["dropped"]
            if kind == "job_started":
                worker["job"] = frame["job"]
                worker["label"] = frame["label"]
                self.jobs[frame["job"]] = {
                    "label": frame["label"], "worker": wid,
                    "status": "running",
                }
            elif kind == "progress":
                worker["events_per_sec"] = frame["events_per_sec"]
                worker["tick"] = frame["tick"]
                if frame.get("job") is not None:
                    worker["job"] = frame["job"]
                    worker["label"] = frame.get("label", "")
            elif kind == "job_finished":
                worker["jobs_done"] += 1
                worker["job"] = None
                job = self.jobs.setdefault(
                    frame["job"], {"label": frame["label"], "worker": wid}
                )
                job["status"] = "done" if frame["ok"] else "failed"
                job["seconds"] = frame["seconds"]
                self.jobs_done += 1
                if not frame["ok"]:
                    self.jobs_failed += 1
                self.coverage_visited += frame.get("coverage_visited", 0)
                for name, data in frame.get("sketches", {}).items():
                    contributed = Histogram.from_dict(data)
                    mine = self.sketches.get(name)
                    if mine is None:
                        self.sketches[name] = contributed
                    else:
                        mine.merge(contributed)
                series = frame.get("series")
                if series:
                    self.series.merge(CounterSeries.from_dict(series))
            # heartbeat frames only refresh last_seen/dropped (done above)

    def job_lost(self, index, label, error=""):
        """Mark one shard lost (worker died / pool broke): never hangs."""
        with self._lock:
            job = self.jobs.setdefault(index, {"label": label, "worker": None})
            if job.get("status") in ("done", "failed", "lost"):
                return
            job["status"] = "lost"
            job["error"] = error
            self.jobs_lost += 1
            wid = job.get("worker")
            if wid in self.workers:
                self.workers[wid]["stalled"] = True
                self.workers[wid]["job"] = None

    def lost_forensics(self, index):
        """Parent-side black box for a shard whose worker never reported back."""
        with self._lock:
            job = self.jobs.get(index, {})
            wid = job.get("worker")
            worker = dict(self.workers.get(wid, {}))
        return {
            "invariant": None,
            "flight_recorder": {
                "error": job.get("error", "worker lost"),
                "frames": [],
                "note": ("worker process died before shipping its black box; "
                         "collector-side last-known state attached"),
                "job": {"label": job.get("label", ""), "status": "lost"},
                "worker": worker,
            },
        }

    def mark_stale(self, now=None):
        """Flag workers whose heartbeat aged out; mark their shards lost.

        Returns the worker ids flagged this call. Driven periodically by
        the drain thread, so a silently dead worker surfaces in the live
        view (and its shard stops counting as running) within
        ``stall_after`` seconds instead of hanging the campaign view.
        """
        if now is None:
            now = self.clock()
        flagged = []
        with self._lock:
            stale = [
                w for w in self.workers.values()
                if not w["stalled"] and now - w["last_seen"] > self.stall_after
            ]
            for worker in stale:
                worker["stalled"] = True
                flagged.append(worker["id"])
        for worker_id in flagged:
            running = [
                index for index, job in self.jobs.items()
                if job.get("worker") == worker_id
                and job.get("status") == "running"
            ]
            for index in running:
                self.job_lost(index, self.jobs[index].get("label", ""),
                              error=f"worker {worker_id} heartbeat stale")
        return flagged

    # -- views -------------------------------------------------------------------

    def snapshot(self, now=None):
        """Plain-data view for the live renderer (lock-consistent)."""
        if now is None:
            now = self.clock()
        with self._lock:
            workers = [
                {
                    "id": w["id"],
                    "label": w["label"] if w["job"] is not None else "",
                    "events_per_sec": w["events_per_sec"],
                    "tick": w["tick"],
                    "jobs_done": w["jobs_done"],
                    "heartbeat_age": max(0.0, now - w["last_seen"]),
                    "dropped": w["dropped"],
                    "stalled": w["stalled"],
                }
                for _, w in sorted(self.workers.items())
            ]
            running = sum(
                1 for job in self.jobs.values() if job.get("status") == "running"
            )
            return {
                "jobs_total": self.jobs_total,
                "jobs_done": self.jobs_done,
                "jobs_failed": self.jobs_failed,
                "jobs_lost": self.jobs_lost,
                "jobs_running": running,
                "workers": workers,
                "events_per_sec": sum(w["events_per_sec"] for w in workers),
                "coverage_visited": self.coverage_visited,
                "frames_seen": self.frames_seen,
                "frames_dropped": self.frames_dropped,
                "elapsed": (now - self._started_wall
                            if self._started_wall is not None else 0.0),
            }

    def summary(self):
        """Final mergeable aggregates (the dashboard/report payload)."""
        snap = self.snapshot()
        with self._lock:
            snap["sketches"] = {
                name: sketch.as_dict()
                for name, sketch in sorted(self.sketches.items())
            }
            snap["series"] = self.series.as_dict()
            snap["jobs"] = {
                str(index): dict(job) for index, job in sorted(self.jobs.items())
            }
        return snap

    def __repr__(self):
        return (f"FabricCollector(jobs={self.jobs_done}/{self.jobs_total}, "
                f"workers={len(self.workers)}, frames={self.frames_seen})")


# -- ambient fabric (what run_campaign picks up when no arg is passed) -----------

_CURRENT = None


def current_fabric():
    """The ambient collector installed by :func:`use_fabric`, or None."""
    return _CURRENT


@contextmanager
def use_fabric(collector):
    """Install ``collector`` as the ambient fabric for nested campaigns.

    Lets the CLI wrap existing campaign entry points
    (``run_stress_coverage`` and friends) without threading a fabric
    argument through every experiment signature.
    """
    global _CURRENT
    prev = _CURRENT
    _CURRENT = collector
    try:
        yield collector
    finally:
        _CURRENT = prev


@contextmanager
def live_fabric(live=True, interval=1.0, stream=None, force_mode=None,
                config=None):
    """One-stop CLI context: collector + renderer + ambient installation.

    ``live=False`` yields ``None`` and does nothing — callers can wrap
    their campaign unconditionally. The renderer auto-detects TTY vs
    plain mode (``force_mode`` pins it, for tests and CI).
    """
    if not live:
        yield None
        return
    renderer = LiveRenderer(stream=stream, interval=interval, mode=force_mode)
    collector = FabricCollector(renderer=renderer, config=config)
    with use_fabric(collector):
        yield collector
    renderer.close()


@contextmanager
def inproc_session(collector, label="run"):
    """Fabric bracket for a single non-campaign simulation (fuzz/chaos CLI).

    Brings up the collector, installs the in-process emitter + progress
    hook, and frames the run as one job, so ``--live`` on single-run
    commands shows the same heartbeat/throughput view as campaigns.
    """
    collector.begin(jobs_total=1, multiprocess=False)
    try:
        with inproc_worker(collector) as emitter:
            emitter.job_started(0, label)
            try:
                yield emitter
            except BaseException:
                emitter.job_finished(0, label, ok=False,
                                     error_type="Exception")
                raise
            emitter.job_finished(0, label, ok=True)
    finally:
        collector.finish()


# -- live rendering --------------------------------------------------------------


def _fmt_rate(rate):
    if rate >= 1e6:
        return f"{rate / 1e6:.1f}M ev/s"
    if rate >= 1e3:
        return f"{rate / 1e3:.0f}k ev/s"
    return f"{rate:.0f} ev/s"


class LiveRenderer:
    """Terminal progress view with clean non-TTY degradation.

    ``mode`` is ``"tty"`` (ANSI in-place redraw), ``"plain"`` (periodic
    single-line updates — what CI logs get), or None to auto-detect from
    the stream. All output goes to ``stream`` (default: real stdout).
    """

    def __init__(self, stream=None, interval=1.0, mode=None):
        self.stream = stream if stream is not None else sys.stdout
        self.interval = max(0.05, float(interval))
        if mode is None:
            isatty = getattr(self.stream, "isatty", lambda: False)
            mode = "tty" if isatty() else "plain"
        if mode not in ("tty", "plain"):
            raise ValueError(f"unknown renderer mode {mode!r}")
        self.mode = mode
        self.renders = 0
        self._lines_drawn = 0

    def _status_line(self, snap):
        parts = [
            f"jobs {snap['jobs_done']}/{snap['jobs_total']}",
        ]
        if snap["jobs_failed"]:
            parts.append(f"{snap['jobs_failed']} failed")
        if snap["jobs_lost"]:
            parts.append(f"{snap['jobs_lost']} LOST")
        live = [w for w in snap["workers"] if not w["stalled"]]
        stalled = len(snap["workers"]) - len(live)
        parts.append(f"{len(live)} workers" + (f" ({stalled} stalled)"
                                               if stalled else ""))
        parts.append(_fmt_rate(snap["events_per_sec"]))
        parts.append(f"cov {snap['coverage_visited']}")
        ages = [w["heartbeat_age"] for w in snap["workers"]]
        if ages:
            parts.append(f"hb {max(ages):.1f}s")
        if snap["frames_dropped"]:
            parts.append(f"{snap['frames_dropped']} frames dropped")
        parts.append(f"{snap['elapsed']:.0f}s")
        return "fabric: " + " | ".join(parts)

    def _worker_lines(self, snap):
        lines = []
        for worker in snap["workers"]:
            state = "STALLED" if worker["stalled"] else _fmt_rate(
                worker["events_per_sec"]
            )
            label = worker["label"] or "idle"
            lines.append(
                f"  w{worker['id']}: {state:>12}  hb {worker['heartbeat_age']:4.1f}s"
                f"  done {worker['jobs_done']:3d}  {label[:48]}"
            )
        return lines

    def render(self, snap, final=False):
        self.renders += 1
        write = self.stream.write
        if self.mode == "tty":
            if self._lines_drawn:
                write(f"\x1b[{self._lines_drawn}F\x1b[J")
            lines = [self._status_line(snap)] + self._worker_lines(snap)
            write("\n".join(lines) + "\n")
            self._lines_drawn = len(lines)
        else:
            write(self._status_line(snap) + "\n")
        self.stream.flush()

    def close(self):
        if self.mode == "tty" and self._lines_drawn:
            self.stream.write("\n")
            self.stream.flush()
        self._lines_drawn = 0
