"""Per-job flight recorder: a bounded in-worker black box.

A campaign worker that fails ships forensics *with* its failure instead
of requiring a traced replay: the :class:`FlightRecorder` keeps a
bounded ring of the most recent telemetry frames the worker emitted plus
the last-N network-trace and transition records of the simulation that
was running, and :meth:`snapshot` flattens all of it into plain picklable
data. :func:`repro.eval.campaign._execute` serializes the snapshot into
``CampaignOutcome.forensics`` only when a job fails, deadlocks, or times
out — successful jobs pay the ring writes (cheap, bounded) and ship
nothing.
"""

from collections import deque

from repro.sim.simulator import format_trace_record


class FlightRecorder:
    """Bounded ring of recent frames + tail of the sim's trace/transitions.

    Memory is bounded by construction: ``frame_capacity`` frames (each a
    small dict of scalars) and ``tail`` trace/transition records taken
    only at snapshot time. Recording never allocates beyond the rings.
    """

    def __init__(self, frame_capacity=256, tail=64):
        self.frame_capacity = frame_capacity
        self.tail = tail
        self.frames = deque(maxlen=frame_capacity)
        self.frames_seen = 0

    def record_frame(self, frame):
        self.frames.append(frame)
        self.frames_seen += 1

    def snapshot(self, sim=None, error=""):
        """Plain-data black box for one failed job.

        ``sim`` (when reachable — a :class:`DeadlockError` carries it, and
        the progress hook remembers the last simulator it sampled) adds
        the engine-side tail: final tick, the last-N network sends from
        the forensic trace ring, the last-N recorded transitions, and the
        open-span count. Everything returned pickles across a process
        boundary; nothing references the simulator itself.
        """
        record = {
            "error": error,
            "frames": list(self.frames),
            "frames_seen": self.frames_seen,
            "frames_capacity": self.frame_capacity,
        }
        if sim is None:
            return record
        record["tick"] = sim.tick
        record["events_fired"] = sim._events_fired
        if sim.trace is not None:
            trace = list(sim.trace)[-self.tail:]
            record["trace"] = [format_trace_record(r) for r in trace]
        else:
            record["trace"] = []
            record["trace_note"] = (
                "network trace disabled (trace_depth=0); replay the seed "
                "with tracing enabled for messages"
            )
        obs = sim.obs
        if obs is not None:
            record["open_spans"] = obs.spans.open_count
            record["spans_closed"] = obs.spans.finished_total
            if obs.transitions:
                record["transitions"] = [
                    f"t={tick} {component} [{ctype}]: {state}/{event}"
                    for tick, component, ctype, state, event
                    in obs.transitions[-self.tail:]
                ]
            lineage = getattr(obs, "lineage", None)
            if lineage is not None:
                open_spans = obs.spans.open_spans()
                if open_spans:
                    # The failing transaction is almost always the oldest
                    # open span; ship where its time went so far.
                    oldest = min(open_spans, key=lambda s: (s.start, s.sid))
                    record["critical_path"] = lineage.partial_blame(
                        oldest, sim.tick
                    )
        return record

    def __len__(self):
        return len(self.frames)

    def __repr__(self):
        return (f"FlightRecorder(frames={len(self.frames)}/"
                f"{self.frame_capacity}, seen={self.frames_seen})")
