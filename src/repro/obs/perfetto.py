"""Chrome trace-event JSON export for :class:`~repro.obs.spans.Telemetry`.

Produces the JSON object format of the Trace Event spec (the one
``chrome://tracing`` and https://ui.perfetto.dev load directly):

* **pid 1 — transactions**: one thread per component, one "X" complete
  slice per span, with phase sub-slices nested inside. Overlapping spans
  on the same component spread across lanes (extra tids) so nothing is
  hidden.
* **pid 2 — protocol**: one thread per controller, an instant per
  executed (state, event) transition.
* **pid 3 — faults**: planned :class:`~repro.sim.faults.FaultWindow`
  ranges as slices per link, injected faults and guarantee marks as
  instants.
* **pid 4 — counters**: "C" counter tracks from the telemetry time
  series, and one occupancy track per controller: the transitions it
  executed per time bucket.

Ticks map 1:1 to microseconds (``ts``/``dur``), so a 10k-tick run reads
as a 10 ms trace — the absolute unit is arbitrary, relative timing is
what matters.
"""

import json

PID_SPANS = 1
PID_PROTOCOL = 2
PID_FAULTS = 3
PID_COUNTERS = 4

#: How many buckets the occupancy counters use across the run.
OCCUPANCY_BUCKETS = 200


def _meta(events, pid, name, tid=None):
    if tid is None:
        events.append({"ph": "M", "pid": pid, "tid": 0,
                       "name": "process_name", "args": {"name": name}})
    else:
        events.append({"ph": "M", "pid": pid, "tid": tid,
                       "name": "thread_name", "args": {"name": name}})


def _allocate_lanes(spans):
    """Greedy interval-graph coloring: span -> lane index.

    Spans on one component may overlap (a probe racing a Put); each gets
    the lowest lane whose previous occupant already ended.
    """
    lanes = []  # lane -> end tick of last span placed there
    assignment = {}
    for span in sorted(spans, key=lambda s: (s.start, s.sid)):
        for lane, busy_until in enumerate(lanes):
            if span.start >= busy_until:
                lanes[lane] = span.end
                assignment[span.sid] = lane
                break
        else:
            assignment[span.sid] = len(lanes)
            lanes.append(span.end)
    return assignment


def _span_args(span):
    args = {"sid": span.sid, "status": span.status}
    if span.addr is not None:
        args["addr"] = (f"{span.addr:#x}" if isinstance(span.addr, int)
                        else str(span.addr))
    for key, value in span.meta.items():
        args[key] = value if isinstance(value, (int, float, bool)) else str(value)
    return args


def _emit_spans(events, telemetry):
    by_component = {}
    for span in telemetry.spans.closed:
        by_component.setdefault(span.component, []).append(span)

    placed = {}  # sid -> (ts, dur, tid), for the causal flow arrows
    tid = 0
    for component in sorted(by_component):
        spans = by_component[component]
        lane_of = _allocate_lanes(spans)
        lane_count = max(lane_of.values()) + 1 if lane_of else 1
        for lane in range(lane_count):
            suffix = "" if lane == 0 else f" (lane {lane})"
            _meta(events, PID_SPANS, f"{component}{suffix}", tid=tid + lane)
        for span in spans:
            span_tid = tid + lane_of[span.sid]
            dur = span.end - span.start
            placed[span.sid] = (span.start, max(dur, 1), span_tid)
            events.append({
                "ph": "X", "pid": PID_SPANS, "tid": span_tid,
                "ts": span.start, "dur": max(dur, 1),
                "name": span.kind, "cat": "span",
                "args": _span_args(span),
            })
            # Phase sub-slices nest inside the parent by containment:
            # each covers [phase tick, next phase tick or span end).
            boundaries = list(span.phases) + [("end", span.end)]
            for (name, start), (_next_name, nxt) in zip(boundaries, boundaries[1:]):
                events.append({
                    "ph": "X", "pid": PID_SPANS, "tid": span_tid,
                    "ts": start, "dur": max(nxt - start, 1),
                    "name": name, "cat": "phase",
                    "args": {"sid": span.sid},
                })
        tid += lane_count
    return placed


def _emit_flows(events, telemetry, placed):
    """Flow arrows between causally linked spans.

    The lineage blame walk records ``(enclosing sid, caused sid)`` pairs
    whenever two spans' critical paths share a causal record. Each pair
    becomes one Chrome flow: ``"s"`` anchored on the earlier (caused)
    span, ``"f"`` (binding-point ``"e"``: enclosing slice) on the later
    one. Arrows with either endpoint outside the emitted span set are
    skipped — the validator rejects dangling flows.
    """
    lineage = getattr(telemetry, "lineage", None)
    if lineage is None or not lineage.flows:
        return
    flow_id = 0
    for parent_sid, child_sid in lineage.flows:
        parent = placed.get(parent_sid)
        child = placed.get(child_sid)
        if parent is None or child is None:
            continue
        parent_ts, parent_dur, parent_tid = parent
        child_ts, _child_dur, child_tid = child
        flow_id += 1
        events.append({
            "ph": "s", "pid": PID_SPANS, "tid": child_tid,
            "ts": child_ts, "id": flow_id,
            "name": "cause", "cat": "flow",
        })
        # clamp into the destination slice so the binding is unambiguous;
        # child_ts <= parent end always (the child closed first), so the
        # arrow never points backwards in time.
        events.append({
            "ph": "f", "bp": "e", "pid": PID_SPANS, "tid": parent_tid,
            "ts": min(max(child_ts, parent_ts), parent_ts + parent_dur),
            "id": flow_id, "name": "cause", "cat": "flow",
        })


def _emit_transitions(events, telemetry):
    if not telemetry.transitions:
        return
    tids = {}
    for tick, component, ctype, state, event in telemetry.transitions:
        tid = tids.get(component)
        if tid is None:
            tid = len(tids)
            tids[component] = tid
            _meta(events, PID_PROTOCOL, f"{component} [{ctype}]", tid=tid)
        events.append({
            "ph": "i", "pid": PID_PROTOCOL, "tid": tid, "ts": tick, "s": "t",
            "name": f"{state}/{event}", "cat": "transition",
        })


def _emit_faults(events, telemetry, fault_plan):
    tids = {}

    def link_tid(link):
        tid = tids.get(link)
        if tid is None:
            tid = len(tids) + 1  # tid 0 is the marks thread
            tids[link] = tid
            _meta(events, PID_FAULTS, f"link {link}", tid=tid)
        return tid

    _meta(events, PID_FAULTS, "marks", tid=0)

    if fault_plan is not None:
        for link, link_faults in sorted(getattr(fault_plan, "links", {}).items()):
            tid = link_tid(link)
            for window in getattr(link_faults, "windows", ()):
                events.append({
                    "ph": "X", "pid": PID_FAULTS, "tid": tid,
                    "ts": window.start, "dur": max(window.end - window.start, 1),
                    "name": f"window:{window.kind}", "cat": "fault-window",
                    "args": {"rate": window.rate},
                })

    for tick, link, kind, mtype in telemetry.faults:
        events.append({
            "ph": "i", "pid": PID_FAULTS, "tid": link_tid(link), "ts": tick,
            "s": "t", "name": kind, "cat": "fault",
            "args": {"mtype": mtype} if mtype else {},
        })

    for tick, kind, component, name, addr in telemetry.marks:
        args = {}
        if component:
            args["component"] = component
        if addr is not None:
            args["addr"] = f"{addr:#x}" if isinstance(addr, int) else str(addr)
        events.append({
            "ph": "i", "pid": PID_FAULTS, "tid": 0, "ts": tick, "s": "p",
            "name": f"{kind}:{name}" if name else kind, "cat": "mark",
            "args": args,
        })


def _emit_counters(events, telemetry):
    for sample in telemetry.series:
        tick = sample["tick"]
        for key, value in sample.items():
            if key == "tick" or not isinstance(value, (int, float)):
                continue
            events.append({
                "ph": "C", "pid": PID_COUNTERS, "tid": 0, "ts": tick,
                "name": key, "cat": "series", "args": {"value": value},
            })

    # Occupancy: transitions executed per bucket — a utilization track
    # per controller, visible even without a series.
    transitions = telemetry.transitions
    if not transitions:
        return
    last_tick = transitions[-1][0]
    bucket = max(1, (last_tick + 1) // OCCUPANCY_BUCKETS)
    counts = {}
    for tick, component, _ctype, _state, _event in transitions:
        slot = (tick // bucket) * bucket
        comp_counts = counts.setdefault(component, {})
        comp_counts[slot] = comp_counts.get(slot, 0) + 1
    for component in sorted(counts):
        for slot in sorted(counts[component]):
            events.append({
                "ph": "C", "pid": PID_COUNTERS, "tid": 0, "ts": slot,
                "name": f"occupancy.{component}", "cat": "occupancy",
                "args": {"transitions": counts[component][slot]},
            })


def build_trace(telemetry, fault_plan=None, label=""):
    """Render a telemetry recording as a Chrome trace-event JSON object."""
    events = []
    _meta(events, PID_SPANS, "transactions")
    _meta(events, PID_PROTOCOL, "protocol transitions")
    _meta(events, PID_FAULTS, "faults & marks")
    _meta(events, PID_COUNTERS, "counters")
    _meta(events, PID_COUNTERS, "counters", tid=0)

    placed = _emit_spans(events, telemetry)
    _emit_flows(events, telemetry, placed)
    _emit_transitions(events, telemetry)
    _emit_faults(events, telemetry, fault_plan)
    _emit_counters(events, telemetry)

    payload = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "generator": "repro.obs",
            "tick_unit": "1 tick = 1 us",
        },
    }
    if label:
        payload["otherData"]["config"] = label
    return payload


#: Event phases we emit; validation rejects anything else.
_KNOWN_PHASES = {"X", "i", "C", "M", "s", "t", "f"}
_INSTANT_SCOPES = {"g", "p", "t"}
_FLOW_PHASES = {"s", "t", "f"}


def validate_trace(payload):
    """Check ``payload`` against the Chrome trace-event JSON object format.

    Returns a list of problem strings — empty means the trace is loadable
    by chrome://tracing and Perfetto. Used by CI to gate the uploaded
    trace artifact.
    """
    problems = []
    if not isinstance(payload, dict):
        return [f"top level must be an object, got {type(payload).__name__}"]
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["missing or non-list traceEvents"]
    # flow bookkeeping: every bind id needs a start ("s") and a terminal
    # ("f"); steps ("t") may only ride an id that has both
    flow_starts = {}
    flow_ends = {}
    flow_steps = {}
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = event.get("ph")
        if ph not in _KNOWN_PHASES:
            problems.append(f"{where}: unknown ph {ph!r}")
            continue
        if not isinstance(event.get("name"), str) or not event["name"]:
            problems.append(f"{where}: missing name")
        for field in ("pid", "tid"):
            if not isinstance(event.get(field), int):
                problems.append(f"{where}: missing integer {field}")
        if ph == "M":
            if event.get("name") not in ("process_name", "thread_name"):
                problems.append(f"{where}: metadata name {event.get('name')!r}")
            args = event.get("args")
            if not isinstance(args, dict) or not isinstance(args.get("name"), str):
                problems.append(f"{where}: metadata needs args.name string")
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"{where}: bad ts {ts!r}")
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: X event needs dur >= 0, got {dur!r}")
        elif ph == "i":
            if event.get("s", "t") not in _INSTANT_SCOPES:
                problems.append(f"{where}: instant scope {event.get('s')!r}")
        elif ph in _FLOW_PHASES:
            bind = event.get("id")
            if not isinstance(bind, (int, str)):
                problems.append(f"{where}: flow event needs an id, "
                                f"got {bind!r}")
                continue
            if ph == "f" and event.get("bp", "e") != "e":
                problems.append(
                    f"{where}: flow finish bp must be 'e', "
                    f"got {event.get('bp')!r}"
                )
            bucket = (flow_starts if ph == "s"
                      else flow_ends if ph == "f" else flow_steps)
            bucket.setdefault(bind, index)
        elif ph == "C":
            args = event.get("args")
            if not isinstance(args, dict) or not args:
                problems.append(f"{where}: counter needs args")
            elif not all(isinstance(v, (int, float)) for v in args.values()):
                problems.append(f"{where}: counter args must be numeric")
            elif event.get("cat") == "series" and set(args) != {"value"}:
                # series tracks carry exactly one "value" arg; extra or
                # renamed keys would silently fork a second counter track
                problems.append(
                    f"{where}: series counter args must be exactly "
                    f"{{'value'}}, got {sorted(args)}"
                )
        if ph == "X" and event.get("cat") == "fault-window":
            args = event.get("args")
            rate = args.get("rate") if isinstance(args, dict) else None
            if not isinstance(rate, (int, float)) or not 0.0 <= rate <= 1.0:
                problems.append(
                    f"{where}: fault-window needs numeric args.rate in "
                    f"[0, 1], got {rate!r}"
                )
    for bind, index in sorted(flow_starts.items(), key=lambda kv: kv[1]):
        if bind not in flow_ends:
            problems.append(
                f"traceEvents[{index}]: flow id {bind!r} starts but "
                f"never finishes (dangling arrow)"
            )
    for bind, index in sorted(flow_ends.items(), key=lambda kv: kv[1]):
        if bind not in flow_starts:
            problems.append(
                f"traceEvents[{index}]: flow id {bind!r} finishes "
                f"without a start (dangling arrow)"
            )
    for bind, index in sorted(flow_steps.items(), key=lambda kv: kv[1]):
        if bind not in flow_starts or bind not in flow_ends:
            problems.append(
                f"traceEvents[{index}]: flow step id {bind!r} lacks a "
                f"matching start/finish"
            )
    return problems


def write_trace(payload, path):
    """Validate and write ``payload`` to ``path``; returns the event count."""
    problems = validate_trace(payload)
    if problems:
        raise ValueError(
            "refusing to write invalid trace: " + "; ".join(problems[:5])
        )
    with open(path, "w") as fh:
        json.dump(payload, fh, separators=(",", ":"))
    return len(payload["traceEvents"])
