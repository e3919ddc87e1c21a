"""Tests for the transaction-span telemetry layer (repro.obs).

Covers the span lifecycle (including under fault injection — dropped and
duplicated messages must not leak open spans), the Perfetto exporter's
schema, the coverage/latency matrix, and the stats-layer fixes that ride
along (histogram merge re-binning, read-only empty histograms, no-op
metrics mode).
"""

import json

import pytest

from repro.host.config import AccelOrg, HostProtocol, SystemConfig
from repro.host.system import build_system
from repro.obs import (
    CoverageMatrix,
    SpanRecorder,
    Telemetry,
    build_trace,
    render_matrix,
    validate_trace,
    write_trace,
)
from repro.sim.stats import EMPTY_HISTOGRAM, NULL_STATS, Histogram, Stats
from repro.testing.chaos import run_chaos_campaign
from repro.xg.interface import XGVariant


# -- span recorder unit behavior ---------------------------------------------


def test_span_lifecycle_basics():
    rec = SpanRecorder()
    span = rec.start("accel_get", "xg", 0x1000, 10, req="GetM")
    assert span.open and span.duration is None
    assert rec.open_count == 1
    rec.phase(span, "translated", 12)
    rec.phase(span, "host_granted", 30)
    rec.finish(span, 42, grant="M")
    assert not span.open
    assert span.duration == 32
    assert span.status == "ok"
    assert span.phase_tick("host_granted") == 30
    assert span.meta == {"req": "GetM", "grant": "M"}
    assert rec.open_count == 0 and rec.finished_total == 1
    assert rec.by_kind("accel_get") == [span]


def test_span_finish_is_idempotent():
    rec = SpanRecorder()
    span = rec.start("probe", "xg", 0x40, 5)
    rec.finish(span, 20, status="timeout")
    rec.finish(span, 99, status="ok")  # late close after a race: ignored
    rec.phase(span, "too_late", 100)  # phases after close: ignored
    assert span.end == 20 and span.status == "timeout"
    assert span.phases == []
    assert rec.finished_total == 1


def test_span_recorder_capacity_cap():
    rec = SpanRecorder(capacity=4)
    for i in range(10):
        rec.finish(rec.start("op", "cpu", i, i), i + 1)
    assert len(rec.closed) == 4
    assert rec.dropped == 6
    assert rec.finished_total == 10  # the running total is exact


def test_drain_closes_leftovers_as_orphaned():
    rec = SpanRecorder()
    kept_open = rec.start("accel_get", "xg", 0x80, 3)
    rec.finish(rec.start("op", "cpu", 0x40, 1), 9)
    leaked = rec.drain(50)
    assert leaked == [kept_open]
    assert kept_open.status == "orphaned" and kept_open.end == 50
    assert rec.drain(60) == []  # second drain finds nothing


def test_latency_histograms_by_kind():
    rec = SpanRecorder()
    for latency in (4, 8, 100):
        rec.finish(rec.start("probe", "xg", 0, 0), latency)
    rec.finish(rec.start("op_load", "cpu", 0, 10), 30)
    hists = rec.latency_histograms(bucket_width=8)
    assert set(hists) == {"probe", "op_load"}
    assert hists["probe"].count == 3
    assert hists["probe"].max == 100
    assert hists["op_load"].mean == 20


# -- telemetry hub -----------------------------------------------------------


def _small_system(**kw):
    return build_system(SystemConfig(org=AccelOrg.XG, n_cpus=1, n_accel_cores=1, **kw))


def test_telemetry_attach_detach():
    system = _small_system()
    assert system.sim.obs is None
    obs = Telemetry(system.sim)
    assert system.sim.obs is obs
    obs.detach()
    assert system.sim.obs is None


def test_telemetry_records_simple_transaction():
    system = _small_system()
    obs = Telemetry(system.sim)
    system.accel_seqs[0].store(0x1000, 7)
    system.cpu_seqs[0].load(0x2000)
    system.sim.run()
    orphans = obs.finalize()
    assert orphans == []
    assert obs.spans.finished_total >= 2
    kinds = {span.kind for span in obs.spans.closed}
    assert "accel_get" in kinds
    assert "op_load" in kinds
    get_span = obs.spans.by_kind("accel_get")[0]
    assert get_span.status == "ok"
    assert get_span.phase_tick("translated") is not None
    assert get_span.phase_tick("host_granted") is not None
    assert obs.transitions  # controller hooks recorded (state, event) pairs


def test_transition_cap_counts_overflow():
    system = _small_system()
    obs = Telemetry(system.sim, max_transitions=5)
    system.accel_seqs[0].store(0x1000, 7)
    system.cpu_seqs[0].load(0x2000)
    system.sim.run()
    assert len(obs.transitions) == 5
    assert obs.transitions_dropped > 0


def test_series_sampling_does_not_keep_sim_alive():
    system = _small_system()
    obs = Telemetry(system.sim)
    obs.start_series(50)
    system.cpu_seqs[0].load(0x3000)
    system.sim.run()  # must terminate: sampler re-arms only while live
    obs.finalize()
    assert len(obs.series) >= 2
    assert all("open_tbes" in s and "stalled_msgs" in s for s in obs.series)
    ticks = [s["tick"] for s in obs.series]
    assert ticks == sorted(ticks)


def test_summary_is_picklable_and_complete():
    import pickle

    system = _small_system()
    obs = Telemetry(system.sim)
    system.accel_seqs[0].store(0x1000, 1)
    system.sim.run()
    obs.finalize()
    summary = obs.summary()
    clone = pickle.loads(pickle.dumps(summary))
    assert clone["spans_closed"] == obs.spans.finished_total
    assert clone["spans_open"] == 0
    assert "accel_get" in clone["span_hists"]


# -- span lifecycle under fault injection ------------------------------------


@pytest.mark.parametrize("faults", [
    {"drop": 0.15},
    {"duplicate": 0.2},
    {"drop": 0.1, "duplicate": 0.1, "delay": 0.1},
])
def test_no_span_leaks_under_link_faults(faults):
    """Dropped and duplicated messages must not leak open spans: after the
    drain phase every probe/get/put span closed through its own lifecycle
    (ok, timeout, absorbed, ...) — finalize() finds nothing to orphan."""
    result, system = run_chaos_campaign(
        HostProtocol.MESI,
        XGVariant.FULL_STATE,
        faults=faults,
        seed=5,
        duration=20_000,
        cpu_ops=300,
        telemetry=True,
    )
    assert result.host_safe
    assert result.faults_total > 0
    assert result.spans_closed > 0
    assert result.spans_orphaned == 0
    obs = system.sim.obs
    assert obs.spans.open_count == 0
    assert len(obs.faults) == result.faults_total


def test_probe_timeout_span_marked_not_leaked():
    """Exhausted probe retries close the span as ``timeout`` (with the
    retry phases on it) — never leave it open for finalize() to orphan."""
    from repro.memory.datablock import DataBlock
    from repro.protocols.mesi.messages import MesiMsg
    from repro.sim.network import FixedLatency, Network
    from repro.sim.simulator import Simulator
    from repro.xg.errors import XGErrorLog
    from repro.xg.interface import AccelMsg
    from repro.xg.mesi_xg import MesiCrossingGuard
    from repro.xg.permissions import PagePermission, PermissionTable

    from tests.helpers import RawAgent

    sim = Simulator(seed=0)
    obs = Telemetry(sim)
    host_net = Network(sim, FixedLatency(1), name="host")
    accel_net = Network(sim, FixedLatency(1), ordered=True, name="accel")
    xg = MesiCrossingGuard(
        sim, "xg", host_net, accel_net, "l2",
        permissions=PermissionTable(default=PagePermission.READ_WRITE),
        error_log=XGErrorLog(),
        accel_timeout=100,
        probe_retries=2,
    )
    host_net.attach(xg)
    accel_net.attach(xg)
    l2 = RawAgent(sim, "l2", host_net)
    RawAgent(sim, "l1.peer", host_net)
    accel = RawAgent(sim, "accel", accel_net)
    xg.attach_accelerator("accel")

    data = DataBlock()
    data.write_byte(0, 3)
    accel.send(AccelMsg.GetM, 0x4000, "xg", "accel_request")
    sim.run(max_ticks=sim.tick + 50, final_check=False)
    l2.send(MesiMsg.DataM, 0x4000, "xg", "response", data=data)
    sim.run(max_ticks=sim.tick + 50, final_check=False)
    l2.send(MesiMsg.Fwd_GetM, 0x4000, "xg", "forward", requestor="l1.peer")
    sim.run()  # the accelerator never answers: retries exhaust, surrogate fires

    assert obs.finalize() == []  # nothing left open to orphan
    (probe,) = obs.spans.by_kind("probe")
    assert probe.status == "timeout"
    assert probe.phase_tick("forwarded") is not None
    assert probe.phase_tick("retry_1") is not None
    assert probe.phase_tick("retry_2") is not None


# -- perfetto exporter -------------------------------------------------------


def _traced_chaos():
    return run_chaos_campaign(
        HostProtocol.MESI,
        XGVariant.FULL_STATE,
        faults={"drop": 0.1, "duplicate": 0.1},
        seed=3,
        duration=15_000,
        cpu_ops=300,
        telemetry=True,
        series_interval=1000,
    )


def test_build_trace_schema_is_valid():
    result, system = _traced_chaos()
    assert result.host_safe
    payload = build_trace(
        system.sim.obs, fault_plan=system.config.fault_plan,
        label=system.config.label,
    )
    assert validate_trace(payload) == []
    events = payload["traceEvents"]
    phases = {e["ph"] for e in events}
    assert phases == {"M", "X", "i", "C"}
    # Every span became a complete event; fault instants and counter
    # samples are all present.
    x_names = [e["name"] for e in events if e["ph"] == "X"]
    assert any(name.startswith("accel_get") or name == "accel_get"
               for name in x_names)
    assert sum(1 for e in events if e["ph"] == "i") >= len(system.sim.obs.faults)
    assert any(e["ph"] == "C" for e in events)


def test_write_trace_roundtrip(tmp_path):
    _result, system = _traced_chaos()
    path = tmp_path / "trace.json"
    count = write_trace(
        build_trace(system.sim.obs, fault_plan=system.config.fault_plan),
        path,
    )
    with open(path) as fh:
        loaded = json.load(fh)
    assert len(loaded["traceEvents"]) == count
    assert loaded["displayTimeUnit"] == "ms"
    assert validate_trace(loaded) == []


def test_validate_trace_flags_malformed_events():
    bad = {
        "traceEvents": [
            {"ph": "X", "name": "no-dur", "pid": 1, "tid": 1, "ts": 0},
            {"ph": "Z", "name": "bad-phase", "pid": 1, "tid": 1, "ts": 0},
            {"ph": "i", "name": "bad-scope", "pid": 1, "tid": 1, "ts": 0,
             "s": "x"},
            {"ph": "C", "name": "bad-args", "pid": 1, "tid": 1, "ts": 0,
             "args": {"v": "not-a-number"}},
            {"ph": "X", "name": "negative", "pid": 1, "tid": 1, "ts": -5,
             "dur": 1},
        ]
    }
    problems = validate_trace(bad)
    assert len(problems) == 5


def test_write_trace_refuses_invalid_payload(tmp_path):
    with pytest.raises(ValueError):
        write_trace({"traceEvents": [{"ph": "X"}]}, tmp_path / "bad.json")


def test_validate_trace_checks_series_and_fault_window_args():
    bad = {
        "traceEvents": [
            # series counters must carry exactly args == {"value": n}
            {"ph": "C", "name": "events_fired", "cat": "series", "pid": 4,
             "tid": 0, "ts": 0, "args": {"value": 1, "extra": 2}},
            {"ph": "C", "name": "open_spans", "cat": "series", "pid": 4,
             "tid": 0, "ts": 0, "args": {"count": 3}},
            # fault windows must carry a numeric rate in [0, 1]
            {"ph": "X", "name": "window:drop", "cat": "fault-window",
             "pid": 3, "tid": 1, "ts": 0, "dur": 10, "args": {"rate": 1.5}},
            {"ph": "X", "name": "window:dup", "cat": "fault-window",
             "pid": 3, "tid": 1, "ts": 0, "dur": 10, "args": {}},
        ]
    }
    problems = validate_trace(bad)
    assert len(problems) == 4
    assert sum("series counter" in p for p in problems) == 2
    assert sum("fault-window" in p for p in problems) == 2

    good = {
        "traceEvents": [
            {"ph": "C", "name": "events_fired", "cat": "series", "pid": 4,
             "tid": 0, "ts": 5, "args": {"value": 12}},
            # occupancy counters keep their own arg names: not series-gated
            {"ph": "C", "name": "occupancy.l2", "cat": "occupancy", "pid": 4,
             "tid": 0, "ts": 5, "args": {"transitions": 3}},
            {"ph": "X", "name": "window:drop", "cat": "fault-window",
             "pid": 3, "tid": 1, "ts": 0, "dur": 10, "args": {"rate": 0.25}},
        ]
    }
    assert validate_trace(good) == []


def test_trace_with_empty_series_still_validates():
    # A run whose sampler never fired (series_interval=0) must export a
    # valid trace with zero "series" counter events — the empty-series
    # regression the validator additions must not break.
    result, system = run_chaos_campaign(
        HostProtocol.MESI,
        XGVariant.FULL_STATE,
        faults={"drop": 0.1},
        seed=3,
        duration=8_000,
        cpu_ops=150,
        telemetry=True,
    )
    assert result.host_safe
    assert system.sim.obs.series == []
    payload = build_trace(system.sim.obs)
    assert validate_trace(payload) == []
    assert not any(e.get("cat") == "series" for e in payload["traceEvents"])


# -- coverage matrix ---------------------------------------------------------


def test_coverage_matrix_accumulates_and_renders():
    from repro.eval.experiments import run_stress_coverage

    result = run_stress_coverage(seeds=range(1), ops_per_run=300, telemetry=True)
    matrix = result["matrix"]
    assert matrix.cells
    for cell in matrix.cells.values():
        assert cell.runs >= 1
        assert 0.0 < cell.fraction <= 1.0
    rendered = render_matrix(matrix)
    assert "transition coverage" in rendered
    assert "span latency percentiles" in rendered
    # XG configs record accel-side transaction spans.
    assert "accel_get" in rendered


def test_coverage_matrix_merge_pools_runs():
    from repro.eval.experiments import run_stress_coverage

    a = run_stress_coverage(seeds=range(1), ops_per_run=200, telemetry=True)["matrix"]
    b = run_stress_coverage(seeds=[1], ops_per_run=200, telemetry=True)["matrix"]
    solo = a.cells["mesi/xg-full-L1"].spans_closed
    a.merge(b)
    merged_cell = a.cells["mesi/xg-full-L1"]
    assert merged_cell.runs == 2
    assert merged_cell.spans_closed > solo


def test_render_matrix_warns_on_dropped_spans():
    from repro.eval.experiments import run_stress_coverage

    matrix = run_stress_coverage(
        seeds=range(1), ops_per_run=200, telemetry=True
    )["matrix"]
    clean = render_matrix(matrix)
    assert "WARNING" not in clean

    # Simulate a run whose bounded span ring evicted closed spans.
    matrix.cells["mesi/xg-full-L1"].spans_dropped = 7
    warned = render_matrix(matrix)
    assert "WARNING" in warned
    assert "mesi/xg-full-L1 (7)" in warned
    assert "span_capacity" in warned


def test_telemetry_exposes_spans_dropped():
    from repro.sim.simulator import Simulator

    tel = Telemetry(Simulator(), span_capacity=2)
    rec = tel.spans
    for i in range(4):
        span = rec.start("probe", "xg", 0x40 * i, i)
        rec.finish(span, i + 5)
    assert tel.spans_dropped == 2
    assert tel.summary()["spans_dropped"] == 2


def test_stress_result_stays_json_serializable_without_telemetry():
    from repro.eval.experiments import run_stress_coverage

    result = run_stress_coverage(seeds=range(1), ops_per_run=150)
    assert "matrix" not in result
    json.dumps(result, sort_keys=True)


# -- stats layer fixes -------------------------------------------------------


def test_histogram_merge_matching_widths():
    a, b = Histogram(8), Histogram(8)
    a.observe(4)
    a.observe(20)
    b.observe(7)
    b.merge(a)
    assert b.count == 3
    assert b.buckets == {0: 2, 2: 1}
    assert b.min == 4 and b.max == 20


def test_stats_histogram_unknown_name_is_readonly():
    """Regression: Stats.histogram() of a never-observed name returned a
    fresh unattached Histogram — observations into it vanished."""
    stats = Stats("c")
    hist = stats.histogram("never_observed")
    assert hist is EMPTY_HISTOGRAM
    assert hist.count == 0 and hist.mean == 0.0
    with pytest.raises(TypeError):
        hist.observe(5)
    assert "never_observed" not in stats.histograms  # nothing registered


def test_stats_sink_prebinding():
    stats = Stats("c")
    sink = stats.sink("hits")
    sink.inc()
    sink.inc(3)
    assert stats.get("hits") == 4


def test_null_stats_discards_everything():
    NULL_STATS.inc("x")
    NULL_STATS.observe("lat", 5)
    NULL_STATS.sink("y").inc()
    assert NULL_STATS.as_dict() == {}
    assert NULL_STATS.counters is None  # hot paths key off this


def test_metrics_off_system_runs_and_reports_empty():
    system = _small_system(metrics=False)
    assert system.sim.metrics_enabled is False
    assert system.xg.stats is NULL_STATS
    done = []
    system.accel_seqs[0].store(0x1000, 9)
    system.cpu_seqs[0].load(0x1000, callback=lambda *a: done.append(a))
    system.sim.run()
    assert done  # the load completed despite zero stats plumbing
    assert system.xg.stats.as_dict() == {}


def test_metrics_off_matches_metrics_on_timing():
    """Disabling metrics must not perturb simulated behavior — same final
    tick, same event count."""
    ticks = {}
    for metrics in (True, False):
        system = _small_system(metrics=metrics, seed=11)
        system.accel_seqs[0].store(0x4000, 2)
        system.cpu_seqs[0].load(0x4000)
        system.sim.run()
        ticks[metrics] = (system.sim.tick, system.sim._events_fired)
    assert ticks[True] == ticks[False]
