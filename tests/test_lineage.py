"""Tests for the causal lineage + critical-path blame engine.

The engine's contract has three legs:

1. **Conservation** — every closed span's blame segments sum *exactly*
   to its duration, for every host protocol and accelerator mode, even
   under injected link faults (drops, duplicates, corruption).
2. **Neutrality** — lineage recording never perturbs the simulation:
   golden digests are byte-identical with lineage on and off.
3. **Determinism** — the mergeable BlameMatrix is byte-identical no
   matter how a campaign is fanned out over workers.

Plus the attribution specifics the paper's timeout/limiter machinery
demands (retry_backoff, throttle), the Perfetto flow arrows, and the
flight-recorder forensics view.
"""

import json

import pytest

from repro.eval.experiments import run_stress_coverage
from repro.host.config import AccelOrg, HostProtocol, SystemConfig
from repro.host.system import build_system
from repro.obs import (
    SEGMENTS,
    BlameMatrix,
    LineageTracker,
    Telemetry,
    build_trace,
    render_blame,
    validate_trace,
)
from repro.obs.lineage import blame_matrix_from_telemetry
from repro.obs.recorder import FlightRecorder
from repro.obs.fabric import FabricCollector, use_fabric
from repro.testing.chaos import run_chaos_campaign
from repro.testing.golden import digest_system
from repro.testing.random_tester import RandomTester
from repro.xg.interface import XGVariant

BLOCKS = [0x1000 + 64 * i for i in range(5)]


def _stress_system(host, variant, seed=0, ops=400, **overrides):
    config = SystemConfig(
        host=host,
        org=AccelOrg.XG,
        xg_variant=variant,
        n_cpus=2,
        cpu_l1_sets=4,
        cpu_l1_assoc=2,
        shared_l2_sets=8,
        shared_l2_assoc=4,
        randomize_latencies=True,
        seed=seed,
        **overrides,
    )
    system = build_system(config)
    obs = Telemetry(system.sim, lineage=True)
    tester = RandomTester(
        system.sim, system.sequencers, BLOCKS, ops_target=ops, store_fraction=0.45
    )
    tester.run()
    return system, obs


def _assert_conservation(obs):
    closed = obs.spans.closed
    assert closed, "run produced no closed spans"
    for span in closed:
        blame = span.meta.get("blame")
        assert blame is not None, f"span {span.sid} has no blame"
        assert set(blame) <= set(SEGMENTS), blame
        assert sum(blame.values()) == span.duration, (span, blame)
        path = span.meta["blame_path"]
        assert sum(ticks for _, ticks in path) == span.duration, (span, path)
        assert all(ticks > 0 for _, ticks in path)


# -- conservation across hosts x accel modes ---------------------------------


@pytest.mark.parametrize(
    "host",
    [HostProtocol.MESI, HostProtocol.MESIF, HostProtocol.HAMMER],
    ids=["mesi", "mesif", "hammer"],
)
@pytest.mark.parametrize(
    "variant",
    [XGVariant.FULL_STATE, XGVariant.TRANSACTIONAL],
    ids=["full", "txn"],
)
def test_blame_conserves_exactly(host, variant):
    system, obs = _stress_system(host, variant, seed=1)
    _assert_conservation(obs)
    assert obs.lineage.evicted == 0 or len(obs.lineage.records) <= obs.lineage.capacity


def test_blame_conserves_under_link_faults():
    """Drops, duplicates, and corruption must not break conservation or
    leak tracker state (dropped sends return before the lineage hook;
    duplicate deliveries overwrite the same pending slot)."""
    result, system = run_chaos_campaign(
        HostProtocol.MESI,
        XGVariant.FULL_STATE,
        faults={"drop": 0.2, "duplicate": 0.15, "corrupt": 0.1},
        seed=4,
        duration=30_000,
        cpu_ops=300,
        telemetry=True,
        lineage=True,
    )
    obs = system.sim.obs
    assert system.config.fault_plan.total_injected > 0
    _assert_conservation(obs)
    tracker = obs.lineage
    # bounded by construction: records ring + one pending slot per record
    assert len(tracker.records) <= tracker.capacity
    assert len(tracker._pending) <= len(tracker.records)
    assert tracker.recorded == tracker.evicted + len(tracker.records)


# -- neutrality: lineage must never perturb the simulation -------------------


def test_golden_digest_identical_with_lineage_on():
    def run(lineage):
        config = SystemConfig(
            host=HostProtocol.MESI,
            org=AccelOrg.XG,
            xg_variant=XGVariant.FULL_STATE,
            n_cpus=2,
            cpu_l1_sets=4,
            cpu_l1_assoc=2,
            shared_l2_sets=8,
            shared_l2_assoc=4,
            randomize_latencies=True,
            seed=3,
        )
        system = build_system(config)
        obs = Telemetry(system.sim, lineage=lineage)
        tester = RandomTester(
            system.sim, system.sequencers, BLOCKS, ops_target=600,
            store_fraction=0.45,
        )
        tester.run()
        return digest_system(system, obs)

    assert run(False) == run(True)


# -- timeout / limiter attribution -------------------------------------------


def test_probe_retries_book_retry_backoff():
    """A lossy crossing forces Invalidate retries; the backoff windows
    must land in retry_backoff, not be smeared into queue_wait/service.
    The chaos adversary is a non-protocol endpoint, so this also covers
    the XG-side causal bridge (adopt_cause / tip_hint)."""
    result, system = run_chaos_campaign(
        HostProtocol.MESI,
        XGVariant.FULL_STATE,
        faults={"drop": 0.35},
        seed=5,
        duration=40_000,
        cpu_ops=400,
        contested_blocks=4,
        telemetry=True,
        lineage=True,
    )
    obs = system.sim.obs
    assert system.xg.stats.get("probe_retries") > 0
    _assert_conservation(obs)
    backoff = sum(
        span.meta["blame"].get("retry_backoff", 0) for span in obs.spans.closed
    )
    assert backoff > 0
    # every fully-timed-out probe waited through nothing but the retry
    # ladder: its whole duration is retry_backoff
    timed_out = [
        s for s in obs.spans.closed
        if s.kind == "probe" and s.status == "timeout"
        and any(p[0].startswith("retry") for p in s.phases)
        and s.meta["blame"].get("retry_backoff")
    ]
    assert timed_out


def test_rate_limiter_books_throttle():
    system, obs = _stress_system(
        HostProtocol.MESI, XGVariant.FULL_STATE, seed=0, ops=600,
        rate_limit=(1, 60),
    )
    assert system.xg.stats.get("rate_limited") > 0
    _assert_conservation(obs)
    throttle = sum(
        span.meta["blame"].get("throttle", 0) for span in obs.spans.closed
    )
    assert throttle > 0


# -- BlameMatrix: determinism, merge, rendering ------------------------------


def test_blame_matrix_worker_count_is_invisible():
    r1 = run_stress_coverage(
        seeds=range(1), ops_per_run=200, workers=1, telemetry=True, lineage=True
    )
    r2 = run_stress_coverage(
        seeds=range(1), ops_per_run=200, workers=2, telemetry=True, lineage=True
    )
    assert all(r["passed"] for r in r1["runs"])
    assert all(r["passed"] for r in r2["runs"])
    assert r1["blame"].canonical() == r2["blame"].canonical()


def test_blame_matrix_roundtrip_and_merge():
    system, obs = _stress_system(HostProtocol.MESI, XGVariant.FULL_STATE, seed=2)
    matrix = blame_matrix_from_telemetry(obs, "mesi/xg", seed=2)
    assert matrix.rows()
    clone = BlameMatrix.from_dict(matrix.as_dict())
    assert clone == matrix
    assert clone.canonical() == matrix.canonical()
    with pytest.raises(ValueError):
        matrix.merge(BlameMatrix(bucket_width=matrix.bucket_width * 2))
    text = render_blame(matrix, top=3)
    assert "span kind" in text and "retry_backoff" in text
    assert render_blame(BlameMatrix()).startswith("blame: no lineage recorded")
    # as_dict is JSON-clean
    json.dumps(matrix.as_dict())


# -- Perfetto flow arrows ----------------------------------------------------


def test_trace_flows_validate():
    system, obs = _stress_system(HostProtocol.MESI, XGVariant.FULL_STATE, seed=3,
                                 ops=600)
    assert obs.lineage.flows, "stress run recorded no causal span links"
    payload = build_trace(obs, label=system.config.label)
    flow_events = [e for e in payload["traceEvents"] if e.get("ph") in "stf"]
    assert flow_events
    ids = {e["id"] for e in flow_events}
    for flow_id in ids:
        phases = sorted(e["ph"] for e in flow_events if e["id"] == flow_id)
        assert "s" in phases and "f" in phases
    assert validate_trace(payload) == []


def test_trace_without_lineage_has_no_flows():
    """Regression: lineage off => zero flow events, and the trace still
    validates (the exporter must not emit dangling machinery)."""
    config = SystemConfig(
        host=HostProtocol.MESI, org=AccelOrg.XG,
        xg_variant=XGVariant.FULL_STATE, n_cpus=2, cpu_l1_sets=4,
        cpu_l1_assoc=2, shared_l2_sets=8, shared_l2_assoc=4, seed=3,
    )
    system = build_system(config)
    obs = Telemetry(system.sim)
    RandomTester(system.sim, system.sequencers, BLOCKS, ops_target=300,
                 store_fraction=0.45).run()
    payload = build_trace(obs, label=system.config.label)
    assert [e for e in payload["traceEvents"] if e.get("ph") in "stf"] == []
    assert validate_trace(payload) == []


def test_validate_trace_rejects_dangling_flows():
    base = {"pid": 1, "tid": 1, "cat": "flow", "name": "x"}
    def trace(*events):
        return {"traceEvents": list(events), "displayTimeUnit": "ns"}

    start = dict(base, ph="s", ts=1, id=7)
    step = dict(base, ph="t", ts=2, id=7)
    finish = dict(base, ph="f", ts=3, id=7, bp="e")
    assert validate_trace(trace(start, step, finish)) == []
    assert any("dangling" in p for p in validate_trace(trace(start)))
    assert any("dangling" in p for p in validate_trace(trace(finish)))
    assert any("lacks a matching" in p for p in validate_trace(trace(step)))
    bad_bind = dict(base, ph="f", ts=3, id=7, bp="s")  # enclosing-slice bind
    assert any("bp" in p for p in validate_trace(trace(start, bad_bind)))


# -- forensics: flight recorder + campaign black boxes -----------------------


def test_flight_recorder_ships_critical_path():
    system, obs = _stress_system(HostProtocol.MESI, XGVariant.FULL_STATE, seed=1,
                                 ops=300)
    # reopen a span so the snapshot has a wedged transaction to explain
    span = obs.spans.start("op_load", "seq0", 0x1000, system.sim.tick)
    recorder = FlightRecorder()
    snap = recorder.snapshot(sim=system.sim, error="synthetic")
    path = snap["critical_path"]
    assert path["sid"] == span.sid
    assert path["end"] >= path["start"]
    assert sum(path["segments"].values()) == path["end"] - path["start"]
    assert set(path["segments"]) <= set(SEGMENTS)


def test_partial_blame_conserves():
    tracker = LineageTracker()

    class _Span:
        sid, kind, component, addr, start = 9, "probe", "xg", 0x40, 100

    blame = tracker.partial_blame(_Span, 350)
    assert blame["segments"] == {"service": 250}
    assert blame["path"] == [("service", 250)]


def test_forensics_all_keeps_successful_black_boxes():
    collector = FabricCollector(renderer=None, config={"forensics_all": True})
    with use_fabric(collector):
        result = run_stress_coverage(
            seeds=range(1), ops_per_run=120, workers=1, telemetry=True
        )
    assert all(r["passed"] for r in result["runs"])
    kept = result.get("forensics")
    assert kept, "forensics_all kept no black boxes for successful jobs"
    for entry in kept:
        assert entry["forensics"]["flight_recorder"]["frames_seen"] > 0
        json.dumps(entry)  # must cross process/report boundaries as JSON

    # default config: success leaves no forensics behind
    plain = run_stress_coverage(seeds=range(1), ops_per_run=120, workers=1)
    assert "forensics" not in plain


# -- tracker unit behavior ---------------------------------------------------


class _Msg:
    __slots__ = ("uid", "mtype", "sender", "dest")

    def __init__(self, uid, mtype="GetM", sender="a", dest="b"):
        self.uid = uid
        self.mtype = mtype
        self.sender = sender
        self.dest = dest


def test_ring_eviction_clears_pending():
    tracker = LineageTracker(capacity=4)
    for uid in range(10):
        tracker.record_send(_Msg(uid), uid, uid + 5, 5)
    assert len(tracker.records) == 4
    assert len(tracker._pending) == 4
    assert tracker.evicted == 6
    # evicted uids are gone; surviving ones still resolve
    assert tracker.begin(0, 20, "service") == 0
    assert tracker.begin(9, 20, "service") != 0


def test_site_hint_and_requeue_kind_are_one_shot():
    tracker = LineageTracker()
    tracker.site_hint = "retry_backoff"
    first = tracker.record_send(_Msg(1), 10, 15, 5)
    second = tracker.record_send(_Msg(2), 10, 15, 5)
    assert tracker.records[first].site == "retry_backoff"
    assert tracker.records[second].site == ""

    lid = tracker.begin(2, 15, "service")
    tracker.requeue_kind = "throttle"
    tracker.requeued(lid, 15)
    assert tracker.records[lid].wait_kind == "throttle"
    lid2 = tracker.begin(1, 20, "service")
    tracker.requeued(lid2, 20)
    assert tracker.records[lid2].wait_kind == "stall"


def test_adopt_cause_only_bridges_unset_causes():
    tracker = LineageTracker()
    probe = tracker.record_send(_Msg(1), 10, 12, 2)
    reply = tracker.record_send(_Msg(2), 30, 33, 3)
    tracker.begin(2, 33, "xg_translate")
    tracker.adopt_cause(probe)
    assert tracker.records[reply].cause == probe
    other = tracker.record_send(_Msg(3), 40, 41, 1)
    tracker.adopt_cause(other)  # already caused: must not be rewritten
    assert tracker.records[reply].cause == probe
