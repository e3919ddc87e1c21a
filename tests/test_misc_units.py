"""Small-unit coverage: message carriers, reports, perf plumbing."""

import pytest

from repro.coherence.coverage import collect_coverage
from repro.eval.perf import perf_configs, run_one
from repro.host.config import AccelOrg, HostProtocol
from repro.sim.message import Message
from repro.sim.stats import Histogram
from repro.workloads.synthetic import PERF_WORKLOADS


def test_message_defaults_and_repr():
    msg = Message("Ping", 0x1040, sender="a", dest="b")
    assert msg.data is None and msg.ack_count == 0 and not msg.dirty
    assert msg.value is None
    text = repr(msg)
    assert "Ping" in text and "a->b" in text and "0x1040" in text


def test_message_uids_unique():
    uids = {Message("m", 0).uid for _ in range(100)}
    assert len(uids) == 100


def test_message_repr_shows_payload_flags():
    from repro.memory.datablock import DataBlock

    msg = Message("D", 0x40, sender="x", dest="y", data=DataBlock(), dirty=True,
                  ack_count=3, requestor="r")
    text = repr(msg)
    assert "+data" in text and "dirty" in text and "acks=3" in text and "req=r" in text


def test_histogram_buckets_track_distribution():
    hist = Histogram(bucket_width=10)
    for value in (1, 5, 11, 25, 25):
        hist.observe(value)
    assert hist.buckets[0] == 2
    assert hist.buckets[1] == 1
    assert hist.buckets[2] == 2
    report = hist.as_dict()
    assert report["count"] == 5 and report["min"] == 1 and report["max"] == 25


def test_perf_configs_cover_six_orgs():
    configs = perf_configs(HostProtocol.MESI)
    labels = [c.label for c in configs]
    assert len(labels) == 6
    assert labels[0] == "mesi/accel-side"
    assert "mesi/xg-txn-L2" in labels


def test_run_one_returns_metrics_and_clean_errors():
    builder = PERF_WORKLOADS(scale=1)["graph_walk"]
    config = perf_configs(HostProtocol.MESI)[2]  # xg-full-L1
    row, _system = run_one(config, builder)
    assert row["ticks"] > 0
    assert row["accel_mean_latency"] > 0
    assert row["xg_errors"] == 0


def test_collect_coverage_groups_by_type():
    from repro.host.config import SystemConfig
    from repro.host.system import build_system

    system = build_system(SystemConfig(org=AccelOrg.XG, n_cpus=2))
    system.cpu_seqs[0].load(0x1000)
    system.sim.run()
    reports = collect_coverage(
        [c for c in system.sim.components if hasattr(c, "coverage")]
    )
    assert "mesi_l1" in reports and "mesi_l2" in reports
    assert reports["mesi_l1"].visited, "the load visited transitions"


def test_perf_workloads_scale_parameter():
    small = PERF_WORKLOADS(scale=1)
    large = PERF_WORKLOADS(scale=3)
    assert set(small) == set(large) == {
        "streaming", "blocked_decode", "graph_walk", "write_coalesce", "shared_pingpong",
    }


def test_full_run_determinism_end_to_end():
    builder = PERF_WORKLOADS(scale=1)["blocked_decode"]
    config = perf_configs(HostProtocol.HAMMER, seed=13)[3]

    def one():
        row, system = run_one(config, builder)
        return row["ticks"], row["host_net_messages"]

    assert one() == one()


def _enum_classes_in_repro():
    import enum
    import importlib
    import pkgutil

    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)
    pending, found = [enum.Enum], []
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if cls.__module__.startswith("repro."):
            found.append(cls)
    return found


def test_every_repro_enum_hashes_by_identity():
    """Member hashing stays C-level: no Python ``Enum.__hash__`` frame per
    dict probe on the dispatch, coverage and XG event maps."""
    classes = _enum_classes_in_repro()
    assert len(classes) >= 27
    assert [cls.__name__ for cls in classes if cls.__hash__ is not object.__hash__] == []


def test_name_of_renders_like_getattr_name_str():
    from repro.protocols.mesi.messages import MesiMsg
    from repro.sim.idenum import name_of

    class Named:
        name = None

    for value in (MesiMsg.GetS, "probe", 7, None, Named()):
        assert name_of(value) == getattr(value, "name", str(value))
