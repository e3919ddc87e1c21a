"""Campaign executor: parallel-vs-serial equivalence and error capture.

The claims under test are the ones every parallel campaign rests on:

* any ``workers`` count produces byte-identical merged output (results
  come back in submission order, not completion order);
* a worker-side escape — including a forced ``DeadlockError`` — comes
  back as a failed :class:`CampaignOutcome` carrying forensics, and
  never hangs or poisons the pool;
* a worker process that dies mid-job comes back as a ``WorkerLost``
  outcome, with or without a telemetry fabric.

All runners here are module-level so the job specs stay picklable.
"""

import dataclasses
import json
import os
import signal

from repro.eval.campaign import (
    CampaignJob,
    merge_failure_into,
    resolve_workers,
    run_campaign,
)
from repro.eval.experiments import run_stress_coverage
from repro.host.config import HostProtocol
from repro.sim.component import Component
from repro.sim.message import Message
from repro.sim.simulator import Simulator
from repro.testing.chaos import run_chaos_matrix
from repro.xg.interface import XGVariant


def _square(x):
    return x * x


def _boom(msg):
    raise ValueError(msg)


def _die(code):
    os.kill(os.getpid(), signal.SIGKILL)


class _Lazy(Component):
    PORTS = ("inbox",)

    def wakeup(self):
        pass  # never consumes: guaranteed final-check deadlock


def _wedge(trace_depth):
    """Deliberately deadlock a tiny simulator (message never consumed)."""
    sim = Simulator(trace_depth=trace_depth)
    lazy = _Lazy(sim, "lazy")
    lazy.deliver("inbox", 1, Message("m", 0, dest="lazy"))
    sim.run()


def test_resolve_workers():
    assert resolve_workers(1) == 1
    assert resolve_workers(3) == 3
    assert resolve_workers(0) == 1
    assert resolve_workers(-2) == 1
    assert resolve_workers(None) >= 1


def test_outcomes_in_submission_order_serial_and_parallel():
    jobs = [CampaignJob(runner=_square, args=(i,), label=f"j{i}") for i in range(7)]
    serial = run_campaign(jobs, workers=1)
    parallel = run_campaign(jobs, workers=3)
    assert [o.value for o in serial] == [i * i for i in range(7)]
    assert serial == parallel
    assert [o.index for o in parallel] == list(range(7))
    assert all(o.ok for o in parallel)


def test_worker_exception_captured_not_raised():
    jobs = [
        CampaignJob(runner=_square, args=(2,), label="ok"),
        CampaignJob(runner=_boom, args=("kaput",), label="bad"),
        CampaignJob(runner=_square, args=(3,), label="after"),
    ]
    for workers in (1, 2):
        outcomes = run_campaign(jobs, workers=workers)
        assert [o.ok for o in outcomes] == [True, False, True], workers
        bad = outcomes[1]
        assert bad.error_type == "ValueError"
        assert bad.error == "kaput"
        assert "ValueError" in bad.traceback
        assert not bad.deadlocked
        # the pool survived: the job after the failure still ran
        assert outcomes[2].value == 9


def test_forced_deadlock_surfaces_diagnosis():
    jobs = [CampaignJob(runner=_wedge, args=(depth,), label=f"d{depth}")
            for depth in (64, 0)]
    for workers in (1, 2):
        outcomes = run_campaign(jobs, workers=workers)
        for outcome in outcomes:
            assert not outcome.ok
            assert outcome.deadlocked
            assert outcome.error_type == "DeadlockError"
            assert outcome.diagnosis, "diagnose() text must cross the pipe"
            assert "components with pending work" in outcome.diagnosis
    # trace_depth=0 workers still produce a (degraded) diagnosis
    assert "trace disabled" in outcomes[1].diagnosis


def test_worker_killed_without_fabric_yields_worker_lost():
    """A killed worker used to raise BrokenProcessPool out of the campaign
    when no fabric was attached, losing every finished outcome."""
    jobs = [
        CampaignJob(runner=_square, args=(2,), label="ok"),
        CampaignJob(runner=_die, args=(0,), label="victim"),
        CampaignJob(runner=_square, args=(3,), label="after"),
    ]
    outcomes = run_campaign(jobs, workers=2)
    assert [o.label for o in outcomes] == ["ok", "victim", "after"]
    assert [o.index for o in outcomes] == [0, 1, 2]
    victim = outcomes[1]
    assert not victim.ok and victim.error_type == "WorkerLost"
    assert victim.forensics is None
    for outcome in (outcomes[0], outcomes[2]):
        # a job that shared the broken pool may be lost with it
        assert outcome.ok or outcome.error_type == "WorkerLost"


def test_merge_failure_into_keeps_row_rectangular():
    outcome = run_campaign(
        [CampaignJob(runner=_boom, args=("x",), label="only")], workers=1
    )[0]
    row = merge_failure_into({"config": "c", "seed": 4, "passed": True}, outcome)
    assert row["config"] == "c" and row["seed"] == 4
    assert row["passed"] is False
    assert row["host_safe"] is False
    assert row["host_crashed"] is True and row["host_deadlocked"] is False
    assert row["crash_detail"] == "ValueError: x"
    assert row["detail"] == row["crash_detail"]


def test_stress_coverage_parallel_byte_identical_to_serial():
    kwargs = dict(seeds=range(1), ops_per_run=200, num_blocks=3)
    serial = run_stress_coverage(workers=1, **kwargs)
    parallel = run_stress_coverage(workers=2, **kwargs)
    assert serial["runs"] == parallel["runs"]
    assert serial["coverage"] == parallel["coverage"]
    assert json.dumps(serial, sort_keys=True) == json.dumps(parallel, sort_keys=True)
    assert all(r["passed"] for r in serial["runs"])


def test_chaos_matrix_parallel_identical_to_serial():
    kwargs = dict(
        fault_kinds=("drop", "duplicate"),
        rate=0.1,
        hosts=(HostProtocol.MESI,),
        variants=(XGVariant.FULL_STATE,),
        seeds=range(1),
        duration=6_000,
        cpu_ops=100,
    )
    serial = run_chaos_matrix(workers=1, **kwargs)
    parallel = run_chaos_matrix(workers=2, **kwargs)
    assert len(serial) == 3  # drop, duplicate, mixed
    assert serial == parallel


def test_campaign_job_spec_is_picklable():
    import pickle

    job = CampaignJob(runner=_square, args=(5,), kwargs={}, label="p")
    clone = pickle.loads(pickle.dumps(job))
    assert clone.runner(*clone.args) == 25
    assert dataclasses.asdict(clone)["label"] == "p"
