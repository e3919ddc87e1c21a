"""Process-pool campaign executor: independent simulations across cores.

Every campaign in this repo — stress coverage (E3), fuzz safety (E4),
chaos sweeps, perf sweeps — is a loop over fully independent
``(config, seed)`` simulations. This module is the one place that loop
learns to fan out:

* jobs are picklable ``(runner, args, kwargs, label)`` specs executed by
  a :class:`concurrent.futures.ProcessPoolExecutor` worker;
* every worker runs with **full error capture**: a
  :class:`~repro.sim.simulator.DeadlockError` is converted worker-side
  into its :meth:`~repro.sim.simulator.DeadlockError.diagnose` forensic
  text (the exception object itself drags the whole simulator along and
  cannot cross a pipe), any other exception into type + message +
  traceback — a worker never hangs or poisons the pool;
* results come back **in submission order**, so a parallel campaign's
  merged output is byte-identical to the serial one — the determinism
  property tests rest on that;
* ``workers=1`` (the default everywhere) runs jobs in-process with the
  exact same code path, preserving today's debuggable serial behavior;
* an optional **telemetry fabric** (:mod:`repro.obs.fabric`) makes the
  campaign observable while it runs: workers stream progress frames to a
  parent-side collector, and failed jobs ship a flight-recorder black box
  in ``CampaignOutcome.forensics``. The fabric rides outside the result
  path — fabric-on and fabric-off campaigns produce byte-identical
  merged results, and a worker that dies mid-job (SIGKILL, OOM) comes
  back as a synthesized ``WorkerLost`` outcome instead of a hung pool.

Pass ``workers=None`` for ``os.cpu_count()``.
"""

import os
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

from repro.sim.simulator import DeadlockError


@dataclass(frozen=True)
class CampaignJob:
    """One unit of campaign work: ``runner(*args, **kwargs)``.

    ``runner`` must be a module-level callable and ``args``/``kwargs``
    picklable — the spec crosses a process boundary when ``workers > 1``.
    """

    runner: object
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    label: str = ""


@dataclass
class CampaignOutcome:
    """What came back for one job, success or not.

    ``value`` is the runner's return value when ``ok``; otherwise
    ``error_type``/``error``/``traceback`` describe the escape, and
    ``diagnosis`` carries :meth:`DeadlockError.diagnose` forensics when
    the escape was a deadlock.
    """

    label: str
    index: int
    ok: bool
    value: object = None
    error_type: str = ""
    error: str = ""
    traceback: str = ""
    diagnosis: str = ""
    #: plain-data forensic record carried by the exception (an
    #: InvariantError annotated by the watchdog), if any
    forensics: object = None

    @property
    def deadlocked(self):
        return self.error_type == "DeadlockError"


def resolve_workers(workers):
    """Normalize a ``workers`` knob: None -> cpu_count, floor at 1."""
    if workers is None:
        workers = os.cpu_count() or 1
    return max(1, int(workers))


def _execute(indexed_job):
    """Run one job with full error capture. Must never raise."""
    index, job = indexed_job
    # The fabric emitter is ambient worker state (installed by the pool
    # initializer or the in-process session); None means fabric off and
    # the job runs exactly the pre-fabric path. Frames and forensics are
    # pure telemetry — the returned outcome's result fields are identical
    # either way, which the fabric equivalence tests assert byte-for-byte.
    from repro.obs.fabric import worker_emitter

    emitter = worker_emitter()
    if emitter is not None:
        emitter.job_started(index, job.label)
    try:
        value = job.runner(*job.args, **job.kwargs)
        forensics = None
        if emitter is not None:
            if emitter.config.get("forensics_all"):
                # --forensics-all: keep the bounded black box even for
                # successful jobs (baseline comparisons, overhead triage)
                forensics = emitter.failure_forensics()
            emitter.job_finished(index, job.label, ok=True)
        return CampaignOutcome(label=job.label, index=index, ok=True,
                               value=value, forensics=forensics)
    except DeadlockError as exc:
        forensics = None
        if emitter is not None:
            forensics = emitter.failure_forensics(exc=exc)
            emitter.job_finished(index, job.label, ok=False,
                                 error_type="DeadlockError")
        return CampaignOutcome(
            label=job.label,
            index=index,
            ok=False,
            error_type="DeadlockError",
            error=str(exc),
            traceback=traceback.format_exc(),
            diagnosis=exc.diagnose(),
            forensics=forensics,
        )
    except BaseException as exc:  # noqa: BLE001 - the pool must survive anything
        # the watchdog annotates InvariantError with a plain-data
        # forensic record; it pickles, the simulator does not
        forensics = getattr(exc, "forensics", None)
        if emitter is not None:
            forensics = emitter.failure_forensics(invariant=forensics, exc=exc)
            emitter.job_finished(index, job.label, ok=False,
                                 error_type=type(exc).__name__)
        return CampaignOutcome(
            label=job.label,
            index=index,
            ok=False,
            error_type=type(exc).__name__,
            error=str(exc),
            traceback=traceback.format_exc(),
            forensics=forensics,
        )


def run_campaign(jobs, workers=1, max_tasks_per_child=None, fabric=None):
    """Execute ``jobs`` and return their outcomes in submission order.

    ``workers <= 1`` runs in-process (same code path, trivially
    debuggable); otherwise a process pool executes jobs concurrently and
    futures are resolved in submission order, so downstream merging is
    deterministic regardless of completion order. Worker-side failures —
    including deadlocks, whose forensics are serialized as text — come
    back as failed :class:`CampaignOutcome` rows, never as a hung or
    broken pool.

    ``fabric`` is an optional :class:`~repro.obs.fabric.FabricCollector`
    (defaults to the ambient one installed by
    :func:`~repro.obs.fabric.use_fabric`, if any). With a fabric attached
    the campaign becomes observable — live worker progress, mergeable
    sketches, flight-recorder forensics on failure — and a worker process
    that dies mid-job is synthesized into a ``WorkerLost`` outcome for
    its shard instead of hanging or aborting the whole campaign.
    """
    jobs = list(jobs)
    workers = resolve_workers(workers)
    indexed = list(enumerate(jobs))
    if fabric is None:
        from repro.obs.fabric import current_fabric

        fabric = current_fabric()
    if fabric is None:
        # pre-fabric path, kept byte-for-byte: the equivalence tests pin
        # fabric-off campaigns to this exact behavior
        if workers == 1 or len(jobs) <= 1:
            return [_execute(pair) for pair in indexed]
        pool_kwargs = {}
        if max_tasks_per_child is not None:
            # py3.11+; bounded-memory knob for very long campaigns
            pool_kwargs["max_tasks_per_child"] = max_tasks_per_child
        with ProcessPoolExecutor(max_workers=min(workers, len(jobs)),
                                 **pool_kwargs) as pool:
            return list(pool.map(_execute, indexed))
    return _run_campaign_fabric(indexed, jobs, workers, max_tasks_per_child,
                                fabric)


def _run_campaign_fabric(indexed, jobs, workers, max_tasks_per_child, fabric):
    """Fabric-attached execution: same outcomes, plus live telemetry."""
    from repro.obs.fabric import init_fabric_worker, inproc_worker

    multiprocess = workers > 1 and len(jobs) > 1
    fabric.begin(len(jobs), multiprocess=multiprocess)
    try:
        if not multiprocess:
            with inproc_worker(fabric):
                return [_execute(pair) for pair in indexed]
        pool_kwargs = {}
        if max_tasks_per_child is not None:
            pool_kwargs["max_tasks_per_child"] = max_tasks_per_child
        with ProcessPoolExecutor(
                max_workers=min(workers, len(jobs)),
                initializer=init_fabric_worker,
                initargs=(fabric.queue, fabric.config),
                **pool_kwargs) as pool:
            futures = [(index, job, pool.submit(_execute, (index, job)))
                       for index, job in indexed]
            outcomes = []
            for index, job, future in futures:
                try:
                    outcomes.append(future.result())
                except BrokenProcessPool as exc:
                    # the worker died without returning (SIGKILL, OOM,
                    # segfault): synthesize a lost-shard outcome so the
                    # campaign completes instead of hanging or raising
                    fabric.job_lost(index, job.label, error=str(exc))
                    outcomes.append(CampaignOutcome(
                        label=job.label,
                        index=index,
                        ok=False,
                        error_type="WorkerLost",
                        error=str(exc),
                        forensics=fabric.lost_forensics(index),
                    ))
            return outcomes
    finally:
        fabric.finish()


def merge_failure_into(template, outcome):
    """Fold a failed outcome into a result-row ``template`` dict.

    Keeps campaign tables rectangular when a worker escapes outside the
    job's own error handling: the row reports the crash with the same
    keys a successful row would carry.
    """
    row = dict(template)
    row["passed"] = False
    row["host_safe"] = False
    row["host_crashed"] = not outcome.deadlocked
    row["host_deadlocked"] = outcome.deadlocked
    row["crash_detail"] = f"{outcome.error_type}: {outcome.error}"
    row["detail"] = row["crash_detail"]
    row["diagnosis"] = outcome.diagnosis
    return row
