"""Chaos campaigns: an unreliable interconnect against a hardened XG.

The :data:`~repro.testing.scenario.CHAOS` preset keeps an
accelerator-side traffic source and injects *link* faults — drops,
link-layer replay duplicates, delay spikes, payload corruption — on the
XG<->accelerator crossing via a seeded
:class:`~repro.sim.faults.FaultPlan`. The host must never crash or
deadlock, CPU loads stay data-checked, every fault XG could not recover
silently reaches the OS error log, and a wedge reports
:meth:`DeadlockError.diagnose` forensics. The default ``flood``
adversary sends only interface-legal traffic, so every OS-visible
violation in a flood campaign comes from an injected link fault.
"""

from repro.testing.scenario import ALL_HOSTS, ALL_VARIANTS, CHAOS, run_matrix, run_scenario


def run_chaos_campaign(host, xg_variant, faults=None, **changes):
    """Run one chaos campaign; returns (:class:`~repro.testing.scenario.ScenarioResult`, system).

    ``faults`` is a :class:`FaultPlan` or a ``{kind: rate}`` dict for the
    accel link (None: no rates, though ``windows`` may still add
    scheduled outages); ``changes`` override other :data:`CHAOS` fields.
    """
    if faults is not None:
        changes["faults"] = faults
    return run_scenario(CHAOS.replace(host=host, variant=xg_variant, **changes))


def run_chaos_matrix(
    fault_kinds=("drop", "duplicate", "delay", "corrupt"),
    rate=0.2,
    hosts=ALL_HOSTS,
    variants=ALL_VARIANTS,
    adversary=CHAOS.adversary,
    seeds=range(1),
    duration=40_000,
    cpu_ops=600,
    accel_timeout=2000,
    probe_retries=CHAOS.probe_retries,
    workers=1,
):
    """Sweep fault kind x host x XG variant x seed; one row per campaign.

    Also runs a ``mixed`` campaign per (host, variant, seed) with every
    kind active at once — the compound case is where interaction bugs
    (e.g. a duplicate of a delayed retry answer) actually live. Rows are
    labelled with ``fault`` and ``rate``.
    """
    mixes = [(kind, {kind: rate}) for kind in fault_kinds]
    if len(fault_kinds) > 1:
        mixes.append(("mixed", {kind: rate / 2 for kind in fault_kinds}))
    cells = [
        (CHAOS.replace(host=host, variant=variant, faults=rates, adversary=adversary,
                       seed=seed, duration=duration, cpu_ops=cpu_ops,
                       accel_timeout=accel_timeout, probe_retries=probe_retries),
         {"fault": fault_label, "rate": rate})
        for host in hosts
        for variant in variants
        for fault_label, rates in mixes
        for seed in seeds
    ]
    return run_matrix(cells, workers=workers)
