"""Byzantine-accelerator campaigns: rogue plans against a hardened XG.

The :data:`~repro.testing.scenario.ROGUE` preset runs a serializable
:class:`~repro.accel.rogue.RoguePlan` mixing protocol-legal-but-hostile
and outright-illegal traffic. The host must never crash or deadlock and
must keep completing CPU work, the online invariant watchdog must never
fire, and every campaign classifies how XG contained the rogue
(``quarantined`` / ``throttled`` / ``timed_out`` / ``absorbed``);
``escaped`` fails the sweep. ``python -m repro rogue`` drives
:func:`run_rogue_matrix`.
"""

from repro.testing.scenario import (  # noqa: F401 - CONTAINMENT_OUTCOMES re-exported
    ALL_HOSTS,
    ALL_VARIANTS,
    CONTAINMENT_OUTCOMES,
    ROGUE,
    ROGUE_PLANS,
    run_matrix,
    run_scenario,
)


def run_rogue_campaign(host, xg_variant, plan=ROGUE.adversary, **changes):
    """Run one rogue campaign; returns (:class:`~repro.testing.scenario.ScenarioResult`, system).

    ``plan`` is a :data:`ROGUE_PLANS` name or a :class:`RoguePlan`;
    ``changes`` override other :data:`ROGUE` fields. Contested blocks
    force host-initiated Invalidates across to the rogue, so its probe
    reactions (lie / ignore / double-answer) actually fire.
    """
    return run_scenario(ROGUE.replace(host=host, variant=xg_variant, adversary=plan, **changes))


def run_rogue_matrix(
    plans=None,
    hosts=ALL_HOSTS,
    variants=ALL_VARIANTS,
    seeds=range(1),
    duration=40_000,
    cpu_ops=600,
    accel_timeout=2000,
    invariant_interval=ROGUE.invariant_interval,
    workers=1,
):
    """Sweep plan x host x XG variant x seed; one row per campaign.

    ``plans`` defaults to every stock plan.
    """
    if plans is None:
        plans = tuple(ROGUE_PLANS)
    unknown = set(plans) - set(ROGUE_PLANS)
    if unknown:
        raise ValueError(f"unknown rogue plans {sorted(unknown)}")
    cells = [
        (ROGUE.replace(adversary=plan, host=host, variant=variant, seed=seed,
                       duration=duration, cpu_ops=cpu_ops, accel_timeout=accel_timeout,
                       invariant_interval=invariant_interval), {})
        for plan in plans
        for host in hosts
        for variant in variants
        for seed in seeds
    ]
    return run_matrix(cells, workers=workers)
