"""Fuzz / safety campaigns (paper Section 4 safety evaluation).

A fixed adversary from :mod:`repro.accel.buggy` replaces the accelerator
behind Crossing Guard while CPUs run checked traffic beside it. The host
must never crash or deadlock, CPU data on pages the adversary has no
permission on must stay intact (Guarantee 0), and every violation must
reach the OS error log. A campaign is the
:data:`~repro.testing.scenario.FUZZ` preset of
:class:`~repro.testing.scenario.Scenario`.
"""

from repro.testing.scenario import FUZZ, run_scenario


def run_fuzz_campaign(host, xg_variant, protect_cpu_pages=True, share_pool=False, **changes):
    """Run one campaign; returns (:class:`~repro.testing.scenario.ScenarioResult`, system).

    ``changes`` override :data:`FUZZ` fields (``adversary``, ``seed``,
    ``duration``, ...). ``share_pool`` puts CPUs and adversary on the same
    writable pages (layout ``shared``); otherwise ``protect_cpu_pages``
    also aims the adversary at the CPU pages, which carry no permission
    (``probe``), and without it the adversary keeps to its own (``private``).
    """
    if share_pool:
        pages = "shared"
    elif protect_cpu_pages:
        pages = "probe"
    else:
        pages = "private"
    return run_scenario(FUZZ.replace(host=host, variant=xg_variant, pages=pages, **changes))
