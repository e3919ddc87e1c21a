"""Golden-run equivalence suite + committed digest regression gate.

Two layers of protection for the compiled dispatch fast path:

1. **Equivalence** — every scenario digest (transition sequence, final
   memory image, stats) must be identical under ``compiled`` and
   ``legacy`` dispatch, across all hosts x accelerator organizations.
   This is the tentpole's proof obligation.
2. **Pinned digests** — seed-run digests for the configs in
   ``PINNED_CONFIGS`` are committed in ``tests/golden/digests.json``: a
   stress run per host protocol, the MESIF XG port, L2-pressure runs
   (``l2press``) that reach the MESI and MESIF inclusive evictions, a
   chaos run with duplicated and dropped crossing messages, and a fuzz
   run on the fixed-adversary path. Any change that perturbs a
   transition sequence, the end state or the stats fails here until the
   digests are
   deliberately refreshed (``python -m repro golden --update``) and the
   behavior change is explained in the PR.
"""

import os

import pytest

from repro.host.config import AccelOrg, HostProtocol
from repro.testing.golden import (
    PINNED_CONFIGS,
    compare_modes,
    golden_run,
    load_pinned,
)
from repro.xg.interface import XGVariant

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden", "digests.json")

STRESS_CASES = [(host, org) for host in HostProtocol for org in AccelOrg]


@pytest.mark.parametrize(
    "host,org", STRESS_CASES,
    ids=[f"{h.name.lower()}-{o.name.lower()}" for h, o in STRESS_CASES],
)
def test_stress_equivalence_all_hosts_all_orgs(host, org):
    compiled, legacy = compare_modes("stress", host, org, ops=150)
    assert compiled == legacy
    # A trivially-empty run would vacuously pass; demand real traffic.
    assert compiled["transitions_count"] > 100


@pytest.mark.parametrize("host", list(HostProtocol), ids=lambda h: h.name.lower())
def test_fuzz_equivalence(host):
    """Adversarial traffic exercises the error/guard paths too."""
    compiled, legacy = compare_modes("fuzz", host, ops=150)
    assert compiled == legacy
    assert compiled["transitions_count"] > 100


@pytest.mark.parametrize(
    "variant", list(XGVariant), ids=lambda v: v.name.lower()
)
def test_chaos_equivalence_both_variants(variant):
    """Link faults + flooding: the harshest message orderings we have."""
    compiled, legacy = compare_modes(
        "chaos", HostProtocol.MESI, xg_variant=variant, ops=120
    )
    assert compiled == legacy
    assert compiled["transitions_count"] > 100


def test_equivalence_covers_distinct_behaviors():
    """Different configs must produce different digests — otherwise the
    equivalence assertions above could be comparing a constant."""
    a = golden_run("stress", HostProtocol.MESI, AccelOrg.XG, ops=150)
    b = golden_run("stress", HostProtocol.HAMMER, AccelOrg.XG, ops=150)
    assert a["transitions"] != b["transitions"]
    assert a["stats"] != b["stats"]


# -- committed digest regression ---------------------------------------------


def _pinned():
    return load_pinned(GOLDEN_PATH)


def test_pinned_digest_file_shape():
    pinned = _pinned()
    assert set(pinned["digests"]) == {
        f"{scenario}/{host.name.lower()}/{org.name.lower()}"
        for scenario, host, org in PINNED_CONFIGS
    }
    for digest in pinned["digests"].values():
        assert set(digest) >= {
            "transitions", "transitions_count", "memory", "stats", "final_tick"
        }


@pytest.mark.parametrize(
    "scenario,host,org", PINNED_CONFIGS,
    ids=[f"{s}-{h.name.lower()}-{o.name.lower()}" for s, h, o in PINNED_CONFIGS],
)
def test_pinned_digests_unchanged(scenario, host, org):
    """Seed-run behavior is pinned. If this fails, a change perturbed the
    transition sequences / memory image / stats of a golden run: either
    fix the regression, or — if the change is deliberate — refresh with
    `python -m repro golden --update` and say so in the PR."""
    pinned = _pinned()
    label = f"{scenario}/{host.name.lower()}/{org.name.lower()}"
    fresh = golden_run(
        scenario, host, org, seed=pinned["seed"], ops=pinned["ops"]
    )
    assert fresh == pinned["digests"][label]
