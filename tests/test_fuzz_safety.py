"""Safety tests: byzantine accelerators vs the host (paper Section 4).

CI-scale versions of the E4 fuzz campaigns. The assertions ARE the
paper's claims: the host never crashes or deadlocks, protected CPU data
stays correct, and every injected violation reaches the OS error log.
"""

import pytest

from repro.accel.buggy import FloodingAccel
from repro.host.config import HostProtocol
from repro.testing.fuzzer import run_fuzz_campaign
from repro.testing.scenario import CHAOS, FUZZ, run_scenario
from repro.xg.interface import AccelMsg, XGVariant

MATRIX = [
    (host, variant)
    for host in (HostProtocol.MESI, HostProtocol.HAMMER, HostProtocol.MESIF)
    for variant in (XGVariant.FULL_STATE, XGVariant.TRANSACTIONAL)
]
IDS = [f"{h.name.lower()}-{v.name.lower()}" for h, v in MATRIX]


@pytest.mark.parametrize("host,variant", MATRIX, ids=IDS)
def test_random_fuzz_never_crashes_host(host, variant):
    result, system = run_fuzz_campaign(
        host, variant, adversary="fuzz", seed=11, duration=30_000, cpu_ops=600
    )
    assert result.host_safe, result.crash_detail
    assert result.cpu_loads_checked > 0, "CPUs must keep making progress"
    assert result.violations_total > 0, "violations must be visible to the OS"
    assert result.adversary_messages > 500


@pytest.mark.parametrize("host,variant", MATRIX, ids=IDS)
def test_deaf_accelerator_recovered_by_timeouts(host, variant):
    result, system = run_fuzz_campaign(
        host, variant, adversary="deaf", seed=3, duration=30_000, cpu_ops=400,
        share_pool=True, accel_timeout=1500,
    )
    assert result.host_safe, result.crash_detail
    assert result.violations.get("G2C_TIMEOUT", 0) > 0
    assert result.cpu_loads_checked + result.cpu_stores_committed > 0


@pytest.mark.parametrize("host,variant", MATRIX, ids=IDS)
def test_wrong_responder_corrected(host, variant):
    result, system = run_fuzz_campaign(
        host, variant, adversary="wrong", seed=7, duration=30_000, cpu_ops=400,
        share_pool=True,
    )
    assert result.host_safe, result.crash_detail


def test_flooding_accelerator_host_safe():
    result, system = run_fuzz_campaign(
        HostProtocol.MESI, XGVariant.FULL_STATE, adversary="flood",
        seed=5, duration=20_000, cpu_ops=800,
        adversary_kwargs={"gap": 2}, protect_cpu_pages=False,
    )
    assert result.host_safe
    assert result.cpu_loads_checked > 0


def test_rate_limiter_reduces_admitted_flood():
    unlimited, sys_a = run_fuzz_campaign(
        HostProtocol.MESI, XGVariant.FULL_STATE, adversary="flood",
        seed=5, duration=20_000, cpu_ops=800,
        adversary_kwargs={"gap": 2}, protect_cpu_pages=False,
    )
    limited, sys_b = run_fuzz_campaign(
        HostProtocol.MESI, XGVariant.FULL_STATE, adversary="flood",
        seed=5, duration=20_000, cpu_ops=800,
        adversary_kwargs={"gap": 2}, protect_cpu_pages=False,
        rate_limit=(4, 100),
    )
    assert limited.host_safe
    assert sys_b.xg.rate_limiter.throttled > 0
    assert sys_b.xg.rate_limiter.admitted < sys_a.xg.rate_limiter.admitted


def test_no_permission_pages_fully_shielded():
    """Fuzzing across pages with no permissions: every access blocked and
    reported, zero host traffic for them (also: no coherence side channel)."""
    result, system = run_fuzz_campaign(
        HostProtocol.MESI, XGVariant.FULL_STATE, adversary="fuzz",
        seed=13, duration=20_000, cpu_ops=400, protect_cpu_pages=True,
    )
    assert result.host_safe
    assert result.violations.get("G0A_READ_PERMISSION", 0) > 0
    assert result.cpu_loads_checked > 0  # and all of them data-checked


def test_transactional_tolerant_host_absorbs_bad_writebacks():
    result, system = run_fuzz_campaign(
        HostProtocol.MESI, XGVariant.TRANSACTIONAL, adversary="wrong",
        seed=9, duration=30_000, cpu_ops=400, share_pool=True,
    )
    assert result.host_safe
    # the L2 sank at least one anomaly on the accelerator's behalf OR the
    # XG corrected it — either way the host kept running.
    anomalies = system.directory.stats.get("protocol_anomalies")
    assert anomalies >= 0  # presence depends on interleaving; safety is above


def _list_based_flood_tick(self):
    """The flood tick before its idle path went cheap: the oracle below."""
    if self.stopped:
        return
    rng = self.sim.rng
    free = [a for a in self.addr_pool if a not in self.held]
    if free:
        addr = rng.choice(free)
        self.held[addr] = self.sim.tick
        self._emit(AccelMsg.GetM, addr, "accel_request")
        self.requests_sent += 1
    elif self.retry_after is not None:
        stuck = [
            a for a, since in self.held.items()
            if self.sim.tick - since >= self.retry_after
        ]
        if stuck:
            addr = rng.choice(stuck)
            self.held[addr] = self.sim.tick
            self._emit(AccelMsg.GetM, addr, "accel_request")
            self.retries_sent += 1
    self.sim.schedule(self.gap, self._tick)


def _flood_trace(monkeypatch, scenario, tick=None):
    emitted = []
    real_emit = FloodingAccel._emit

    def logged_emit(self, mtype, addr, port, data=None, dirty=False):
        emitted.append((self.sim.tick, mtype.name, addr, port))
        return real_emit(self, mtype, addr, port, data=data, dirty=dirty)

    with monkeypatch.context() as patch:
        patch.setattr(FloodingAccel, "_emit", logged_emit)
        if tick is not None:
            patch.setattr(FloodingAccel, "_tick", tick)
        _result, system = run_scenario(scenario)
    flood = system.accel_caches[0]
    return (emitted, flood.requests_sent, flood.retries_sent, dict(flood.held),
            system.sim.tick, system.sim.rng.getstate())


@pytest.mark.parametrize("retry_after", [None, 48])
def test_flood_tick_matches_list_based_oracle(monkeypatch, retry_after):
    """Same messages, same ticks, same RNG state as the list-based tick,
    with and without re-requests of addresses the lossy link stranded."""
    preset = FUZZ if retry_after is None else CHAOS
    kwargs = {} if retry_after is None else {"retry_after": retry_after}
    scenario = preset.replace(adversary="flood", duration=6000, cpu_ops=60,
                              adversary_kwargs=kwargs)
    fast = _flood_trace(monkeypatch, scenario)
    oracle = _flood_trace(monkeypatch, scenario, tick=_list_based_flood_tick)
    assert fast == oracle
    assert fast[1] > 0
    if retry_after is not None:
        assert fast[2] > 0, "the lossy link must strand some addresses"


def test_flood_with_an_empty_pool_stays_idle():
    scenario = FUZZ.replace(adversary="flood", duration=200, cpu_ops=5,
                            adversary_kwargs={"addr_pool": [], "retry_after": 1})
    _result, system = run_scenario(scenario)
    assert system.accel_caches[0].requests_sent == 0
