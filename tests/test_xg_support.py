"""Unit tests for XG support modules: permissions, rate limiter, errors,
interface constants, coverage reporting."""

import pytest
from hypothesis import given, strategies as st

from repro.coherence.coverage import CoverageReport
from repro.xg.errors import Guarantee, XGErrorLog
from repro.xg.interface import (
    ACCEL_GET_REQUESTS,
    ACCEL_PUT_REQUESTS,
    ACCEL_RESPONSES,
    AccelMsg,
    legal_data_grants,
)
from repro.xg.permissions import PagePermission, PermissionTable
from repro.xg.rate_limiter import RateLimiter


# -- interface ---------------------------------------------------------------

def test_interface_message_counts_match_paper():
    """Five accel requests, four XG responses, one XG request, three accel
    responses (Section 2.1)."""
    assert len(ACCEL_GET_REQUESTS | ACCEL_PUT_REQUESTS) == 5
    xg_responses = {AccelMsg.DataS, AccelMsg.DataE, AccelMsg.DataM, AccelMsg.WBAck}
    assert len(xg_responses) == 4
    assert len(ACCEL_RESPONSES) == 3


def test_legal_data_grants():
    assert legal_data_grants(AccelMsg.GetS) == (
        AccelMsg.DataS, AccelMsg.DataE, AccelMsg.DataM,
    )
    assert AccelMsg.DataS not in legal_data_grants(AccelMsg.GetM)
    with pytest.raises(ValueError):
        legal_data_grants(AccelMsg.PutS)


# -- permissions ---------------------------------------------------------------

def test_permission_lattice():
    assert not PagePermission.NONE.allows_read()
    assert PagePermission.READ.allows_read()
    assert not PagePermission.READ.allows_write()
    assert PagePermission.READ_WRITE.allows_write()


def test_permission_table_grant_revoke():
    table = PermissionTable(default=PagePermission.NONE)
    table.grant(0x10000, PagePermission.READ_WRITE)
    assert table.allows_write(0x10ABC)  # same page
    assert not table.allows_read(0x20000)
    table.revoke(0x10000)
    assert not table.allows_read(0x10ABC)


def test_permission_table_range_grant():
    table = PermissionTable(default=PagePermission.NONE)
    table.grant(0x1000, PagePermission.READ, length=3 * 4096)
    assert table.allows_read(0x1000)
    assert table.allows_read(0x3FFF)
    assert not table.allows_read(0x5000)


@given(
    st.integers(min_value=0, max_value=2**30),
    st.sampled_from(list(PagePermission)),
)
def test_permission_applies_to_whole_page(addr, perm):
    table = PermissionTable(default=PagePermission.NONE)
    table.grant(addr, perm)
    page = table.page_of(addr)
    assert table.lookup(page) is perm
    assert table.lookup(page + 4095) is perm


# -- rate limiter ----------------------------------------------------------------

def test_unlimited_rate_always_admits():
    limiter = RateLimiter()
    assert all(limiter.acquire(t) == 0 for t in range(100))
    assert limiter.admitted == 100


def test_burst_then_throttle():
    limiter = RateLimiter(rate=2, period=100, burst=2)
    assert limiter.acquire(0) == 0
    assert limiter.acquire(0) == 0
    wait = limiter.acquire(0)
    assert wait > 0
    assert limiter.throttled == 1


def test_tokens_refill_over_time():
    limiter = RateLimiter(rate=1, period=10, burst=1)
    assert limiter.acquire(0) == 0
    wait = limiter.acquire(0)
    assert wait > 0
    assert limiter.acquire(wait + 1) == 0  # refilled by then


def test_steady_state_rate_respected():
    limiter = RateLimiter(rate=5, period=100, burst=5)
    admitted = 0
    for tick in range(1000):
        if limiter.acquire(tick) == 0:
            admitted += 1
    # 5 per 100 ticks over 1000 ticks ~ 50 (+burst)
    assert 45 <= admitted <= 60


def test_os_register_rate_change():
    limiter = RateLimiter(rate=1, period=100, burst=1)
    limiter.acquire(0)
    assert limiter.acquire(0) > 0
    limiter.set_rate(100, period=100, burst=100)
    assert limiter.acquire(1) == 0


def test_invalid_rate_rejected():
    with pytest.raises(ValueError):
        RateLimiter(rate=0)


# -- error log -----------------------------------------------------------------------

def test_error_log_records_and_counts():
    log = XGErrorLog()
    log.report(10, Guarantee.G0A_READ_PERMISSION, 0x40, "no access")
    log.report(20, Guarantee.G2C_TIMEOUT, 0x80, "deaf")
    log.report(30, Guarantee.G2C_TIMEOUT, 0xC0, "deaf again")
    assert len(log) == 3
    assert log.count(Guarantee.G2C_TIMEOUT) == 2
    assert log.by_guarantee()[Guarantee.G0A_READ_PERMISSION] == 1
    assert not log.accel_disabled


def test_error_log_disable_policy():
    log = XGErrorLog(disable_after=2)
    log.report(1, Guarantee.G1A_STABLE_REQUEST, 0x0, "x")
    assert not log.accel_disabled
    log.report(2, Guarantee.G1A_STABLE_REQUEST, 0x0, "y")
    assert log.accel_disabled


# -- coverage report --------------------------------------------------------------------

class _FakeController:
    CONTROLLER_TYPE = "fake"

    def __init__(self, visited, possible):
        self.coverage = dict(visited)
        self._possible = set(possible)

    def possible_transitions(self):
        return self._possible


def test_coverage_fraction_and_missing():
    ctrl = _FakeController({("A", "x"): 3}, [("A", "x"), ("A", "y")])
    report = CoverageReport("fake")
    report.add_instance(ctrl)
    assert report.fraction == 0.5
    assert report.missing == {("A", "y")}


def test_coverage_merge_accumulates():
    a = CoverageReport("fake")
    a.add_instance(_FakeController({("A", "x"): 1}, [("A", "x"), ("A", "y")]))
    b = CoverageReport("fake")
    b.add_instance(_FakeController({("A", "y"): 1}, [("A", "x"), ("A", "y")]))
    a.merge(b)
    assert a.fraction == 1.0
    with pytest.raises(ValueError):
        a.merge(CoverageReport("other"))


# -- context-switch cost ---------------------------------------------------------

def test_context_switch_cost_shapes():
    from repro.host.config import AccelOrg, SystemConfig
    from repro.host.system import build_system
    from repro.xg.interface import XGVariant

    for variant, expect_mirror in (
        (XGVariant.FULL_STATE, True),
        (XGVariant.TRANSACTIONAL, False),
    ):
        system = build_system(
            SystemConfig(org=AccelOrg.XG, xg_variant=variant, n_cpus=1, n_accel_cores=1)
        )
        system.accel_seqs[0].store(0x1000, 1)
        system.sim.run()
        cost = system.xg.context_switch_cost()
        if expect_mirror:
            assert cost["blocks_to_invalidate"] == 1
            assert cost["owned_blocks_to_write_back"] == 1
        else:
            assert cost["blocks_to_invalidate"] == 0
        assert cost["open_transactions_to_drain"] == 0
