"""Constants, the lag autocovariance, its tail sums, and the critical point."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracbin import (
    HurstParams,
    NonconvergenceError,
    TruncationError,
    normalizing_constant,
    rho,
    rho_sq_sum,
    rho_sq_total,
    solve_critical_hurst,
)
from fracbin.hurst import rho_pow_tail, rho_pow_tail_bracket, rho_sq_partial

# 50-digit gamma-oracle values
C_H_GOLDEN = {0.6: 1.0760051841318071863, 0.75: 1.0696446350319903241, 0.9: 0.81122064814335251477}

# 40-digit series+zeta oracle: sum_k rho_h(k)^2
RHO_SQ_TOTAL_GOLDEN = {
    0.525: 0.0017814317566527554,
    0.575: 0.020076558339803564,
    0.625: 0.07590191908314007,
    0.65: 0.13462597847221047,
    0.675: 0.24066496598365034,
    0.7: 0.46431491909189728,
    0.725: 1.1571143376504409,
}

H_C_GOLDEN = 0.6765697566038956  # 120-step extended-precision bisection


def test_normalizing_constant_golden():
    for H, want in C_H_GOLDEN.items():
        assert normalizing_constant(H) == pytest.approx(want, rel=1e-14)


def test_normalizing_constant_limits():
    assert normalizing_constant(0.5 + 1e-9) == pytest.approx(1.0, abs=1e-7)
    assert normalizing_constant(1 - 1e-9) < 1e-4


@pytest.mark.parametrize("H", [0.5, 1.0, 0.2, 1.3])
def test_normalizing_constant_domain(H):
    with pytest.raises(ValueError):
        normalizing_constant(H)


def test_gamma_vs_oracle_ten_points():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    for x in np.linspace(0.05, 3.0, 10):
        assert math.gamma(x) == pytest.approx(float(mp.gamma(x)), rel=1e-13)


@given(st.floats(min_value=0.501, max_value=0.999))
@settings(max_examples=40, deadline=None)
def test_params_derived_ranges(H):
    p = HurstParams(H)
    assert 0.5 < p.h < 0.75
    assert 0.0 < p.alpha < 0.5
    assert 0.5 < p.beta < 1.0
    assert p.c_H > 0 and p.g_H > 0
    assert p.C_H == pytest.approx(p.c_H * p.alpha)
    assert p.g_H == pytest.approx(p.sigma * p.c_H / (H + 0.5))


def test_params_validation():
    with pytest.raises(ValueError):
        HurstParams(0.4)
    with pytest.raises(ValueError):
        HurstParams(0.7, sigma=0.0)
    with pytest.raises(TypeError):
        HurstParams(0.75, 1.0, 0.3)


@pytest.mark.parametrize("name", ["h", "alpha", "beta", "c_H", "C_H", "g_H"])
def test_params_derived_values_are_not_arguments(name):
    with pytest.raises(TypeError):
        HurstParams(0.75, **{name: 0.3})


def test_rho_lag_one_closed_form():
    for h in (0.55, 0.625, 0.7, 0.74):
        assert rho(h, 1) == pytest.approx((2.0 ** (2 * h) - 2.0) / 2.0, rel=1e-15)


def test_rho_boundary_mode():
    with pytest.raises(ValueError):
        rho(0.5, 7)
    with pytest.raises(ValueError):
        rho(0.8, 3)


def test_rho_asymptote_large_lag():
    # against h(2h-1) k^{2h-2}; extended-precision oracle puts the true ratio
    # at 1 + 8e-14 for this (h, k)
    h, k = 0.7, 10**6
    ratio = rho(h, k) / (h * (2 * h - 1) * k ** (2 * h - 2.0))
    assert ratio == pytest.approx(1.0, rel=1e-3)
    assert ratio == pytest.approx(1.0, rel=1e-10)


def test_rho_branch_agreement_at_switchover():
    # direct second difference vs binomial series around the k=64 switch
    for h in (0.55, 0.625, 0.7, 0.74):
        for k in (40, 63, 64, 65, 80, 128):
            p = 2.0 * h
            direct = 0.5 * ((k + 1.0) ** p + (k - 1.0) ** p - 2.0 * k**p)
            assert rho(h, k) == pytest.approx(direct, rel=2e-11)


def test_rho_monotone_in_h():
    ks = np.arange(1, 10**4 + 1)
    grid = np.linspace(0.505, 0.745, 21)
    prev = rho(grid[0], ks)
    for h in grid[1:]:
        cur = rho(h, ks)
        assert np.all(cur > prev)
        prev = cur


def test_rho_lower_bound():
    ks = np.arange(1, 10**4 + 1)
    for h in (0.55, 0.625, 0.7, 0.74):
        assert np.all(rho(h, ks) >= h * (2 * h - 1) / (2.0 * ks ** (2.0 - 2.0 * h)))


def test_rho_sq_total_golden():
    for h, want in RHO_SQ_TOTAL_GOLDEN.items():
        assert rho_sq_total(h) == pytest.approx(want, rel=1e-11)


def test_rho_pow_tail_matches_direct_summation():
    h, K = 0.68, 500
    ks = np.arange(K + 1, 300_001)
    for p in (2, 4):
        direct = float(np.sum(rho(h, ks) ** p)) + rho_pow_tail(h, 300_000, p)
        assert rho_pow_tail(h, K, p) == pytest.approx(direct, rel=1e-11)


@pytest.mark.parametrize("power", [2, 4, 6, 8])
def test_rho_pow_tail_bracket_holds_the_tail(power):
    # characteristic_function decides its S8 test from this bracket; it must
    # hold the float tail itself, and is narrow enough to decide nearly always
    for h in (0.5001, 0.55, 0.6, 0.65, 0.7, 0.7499):
        for K in (64, 65, 100, 1000, 8192, 1 << 16, (1 << 22) - 1, 1 << 22):
            lo, hi = rho_pow_tail_bracket(h, K, power)
            value = rho_pow_tail(h, K, power)
            assert lo <= value <= hi, (h, K)
            assert hi - lo <= 1e-6 * value, (h, K)
    with pytest.raises(ValueError):
        rho_pow_tail_bracket(0.6, 63, power)


def test_rho_sq_partial_consistency():
    h = 0.66
    direct = float(np.sum(rho(h, np.arange(1, 5001)) ** 2))
    assert rho_sq_partial(h, 5000) == pytest.approx(direct, rel=1e-13)
    assert rho_sq_partial(h, 5000) + rho_pow_tail(h, 5000, 2) == pytest.approx(
        rho_sq_total(h), rel=1e-13
    )


def test_rho_sq_sum_golden():
    # smallest K whose exact tail meets 2e-2, oracle-checked on both sides
    ts = rho_sq_sum(0.7, 2e-2)
    assert ts.K == 2892547
    assert ts.partial_sum_sq == pytest.approx(0.4443149204059508, rel=1e-10)
    assert ts.tail_bound <= 2e-2


def test_rho_sq_sum_monotone_in_target():
    a = rho_sq_sum(0.65, 1e-2)
    b = rho_sq_sum(0.65, 1e-3)
    assert b.K > a.K
    assert b.partial_sum_sq > a.partial_sum_sq
    assert a.partial_sum_sq + a.tail_bound == pytest.approx(rho_sq_total(0.65), rel=1e-12)


def test_rho_sq_sum_small_h_partial_vanishes():
    assert rho_sq_partial(0.5001, 1000) < 1e-6
    assert rho_sq_partial(0.5001, 1000) < rho_sq_partial(0.6, 1000)


def test_rho_sq_zeta_lower_bound():
    from scipy.special import zeta

    for h in (0.6, 0.65, 0.7):
        floor = h**2 * (2 * h - 1) ** 2 / 4.0 * float(zeta(4.0 - 4.0 * h))
        assert rho_sq_total(h) >= floor


def test_rho_sq_sum_infeasible_target():
    with pytest.raises(TruncationError):
        rho_sq_sum(0.7, 1e-10)


def test_solve_critical_hurst_golden():
    h_c, H_c = solve_critical_hurst(1e-8)
    assert 0.5 < h_c < 0.75
    assert 0.5 < H_c < 1.0
    assert H_c == pytest.approx(2.0 * h_c - 0.5, abs=0.0)
    assert abs(rho_sq_total(h_c) - 0.25) <= 1e-8
    assert h_c == pytest.approx(H_C_GOLDEN, abs=5e-10)


def test_solve_critical_hurst_bisects_past_1e10_to_meet_a_tight_tol():
    # the default tol stops at the 1e-10 bracket (the report's h_c); a tighter
    # one keeps bisecting until the residual is within it
    assert solve_critical_hurst(1e-8)[0] == 0.6765697566101039
    h_c, H_c = solve_critical_hurst(1e-12)
    assert abs(rho_sq_total(h_c) - 0.25) <= 1e-12
    assert H_c == 2.0 * h_c - 0.5


def test_solve_critical_hurst_raises_when_adjacent_doubles_miss_tol():
    # the series sum is only good to about 1e-15
    with pytest.raises(NonconvergenceError, match="adjacent doubles"):
        solve_critical_hurst(1e-300)


def test_solve_critical_hurst_validation():
    with pytest.raises(ValueError):
        solve_critical_hurst(-1.0)


def test_params_reject_infinite_sigma():
    with pytest.raises(ValueError, match="finite"):
        HurstParams(0.75, sigma=math.inf)
