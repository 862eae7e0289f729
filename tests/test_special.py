"""fracbin.special against scipy.special and mpmath, which stay test dependencies.

zeta and ndtri are ports of the cephes code that scipy wraps, so they must
agree bit for bit; the Gauss rules and betainc are checked against
high-precision values, each with the error budget its caller assumes.
"""

import math

import numpy as np
import pytest
import scipy.special as sp

from fracbin.special import _gauss_rule, betainc, ndtri, zeta

mp = pytest.importorskip("mpmath")

EPS = np.finfo(float).eps


def test_zeta_is_bit_identical_to_scipy():
    rng = np.random.default_rng(20261020)
    # rho_pow_tail's exponents 2r - 2*power*h for power 2..8, h in (1/2, 3/4),
    # r up to 10*power, at q = K+1 for K from 64 to the sampler cap 2^22 and past 1e8
    xs = np.concatenate([rng.uniform(1.0001, 1.1, 200), rng.uniform(1.02, 180.0, 1800)])
    qs = np.concatenate([rng.integers(65, 4_194_306, 1000).astype(float),
                         [65.0, 1001.0, 8193.0, 32769.0, 4_194_305.0, 1e8, 1e8 + 1.0, 3e9]])
    pairs = [(float(x), float(q)) for x in xs for q in rng.choice(qs, 6)]
    # q**-x underflows to 0 for every term: the result is 0, as in C
    pairs += [(x, q) for x in (180.0, 400.0, 1500.0) for q in (65.0, 8193.0, 4_194_305.0)]
    mine = np.array([zeta(x, q) for x, q in pairs])
    theirs = sp.zeta(*np.array(pairs).T)
    assert mine.tobytes() == theirs.tobytes()
    assert zeta(1500.0, 4_194_305.0) == 0.0


def test_ndtri_is_bit_identical_to_scipy():
    rng = np.random.default_rng(7)
    ys = np.concatenate([
        rng.uniform(0.0, 1.0, 4000),  # all three branches
        rng.uniform(0.5 - 0.375, 0.5 + 0.375, 1000),  # the central P0/Q0 fit
        10.0 ** -rng.uniform(0.9, 13.0, 1000),  # lower tail, z < 8 (P1/Q1)
        10.0 ** -rng.uniform(14.0, 300.0, 1000),  # lower tail, z >= 8 (P2/Q2)
        1.0 - 10.0 ** -rng.uniform(0.9, 16.0, 1000),  # upper tail
        [5e-324, 1e-300, 0.5, 0.5 * (1.0 + 0.9), 0.5 * (1.0 + 0.99), 0.5 * (1.0 + 0.999)],
    ])
    ys = ys[(ys > 0.0) & (ys < 1.0)]
    mine = np.array([ndtri(float(y)) for y in ys])
    assert mine.tobytes() == sp.ndtri(ys).tobytes()
    assert ndtri(0.0) == -math.inf and ndtri(1.0) == math.inf


@pytest.mark.parametrize("fn, args", [(zeta, (0.5, 10.0)), (zeta, (2.0, 0.0)), (ndtri, (1.5,)),
                                      (betainc, (0.5, 0.5, 0.75)), (betainc, (0.0, 0.5, 0.25))])
def test_outside_the_domain_raises(fn, args):
    with pytest.raises(ValueError):
        fn(*args)


def test_betainc_at_one_half_within_5_eps():
    # _j2_value's I_{1/2}(1-a, a); _J2_ROUNDING budgets 5 eps for it
    rng = np.random.default_rng(3)
    alphas = np.concatenate([[1e-12, 1e-9, 1e-6, 0.25, 0.49, 0.5 - 1e-12],
                             10.0 ** rng.uniform(-12.0, math.log10(0.5), 40)])
    with mp.workdps(40):
        for a in alphas.tolist():
            exact = mp.betainc(mp.mpf(1.0 - a), mp.mpf(a), 0, mp.mpf(0.5), regularized=True)
            got = float(betainc(1.0 - a, a, 0.5))
            assert abs(mp.mpf(got) / exact - 1) <= 5 * EPS, a


def test_betainc_at_one_over_L_within_1e_15():
    # weight_brackets' 1 - L I_{1/L}(1+a, 1-a); the _BRACKET_ERR comment budgets
    # 1e-15 for I and for L I
    rng = np.random.default_rng(4)
    levels = np.concatenate([[2.0, 3.0, 10.0, 1e7], np.floor(10.0 ** rng.uniform(0.31, 7.0, 30))])
    with mp.workdps(40):
        for a in (1e-12, 1e-6, 1e-3, 0.1, 0.3, 0.45, 0.49, 0.4999):
            got = betainc(1.0 + a, 1.0 - a, 1.0 / levels)
            for L, value in zip(levels.tolist(), got.tolist()):
                exact = mp.betainc(mp.mpf(1.0 + a), mp.mpf(1.0 - a), 0, mp.mpf(1.0 / L),
                                   regularized=True)
                assert abs(mp.mpf(value) - exact) <= 1e-15, (a, L)
                assert abs(L * (mp.mpf(value) - exact)) <= 1e-15, (a, L)


# scipy.special.roots_jacobi's error on this integral, from the same check
# before the rules moved here: 28, 170 and 460 eps at 24, 48 and 96 nodes
_SCIPY_RULE_EPS = {24: 28, 48: 170, 96: 460}


@pytest.mark.parametrize("H", [0.95, 0.9999])
@pytest.mark.parametrize("m", sorted(_SCIPY_RULE_EPS))
def test_jacobi_rule_does_no_worse_than_scipy(H, m):
    # int_0^1 x^-a (1 - x/2)^(a-1) dx = 2F1(1-a, 1-a; 2-a; 1/2) / (1-a), a
    # smooth integrand against the weight x^-a of _gj01(m, 0, -a); measured
    # 2-6 eps at 24 nodes, 5-17 at 48 and 6-7 at 96
    a = H - 0.5
    t, w = _gauss_rule(m, 0.0, -a)
    x, wx = (t + 1.0) / 2.0, w * 2.0 ** (a - 1.0)
    value = float(np.dot((1.0 - x / 2.0) ** (a - 1.0), wx))
    with mp.workdps(30):
        b = 1 - mp.mpf(a)
        exact = mp.hyp2f1(b, b, b + 1, mp.mpf(0.5)) / b
        assert abs(mp.mpf(value) / exact - 1) <= _SCIPY_RULE_EPS[m] * EPS


@pytest.mark.parametrize("a", [1e-4, 0.1, 0.25, 0.4999])
def test_rules_agree_with_roots_jacobi(a):
    # every (alpha, beta) that coefficients asks for, at every ladder order.
    # Nodes agree within 4 eps; weights within 1e-8 of their sum, which is
    # scipy's error: at (0, -0.99) and 128 nodes it is 2.2e-9 from 32-digit
    # values, against 1.1e-10 here
    for alpha, beta in ((0.0, 0.0), (0.0, a), (0.0, -a), (0.0, a - 1.0), (a, 0.0), (a, -a)):
        for m in (16, 24, 32, 48, 64, 96, 128):
            t, w = _gauss_rule(m, alpha, beta)
            t_ref, w_ref = sp.roots_jacobi(m, alpha, beta)
            assert np.max(np.abs(t - t_ref)) <= 4 * EPS, (alpha, beta, m)
            assert np.sum(np.abs(w - w_ref)) <= 1e-8 * np.sum(w_ref), (alpha, beta, m)


def test_a_symmetric_weight_gets_a_symmetric_rule():
    for m in (16, 24, 33, 128):
        for alpha in (0.0, 0.3):
            t, w = _gauss_rule(m, alpha, alpha)
            assert np.array_equal(t, -t[::-1]) and np.array_equal(w, w[::-1])
