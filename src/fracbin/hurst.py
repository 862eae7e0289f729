"""Hurst-parameter constants and the lag autocovariance series.

Everything downstream is driven by a memory exponent ``H`` in (1/2, 1) and a
volatility ``sigma`` in (0, SCALE_MAX], the one bound on every scale the
program reads (sigma and the drift coefficients; see SCALE_MAX).  This
module owns the derived constants, the autocovariance
``rho_h(k) = ((k+1)^{2h} + (k-1)^{2h} - 2 k^{2h}) / 2`` of a long-memory
Gaussian increment process at the auxiliary exponent ``h = H/2 + 1/4``, the
zeta-accelerated tail sums of its even powers (the tail a truncation at K
drops) and the full sum of ``rho_h^2``, and the solver for the critical
exponent where that sum crosses 1/4.

All functions are pure; HurstParams is frozen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import NonconvergenceError
from .special import zeta

# k above which the binomial-series evaluation of rho is used.  Chosen where
# the direct second difference and the series agree to <= 1e-12 relative
# (direct evaluation loses ~k^2 * eps to cancellation).
_RHO_SERIES_MIN_K = 64
_RHO_SERIES_TERMS = 10

# the largest sigma, and the largest sum of a drift's coefficient sizes, that
# HurstParams and DriftSpec accept.  Below it no value the program forms can
# overflow: every sigma-scaled value (a weight, a level sum, g_n, g_H) is
# sigma times a sigma-free factor below about 1e5 (level sums up to n = 65537,
# limit weights up to K = 65536), and none is squared more than once (the
# variances), so every value stays below about 1e210; on [0, 1] a drift's
# |a(t)| is at most the sum of its coefficients' sizes
SCALE_MAX = 1e100


def normalizing_constant(H: float) -> float:
    """Kernel normalizer c_H = sqrt(2H * G(3/2-H) / (G(H+1/2) * G(2-2H))).

    Accurate to well beyond 12 significant digits (library gamma is ~1 ulp).
    Raises ValueError outside the open interval (1/2, 1).
    """
    if not 0.5 < H < 1.0:
        raise ValueError(f"H must lie strictly in (1/2, 1), got {H}")
    num = 2.0 * H * math.gamma(1.5 - H)
    den = math.gamma(H + 0.5) * math.gamma(2.0 - 2.0 * H)
    return math.sqrt(num / den)


@dataclass(frozen=True)
class HurstParams:
    """Validated (H, sigma) pair, 0 < sigma <= SCALE_MAX, plus every derived constant.

    h      -- autocovariance exponent H/2 + 1/4, in (1/2, 3/4)
    alpha  -- H - 1/2, the kernel power, in (0, 1/2)
    beta   -- 2 - 2h, the tail decay exponent of rho_h, in (1/2, 1)
    c_H    -- gamma-function normalizer (positive, -> 1 at H=1/2+, -> 0 at 1-)
    C_H    -- c_H * (H - 1/2)
    g_H    -- sigma * c_H / (H + 1/2), the limiting jump size / threshold
    """

    H: float
    sigma: float = 1.0
    h: float = field(init=False)
    alpha: float = field(init=False)
    beta: float = field(init=False)
    c_H: float = field(init=False)
    C_H: float = field(init=False)
    g_H: float = field(init=False)

    def __post_init__(self) -> None:
        if not 0.5 < self.H < 1.0:
            raise ValueError(f"H must lie strictly in (1/2, 1), got {self.H}")
        if not 0 < self.sigma <= SCALE_MAX:
            raise ValueError(f"sigma must be positive and finite, at most {SCALE_MAX:g}, "
                             f"got {self.sigma}")
        c = normalizing_constant(self.H)
        object.__setattr__(self, "h", self.H / 2.0 + 0.25)
        object.__setattr__(self, "alpha", self.H - 0.5)
        object.__setattr__(self, "beta", 2.0 - 2.0 * (self.H / 2.0 + 0.25))
        object.__setattr__(self, "c_H", c)
        object.__setattr__(self, "C_H", c * (self.H - 0.5))
        object.__setattr__(self, "g_H", self.sigma * c / (self.H + 0.5))


def _check_h(h: float) -> None:
    if not 0.5 < h < 0.75:
        raise ValueError(f"h must lie in (1/2, 3/4), got {h}")


@lru_cache(maxsize=256)
def _series_coeffs(h: float, terms: int = _RHO_SERIES_TERMS) -> tuple[float, ...]:
    """Coefficients c_m of rho_h(k) = sum_m c_m k^{2h-2m}, m = 1..terms.

    These are the even binomial coefficients C(2h, 2m); all positive for
    2h in (1, 3/2), so series truncation errors have a definite sign.
    """
    p = 2.0 * h
    out = []
    c = 1.0
    for j in range(1, 2 * terms + 1):
        c *= (p - (j - 1)) / j
        if j % 2 == 0:
            out.append(c)
    return tuple(out)


def rho(h: float, k):
    """Autocovariance rho_h(k) for integer lags k >= 1 (scalar or array).

    Direct second difference for small k; for k >= 64 the binomial series
    around k^{2h} is used to avoid catastrophic cancellation.  Nonnegative
    for all valid (h, k).
    """
    _check_h(h)
    k_in = np.asarray(k, dtype=np.float64)
    k_arr = np.atleast_1d(k_in)
    if np.any(k_arr < 1):
        raise ValueError("lags k must be >= 1")
    small = k_arr < _RHO_SERIES_MIN_K
    out = np.empty_like(k_arr)
    if np.any(small):
        ks = k_arr[small]
        p = 2.0 * h
        out[small] = 0.5 * ((ks + 1.0) ** p + (ks - 1.0) ** p - 2.0 * ks**p)
    if np.any(~small):
        kl = k_arr[~small]
        acc = np.zeros_like(kl)
        for m, c in enumerate(_series_coeffs(h), start=1):
            acc += c * kl ** (2.0 * h - 2.0 * m)
        out[~small] = acc
    if k_in.ndim == 0:
        return float(out[0])
    return out.reshape(k_in.shape)


def _tail_series(h: float, power: int) -> tuple[np.ndarray, np.ndarray]:
    """(conv, s) with sum_{k>K} rho_h(k)^power = sum_r conv[r] zeta(s[r], K+1), K >= 64.

    conv is rho's binomial series convolved with itself power times, so
    every entry is positive; s = 2r - 2 power h > 1, r = power..power * terms.
    """
    cs = np.asarray(_series_coeffs(h))
    conv = cs.copy()
    for _ in range(power - 1):
        conv = np.convolve(conv, cs)
    r = np.arange(power, power * len(cs) + 1, dtype=np.float64)
    return conv, 2.0 * r - 2.0 * power * h


def rho_pow_tail(h: float, K: int, power: int = 2) -> float:
    """Exact-value tail sum_{k>K} rho_h(k)^power for even power in {2,4,6,8}.

    rho's binomial series is convolved with itself power times; each monomial
    tail is a Hurwitz zeta value.  Requires K >= 64 so the series branch is
    valid; the neglected series remainder is ~K^{-2*terms} relative, i.e.
    far below double precision here.
    """
    _check_h(h)
    if power not in (2, 4, 6, 8):
        raise ValueError("power must be one of 2, 4, 6, 8")
    if K < _RHO_SERIES_MIN_K:
        extra = rho(h, np.arange(K + 1, _RHO_SERIES_MIN_K + 1))
        return float(np.sum(extra**power)) + rho_pow_tail(h, _RHO_SERIES_MIN_K, power)
    conv, s = _tail_series(h, power)
    return float(np.sum(conv * [zeta(x, K + 1.0) for x in s.tolist()]))


def rho_pow_tail_bracket(h: float, K: int, power: int) -> tuple[float, float]:
    """(lo, hi) with lo <= rho_pow_tail(h, K, power) <= hi, for K >= 64, in a
    few vectorised operations instead of one zeta port call per term.

    For q = K+1, zeta(s, q) lies in [A - E, A] with the Euler-Maclaurin terms
    A = q^(1-s)/(s-1) + q^-s/2 + s q^(-s-1)/12 and E = s(s+1)(s+2) q^(-s-3)/720:
    the expansion of a completely monotone sum envelops it, the remainder
    lying between 0 and the first term left out.  A slack of 1e-12 of the
    sum covers the float error of the zeta port, of rho_pow_tail's sum and of
    this one.  The width is below 4e-7 of the value at K = 64 (h near 1/2,
    power 8) and shrinks like K^-4.
    """
    _check_h(h)
    if K < _RHO_SERIES_MIN_K:
        raise ValueError(f"the bracket needs K >= {_RHO_SERIES_MIN_K}, got {K}")
    conv, s = _tail_series(h, power)
    q = K + 1.0
    q_s = q**-s
    a = float(np.sum(conv * (q_s * q / (s - 1.0) + q_s / 2.0 + s * q_s / (12.0 * q))))
    e = float(np.sum(conv * (s * (s + 1.0) * (s + 2.0) * q_s / (720.0 * q**3))))
    slack = 1e-12 * a
    return a - e - slack, a + slack


def rho_sq_partial(h: float, K: int) -> float:
    """Partial sum of rho_h(k)^2 for k = 1..K, summed directly."""
    _check_h(h)
    return float(np.sum(rho(h, np.arange(1, K + 1)) ** 2))


@lru_cache(maxsize=256)
def rho_sq_total(h: float) -> float:
    """Full series sum_{k>=1} rho_h(k)^2 (direct head + zeta tail)."""
    _check_h(h)
    head = rho_sq_partial(h, 1000)
    return head + rho_pow_tail(h, 1000, 2)


def solve_critical_hurst(tol: float = 1e-8) -> tuple[float, float]:
    """Bisect for h_c with sum_k rho_{h_c}^2(k) = 1/4; returns (h_c, H_c).

    Valid because rho_h(k) is increasing in h for every k, so the series sum
    is strictly increasing.  H_c = 2 h_c - 1/2.  Bisects to a 1e-10 bracket
    in h and on until the residual is at most tol, raising
    NonconvergenceError if the bracket closes to adjacent doubles first.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    lo, hi = 0.5 + 1e-9, 0.75 - 1e-9
    f_lo = rho_sq_total(lo) - 0.25
    f_hi = rho_sq_total(hi) - 0.25
    if not (f_lo < 0.0 < f_hi):
        raise AssertionError(
            "bracket endpoints do not straddle 1/4; the series sum should "
            "increase from ~0 to +inf across (1/2, 3/4)"
        )
    h_c = 0.5 * (lo + hi)
    f = rho_sq_total(h_c) - 0.25
    while (hi - lo > 1e-10 or abs(f) > tol) and lo < h_c < hi:
        lo, hi = (h_c, hi) if f < 0.0 else (lo, h_c)
        h_c = 0.5 * (lo + hi)
        f = rho_sq_total(h_c) - 0.25
    if abs(f) > tol:
        raise NonconvergenceError(f"bisection for h_c reached adjacent doubles at h = {h_c!r} "
                                  f"with residual {abs(f):g}, above tol {tol:g}")
    return h_c, 2.0 * h_c - 0.5
