"""Hurst-parameter constants and the lag autocovariance series.

Everything downstream is driven by a memory exponent ``H`` in (1/2, 1) and a
volatility ``sigma``.  This module owns the derived constants, the
autocovariance ``rho_h(k) = ((k+1)^{2h} + (k-1)^{2h} - 2 k^{2h}) / 2`` of a
long-memory Gaussian increment process at the auxiliary exponent
``h = H/2 + 1/4``, certified partial/tail sums of ``rho_h^2``, and the solver
for the critical exponent where the full series crosses 1/4.

All functions are pure; returned dataclasses are frozen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import zeta as hurwitz_zeta

from .errors import TruncationError

# k above which the binomial-series evaluation of rho is used.  Chosen where
# the direct second difference and the series agree to <= 1e-12 relative
# (direct evaluation loses ~k^2 * eps to cancellation).
_RHO_SERIES_MIN_K = 64
_RHO_SERIES_TERMS = 10

# Direct summation is used for partial sums up to this many terms; beyond it
# the partial sum is formed as total minus the zeta-accelerated tail.
_DIRECT_SUM_MAX = 2_000_000

_DEFAULT_K_CAP = 10**8


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
    """Validated (H, sigma) pair plus every derived constant.

    h      -- autocovariance exponent H/2 + 1/4, in (1/2, 3/4)
    alpha  -- H - 1/2, the kernel power, in (0, 1/2)
    beta   -- 2 - 2h, the tail decay exponent of rho_h, in (1/2, 1)
    c_H    -- gamma-function normalizer (positive, -> 1 at H=1/2+, -> 0 at 1-)
    C_H    -- c_H * (H - 1/2)
    g_H    -- sigma * c_H / (H + 1/2), the limiting jump size / threshold
    """

    H: float
    sigma: float = 1.0
    h: float = 0.0
    alpha: float = 0.0
    beta: float = 0.0
    c_H: float = 0.0
    C_H: float = 0.0
    g_H: float = 0.0

    def __post_init__(self) -> None:
        if not 0.5 < self.H < 1.0:
            raise ValueError(f"H must lie strictly in (1/2, 1), got {self.H}")
        if not 0 < self.sigma < math.inf:
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")
        c = normalizing_constant(self.H)
        object.__setattr__(self, "h", self.H / 2.0 + 0.25)
        object.__setattr__(self, "alpha", self.H - 0.5)
        object.__setattr__(self, "beta", 2.0 - 2.0 * (self.H / 2.0 + 0.25))
        object.__setattr__(self, "c_H", c)
        object.__setattr__(self, "C_H", c * (self.H - 0.5))
        object.__setattr__(self, "g_H", self.sigma * c / (self.H + 0.5))


def _check_h(h: float, allow_boundary: bool) -> None:
    lo_ok = h > 0.5 or (allow_boundary and h == 0.5)
    if not (lo_ok and h < 0.75):
        raise ValueError(
            f"h must lie in (1/2, 3/4) (boundary 1/2 requires allow_boundary), got {h}"
        )


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


def rho(h: float, k, *, allow_boundary: bool = False):
    """Autocovariance rho_h(k) for integer lags k >= 1 (scalar or array).

    Direct second difference for small k; for k >= 64 the binomial series
    around k^{2h} is used to avoid catastrophic cancellation.  Nonnegative
    for all valid (h, k); identically 0 at the test boundary h = 1/2.
    """
    _check_h(h, allow_boundary)
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


def rho_partial_sum(h: float, K: int) -> float:
    """Partial sum of rho_h(k) itself (not squared), k = 1..K.

    Grows like K^{2h-1}; the full series diverges.
    """
    _check_h(h, allow_boundary=True)
    total = 0.0
    for lo in range(1, K + 1, _DIRECT_SUM_MAX):
        hi = min(K, lo + _DIRECT_SUM_MAX - 1)
        total += float(np.sum(rho(h, np.arange(lo, hi + 1), allow_boundary=True)))
    return total


def rho_pow_tail(h: float, K: int, power: int = 2) -> float:
    """Exact-value tail sum_{k>K} rho_h(k)^power for even power in {2,4,6,8}.

    rho's binomial series is convolved with itself power times; each monomial
    tail is a Hurwitz zeta value.  Requires K >= 64 so the series branch is
    valid; the neglected series remainder is ~K^{-2*terms} relative, i.e.
    far below double precision here.
    """
    _check_h(h, allow_boundary=False)
    if power not in (2, 4, 6, 8):
        raise ValueError("power must be one of 2, 4, 6, 8")
    if K < _RHO_SERIES_MIN_K:
        extra = rho(h, np.arange(K + 1, _RHO_SERIES_MIN_K + 1))
        return float(np.sum(extra**power)) + rho_pow_tail(h, _RHO_SERIES_MIN_K, power)
    cs = np.asarray(_series_coeffs(h))
    conv = cs.copy()
    for _ in range(power - 1):
        conv = np.convolve(conv, cs)
    r = np.arange(power, power * len(cs) + 1, dtype=np.float64)
    s = 2.0 * r - 2.0 * power * h
    return float(np.sum(conv * hurwitz_zeta(s, K + 1)))


def rho_sq_partial(h: float, K: int) -> float:
    """Partial sum of rho_h(k)^2 for k = 1..K (direct for moderate K)."""
    _check_h(h, allow_boundary=True)
    if h == 0.5:
        return 0.0
    if K <= _DIRECT_SUM_MAX:
        k = np.arange(1, K + 1)
        return float(np.sum(rho(h, k) ** 2))
    return rho_sq_total(h) - rho_pow_tail(h, K, 2)


@lru_cache(maxsize=256)
def rho_sq_total(h: float) -> float:
    """Full series sum_{k>=1} rho_h(k)^2 (direct head + zeta tail)."""
    _check_h(h, allow_boundary=False)
    head = rho_sq_partial(h, 1000)
    return head + rho_pow_tail(h, 1000, 2)


@lru_cache(maxsize=64)
def envelope_constant(h: float) -> float:
    """Envelope b_h with rho_h(k) <= b_h * k^{-beta}, beta = 2-2h.

    Taken as the supremum of rho_h(k) k^beta over k <= 1e4 and verified
    against the next 1e4 lags (the ratio is decreasing towards h(2h-1)).
    """
    _check_h(h, allow_boundary=False)
    beta = 2.0 - 2.0 * h
    k1 = np.arange(1, 10**4 + 1)
    b = float(np.max(rho(h, k1) * k1**beta))
    k2 = np.arange(10**4 + 1, 2 * 10**4 + 1)
    if float(np.max(rho(h, k2) * k2**beta)) > b:
        raise AssertionError("envelope constant not attained on the head range")
    return b


def envelope_tail_bound(h: float, K: int) -> float:
    """Integral-comparison tail bound b_h^2 * K^{1-2beta} / (2beta - 1)."""
    beta = 2.0 - 2.0 * h
    b = envelope_constant(h)
    return b * b * K ** (1.0 - 2.0 * beta) / (2.0 * beta - 1.0)


@dataclass(frozen=True)
class RhoTailSum:
    """A truncation point K with the partial sum of rho^2 and a certified tail.

    tail_bound is the series/zeta tail value (exact up to fp); the looser
    envelope bound is retained for cross-checks.
    """

    h: float
    K: int
    partial_sum_sq: float
    tail_bound: float
    envelope_bound: float


def rho_sq_sum(h: float, target_tail: float, k_cap: int = _DEFAULT_K_CAP) -> RhoTailSum:
    """Smallest truncation K whose rho^2 tail is <= target_tail, by bisection.

    Raises TruncationError when no K <= k_cap achieves the target: the tail
    only decays like K^{1-2beta}, so ambitious targets are genuinely
    unreachable for h near 3/4.
    """
    _check_h(h, allow_boundary=False)
    if not target_tail > 0:
        raise ValueError("target_tail must be positive")
    if rho_pow_tail(h, k_cap, 2) > target_tail:
        raise TruncationError(
            f"tail target {target_tail:g} unachievable within K cap {k_cap} "
            f"(tail at cap is {rho_pow_tail(h, k_cap, 2):g})"
        )
    if rho_pow_tail(h, 1, 2) <= target_tail:
        K = 1
    else:
        lo, hi = 1, _RHO_SERIES_MIN_K
        while rho_pow_tail(h, hi, 2) > target_tail:
            lo, hi = hi, min(2 * hi, k_cap)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if rho_pow_tail(h, mid, 2) > target_tail:
                lo = mid
            else:
                hi = mid
        K = hi
    tail = rho_pow_tail(h, K, 2)
    return RhoTailSum(
        h=h,
        K=K,
        partial_sum_sq=rho_sq_partial(h, K),
        tail_bound=tail,
        envelope_bound=envelope_tail_bound(h, K),
    )


def solve_critical_hurst(tol: float = 1e-8) -> tuple[float, float]:
    """Bisect for h_c with sum_k rho_{h_c}^2(k) = 1/4; returns (h_c, H_c).

    Valid because rho_h(k) is increasing in h for every k, so the series sum
    is strictly increasing.  H_c = 2 h_c - 1/2.  Stops when the bracket is
    narrower than 1e-10 in h and the residual resolves below tol.
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
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if rho_sq_total(mid) - 0.25 < 0.0:
            lo = mid
        else:
            hi = mid
    h_c = 0.5 * (lo + hi)
    residual = abs(rho_sq_total(h_c) - 0.25)
    if residual > tol + 1e-9:
        raise AssertionError(f"bisection stalled with residual {residual:g}")
    return h_c, 2.0 * h_c - 0.5
