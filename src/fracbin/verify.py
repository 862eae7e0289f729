"""Self-contained property battery behind the `verify` CLI command.

Each check recomputes a mathematical property through an independent route
(naive enumeration, bracket inequalities, bound checks) and reports the
measured value against its bound.  The fast battery targets about a minute;
`full=True` tightens sizes towards the acceptance-grade versions.
"""

from __future__ import annotations

import math

import numpy as np

from . import asymptotics as asym
from .coefficients import (
    I_integrals,
    J_unscaled,
    coefficient_table,
    g_unscaled,
    j_coeff,
    turning_point,
)
from .hurst import HurstParams, rho_sq_total, solve_critical_hurst
from .market import MarketSpec, census, level_sign_values, monotone_reach

H_GRID = (0.6, 0.75, 0.9)


def naive_level_values(j: np.ndarray) -> np.ndarray:
    """Independent per-word re-enumeration, O(2^m * m).

    Accumulates every word's sum left-to-right in sign order (one vectorised
    pass per sign), so it is bit-for-bit comparable to the doubling order
    without sharing its construction.
    """
    m = len(j)
    idx = np.arange(1 << m, dtype=np.uint64)
    out = np.zeros(1 << m)
    for i in range(m):
        sign = (((idx >> np.uint64(i)) & np.uint64(1)).astype(np.float64)) * 2.0 - 1.0
        out += sign * j[i]
    return out


def gray_level_counts(j: np.ndarray, g: float, offset: float) -> int:
    """Arbitrage count of one level by a literal Gray-code walk.

    Flipping one sign changes the running sum by +-2 j_i; each word is
    classified from the incrementally maintained value.
    """
    m = len(j)
    y = -float(np.sum(j))  # the all-minus word (index 0)
    word = 0
    count = 1 if (y + g <= -offset) or (y - g >= -offset) else 0
    for step in range(1, 1 << m):
        flip = (step & -step).bit_length() - 1  # ruler sequence
        word ^= 1 << flip
        y = y + 2.0 * j[flip] if (word >> flip) & 1 else y - 2.0 * j[flip]
        if (y + g <= -offset) or (y - g >= -offset):
            count += 1
    return count


def _check(name: str, passed: bool, measured, bound) -> dict:
    return {"name": name, "passed": bool(passed), "measured": measured, "bound": bound}


# frozen 40-digit oracle values (sigma = 1); a 1e-6 perturbation of any
# cached coefficient that feeds them makes this check fail
_GOLDENS = {
    ("j", 0.75, 5, 2): 0.1564698305601206237,
    ("j", 0.75, 2, 1): 0.4376183766770189743,
    ("j", 0.9, 5, 4): 0.4040567189916261894,
    ("g", 0.75, 5, 0): 0.8610691888216482633,
    ("g", 0.75, 1, 0): 0.9504611797752525003,
}


def check_goldens() -> dict:
    worst = 0.0
    for (kind, H, n, i), want in _GOLDENS.items():
        p = HurstParams(H)
        got = j_coeff(p, n, i) if kind == "j" else coefficient_table(p, n).g
        worst = max(worst, abs(got - want) / want)
    return _check("stored_goldens", worst <= 1e-9, worst, 1e-9)


def check_scaling_law(tuples: int = 12, n_cap: int = 64) -> dict:
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(tuples):
        H = float(rng.uniform(0.55, 0.95))
        N = int(rng.integers(2, n_cap + 1))
        n = int(rng.integers(2, N + 1))
        i = int(rng.integers(1, n))
        p = HurstParams(H)
        worst = max(worst, abs(N**H * J_unscaled(p, N, n, i) - j_coeff(p, n, i)))
        worst = max(worst, abs(N**H * g_unscaled(p, N, n) - coefficient_table(p, n).g))
    return _check("scaling_law", worst <= 1e-8, worst, 1e-8)


def check_brackets(n_max: int = 40) -> dict:
    violations = 0
    worst = 0.0
    for H in H_GRID:
        p = HurstParams(H)
        for n in range(2, n_max + 1):
            t = coefficient_table(p, n)
            i_vals = I_integrals(H, n)
            lo = p.sigma * p.c_H * (n - 1.0) ** p.alpha * i_vals - t.j_err - 1e-12
            hi = p.sigma * p.c_H * float(n) ** p.alpha * i_vals + t.j_err + 1e-12
            violations += int(np.count_nonzero(t.j < lo)) + int(np.count_nonzero(t.j > hi))
            worst = max(worst, float(np.max(np.maximum(lo - t.j, t.j - hi))))
            g_lo, g_hi = p.g_H, p.g_H * (1.0 + 1.0 / (n - 1.0)) ** p.alpha
            if not (g_lo - t.g_err - 1e-12 <= t.g <= g_hi + t.g_err + 1e-12):
                violations += 1
    return _check("coefficient_brackets", violations == 0, violations, 0)


def check_turning_point() -> dict:
    worst = 0.0
    for H in H_GRID:
        x_n, _ = turning_point(H, 10**5)
        worst = max(worst, abs(x_n / (10**5 - 1) - (H - 0.5)))
    mono_ok = True
    for H in H_GRID:
        i_vals = I_integrals(H, 40)
        _, i_n = turning_point(H, 40)
        d = np.diff(i_vals)
        # unimodality claim skips the step across the minimum cell
        if i_n > 2 and not np.all(d[: i_n - 2] < 0):
            mono_ok = False
        if not np.all(d[i_n:] > 0):
            mono_ok = False
    return _check("turning_point", worst <= 1e-3 and mono_ok, worst, 1e-3)


def check_census_agreement() -> dict:
    p = HurstParams(0.75)
    c = census(MarketSpec(N=14, params=p))
    agree = True
    flip_ok = True
    for n in range(1, 15):
        t = coefficient_table(p, n)
        vals = level_sign_values(t.j)
        naive = naive_level_values(t.j)
        if not np.array_equal(vals, naive):
            agree = False
        arb = (naive + t.g <= 0.0) | (naive - t.g >= 0.0)
        if int(np.count_nonzero(arb)) != c.per_level_counts[n - 1]:
            agree = False
        if gray_level_counts(t.j, t.g, 0.0) != c.per_level_counts[n - 1]:
            agree = False
        # zero drift: complementing a word (index mask-w) must preserve arbitrage
        if not np.array_equal(arb, arb[::-1]):
            flip_ok = False
    even_ok = all(cnt % 2 == 0 for cnt in c.per_level_counts[1:])
    root_ok = c.per_level_counts[0] == 0
    return _check("census_agreement", agree and flip_ok and even_ok and root_ok,
                  {"total": c.total, "paths": c.path_count}, "exact")


def check_reach() -> dict:
    n_max = 10**4
    worst = 0
    for H in H_GRID:
        p = HurstParams(H)
        for prefix in ((), (-1, -1, -1), (1, -1, 1)):
            for direction in (1, -1):
                m = monotone_reach(p, prefix, direction, n_max)
                if m is None:
                    return _check("monotone_reach", False, None, n_max)
                worst = max(worst, m)
    return _check("monotone_reach", True, worst, n_max)


def check_variance_limit(n: int = 3000, rel_tol: float = 0.03) -> dict:
    p = HurstParams(0.7)
    vb_large, var_hat = asym.split_variances(p, n, coefficient_table(p, n))
    target = 4.0 * p.g_H**2 * rho_sq_total(p.h)
    rel = abs(var_hat - target) / target
    vb_small, _ = asym.split_variances(p, 100, coefficient_table(p, 100))
    return _check("variance_limit", rel <= rel_tol and vb_large < vb_small, rel, rel_tol)


def check_limit_bounds(samples: int = 10**5) -> dict:
    ok = True
    measured = {}
    for H in (0.55, 0.95):
        p = HurstParams(H)
        est = asym.limit_proportion(p, asym.McConfig(samples=samples, seed=11,
                                                     truncation_k=asym.DEFAULT_TRUNCATION_K))
        s = rho_sq_total(p.h)
        measured[str(H)] = est.p_hat
        if H == 0.55:
            ok &= est.p_hat <= 4.0 * s + 3.0 * est.stderr and est.p_hat <= 0.2
        else:
            floor = (1.0 - 1.0 / (4.0 * s)) ** 2 / 3.0
            ok &= est.p_hat >= floor - 3.0 * est.stderr and est.ci_low > 0.0
    return _check("limit_proportion_bounds", ok, measured, "Tchebysheff/Paley-Zygmund")


def check_cf(samples: int = 10**5) -> dict:
    p = HurstParams(0.75)
    if asym.characteristic_function(p, 0.0) != 1.0:
        return _check("characteristic_function", False, "F(0) != 1", None)
    if asym.characteristic_function(p, -0.7) != asym.characteristic_function(p, 0.7):
        return _check("characteristic_function", False, "evenness", None)
    cfg = asym.McConfig(samples=samples, seed=5, truncation_k=1 << 14)
    y = asym.sample_limit_variable(p, cfg)
    vs = np.linspace(0.1, 1.2, 10) / p.g_H
    ecf = asym.empirical_cf(y, vs)
    ana = np.array([asym.characteristic_function(p, float(v)) for v in vs])
    worst = float(np.max(np.abs(ecf - ana)))
    budget = 6.0 / math.sqrt(samples)
    _, expo, _ = asym.fit_cf_decay(p, 40.0 / p.g_H, 400.0 / p.g_H, points=40)
    target = 1.0 / (2.0 - 2.0 * p.h)
    slope_ok = abs(expo - target) / target <= 0.15
    return _check("characteristic_function", worst <= budget and slope_ok,
                  {"ecf_worst": worst, "exponent": expo}, {"ecf": budget, "exponent": "±15%"})


def check_determinism() -> dict:
    p = HurstParams(0.8)
    cfg = asym.McConfig(samples=50_000, seed=3, truncation_k=4096)
    a = asym.limit_proportion(p, cfg)
    b = asym.limit_proportion(p, cfg)
    return _check("mc_determinism", a == b, a.p_hat, "byte-identical")


def check_critical_point() -> dict:
    tol = 1e-8
    h_c, H_c = solve_critical_hurst(tol)
    residual = abs(rho_sq_total(h_c) - 0.25)
    ok = 0.5 < h_c < 0.75 and 0.5 < H_c < 1.0 and residual <= tol
    return _check("critical_point", ok, {"h_c": h_c, "H_c": H_c, "residual": residual}, tol)


_FAST_CHECKS = (
    check_goldens,
    check_scaling_law,
    check_brackets,
    check_turning_point,
    check_census_agreement,
    check_reach,
    check_variance_limit,
    check_limit_bounds,
    check_cf,
    check_determinism,
    check_critical_point,
)

# acceptance-grade keyword sizes that `full=True` passes to a check
_FULL_SIZES = {
    "scaling_law": dict(tuples=30, n_cap=128),
    "brackets": dict(n_max=200),
    "variance_limit": dict(n=10**4, rel_tol=0.02),
    "limit_bounds": dict(samples=10**6),
    "cf": dict(samples=10**6),
}


def run_checks(full: bool = False) -> dict:
    """Run the battery; `full` raises sizes towards acceptance grade."""
    results = []
    for fn in _FAST_CHECKS:
        sizes = _FULL_SIZES.get(fn.__name__.removeprefix("check_"), {}) if full else {}
        results.append(fn(**sizes))
    return {"checks": results, "all_passed": all(r["passed"] for r in results)}
