"""Self-contained property battery behind the `verify` CLI command.

Each check recomputes a mathematical property through an independent route
(naive enumeration, bracket inequalities, bound checks) and reports the
measured value against its bound.  The fast battery takes a few seconds.
`full=True` runs the acceptance battery: every check at the sizes, seeds and
bounds in `_FULL_SIZES`, the one place they are kept.
"""

from __future__ import annotations

import math

import numpy as np

from . import asymptotics as asym
from .coefficients import (
    I_integrals,
    J_unscaled,
    coefficient_table,
    coefficient_tables,
    g_unscaled,
    turning_point,
    weight_brackets,
)
from .hurst import HurstParams, rho_sq_total, solve_critical_hurst
from .market import DriftSpec, MarketSpec, census, level_sign_values, monotone_reach

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
        table = coefficient_table(p, n)
        got = float(table.j[i - 1]) if kind == "j" else table.g
        worst = max(worst, abs(got - want) / want)
    return _check("stored_goldens", worst <= 1e-9, worst, 1e-9)


def check_scaling_law(tuples: int = 12, n_cap: int = 64, seed: int = 1,
                      g_tuples: int = 0) -> dict:
    """N^H J_N(n, i) = j_n(i) and N^H g_N(n) = g_n on seeded random tuples.

    Each of `tuples` draws (H, N, n, i) with 2 <= n <= N <= n_cap and checks
    both weights; each of `g_tuples` after them draws (H, N, n) with
    1 <= n <= N and checks g alone, so that n = 1 is reached too.
    """
    rng = np.random.default_rng(seed)

    def draw(lo: int) -> tuple:
        H = float(rng.uniform(0.55, 0.95))
        N = int(rng.integers(lo, n_cap + 1))
        return H, N, int(rng.integers(lo, N + 1))

    def g_diff(H: float, N: int, n: int) -> float:
        p = HurstParams(H)
        return abs(N**H * g_unscaled(p, N, n) - coefficient_table(p, n).g)

    worst = 0.0
    for _ in range(tuples):
        H, N, n = draw(2)
        i = int(rng.integers(1, n))
        p = HurstParams(H)
        j = float(coefficient_table(p, n).j[i - 1])
        worst = max(worst, abs(N**H * J_unscaled(p, N, n, i) - j), g_diff(H, N, n))
    for _ in range(g_tuples):
        worst = max(worst, g_diff(*draw(1)))
    return _check("scaling_law", worst <= 1e-8, worst, 1e-8)


def check_brackets(n_max: int = 40) -> dict:
    violations = 0
    worst = 0.0
    for H in H_GRID:
        p = HurstParams(H)
        for n, t in enumerate(coefficient_tables(p, range(2, n_max + 1)), 2):
            i_vals = I_integrals(H, n)
            lo = p.sigma * p.c_H * (n - 1.0) ** p.alpha * i_vals - t.j_err - 1e-12
            hi = p.sigma * p.c_H * float(n) ** p.alpha * i_vals + t.j_err + 1e-12
            violations += int(np.count_nonzero(t.j < lo)) + int(np.count_nonzero(t.j > hi))
            worst = max(worst, float(np.max(np.maximum(lo - t.j, t.j - hi))))
            g_lo, g_hi = p.g_H, p.g_H * (1.0 + 1.0 / (n - 1.0)) ** p.alpha
            if not (g_lo - t.g_err - 1e-12 <= t.g <= g_hi + t.g_err + 1e-12):
                violations += 1
    return _check("coefficient_brackets", violations == 0, violations, 0)


def check_weight_brackets(levels: tuple = (2, 3, 17, 200)) -> dict:
    """Each column, the full sum and g_n of a table within weight_brackets' bounds (reach's screen)."""
    violations = 0
    for H in H_GRID:
        p = HurstParams(H)
        for n in levels:
            t = coefficient_table(p, n)
            b = weight_brackets(p, [n], n - 1)
            total, total_err = float(np.sum(t.j)), float(np.sum(t.j_err))
            violations += int(np.count_nonzero((t.j < b.j_lo[0] - t.j_err)
                                               | (t.j > b.j_hi[0] + t.j_err)))
            violations += not b.sum_lo[0] - total_err <= total <= b.sum_hi[0] + total_err
            violations += not b.g_lo[0] - t.g_err <= t.g <= b.g_hi[0] + t.g_err
    return _check("weight_brackets", violations == 0, violations, 0)


def check_turning_point() -> dict:
    worst = 0.0
    for H in H_GRID:
        x_n, _ = turning_point(H, 10**5)
        worst = max(worst, abs(x_n / (10**5 - 1) - (H - 0.5)))
    mono_ok = True
    for H in H_GRID:
        for n in range(3, 41):
            d = np.diff(I_integrals(H, n))
            _, i_n = turning_point(H, n)
            # decreasing on {1..i_n-1}, increasing on {i_n+1..n-1}; the step
            # across the minimum cell itself is not claimed
            mono_ok = mono_ok and bool(np.all(d[: max(i_n - 2, 0)] < 0) and np.all(d[i_n:] > 0))
    return _check("turning_point", worst <= 1e-3 and mono_ok, worst, 1e-3)


def check_census_agreement(N: int = 19, hs: tuple = (0.75,)) -> dict:
    """The census against naive and Gray-code counts, at zero drift and with a drift.

    At N >= 19 the census walks half of each level, and at level 19 that half
    passes 2^14-word blocks through two high signs; per-level counts and the
    path count are checked against a naive path mask.  With several H the
    measured keys start with the H.
    """
    agree = symmetric = True
    measured = {}
    drifts = (("", DriftSpec()), ("drifted_", DriftSpec("polynomial", (0.4, -1.5, 3.0))))
    for H, (key, drift) in [(H, d) for H in hs for d in drifts]:
        p = HurstParams(H)
        key = (f"H={H}_" if len(hs) > 1 else "") + key
        spec = MarketSpec(N=N, params=p, drift=drift)
        c = census(spec)
        alive = np.ones(1, dtype=bool)
        for n in range(1, spec.N + 1):
            t = coefficient_table(p, n)
            o = drift.offset_scaled(n, spec.N, p.H)
            naive = naive_level_values(t.j)
            arb = (naive + t.g <= -o) | (naive - t.g >= -o)
            agree = agree and int(np.count_nonzero(arb)) == c.per_level_counts[n - 1]
            alive = (np.concatenate([alive, alive]) if n > 1 else alive) & ~arb
            if drift.kind == "zero":
                agree = (agree and np.array_equal(level_sign_values(t.j), naive)
                         and gray_level_counts(t.j, t.g, 0.0) == c.per_level_counts[n - 1])
                # zero drift: complementing a word (index mask-w) must preserve arbitrage
                symmetric = symmetric and np.array_equal(arb, arb[::-1])
        if drift.kind == "zero":  # so the root is no arbitrage point and the rest pair up
            symmetric = (symmetric and c.per_level_counts[0] == 0
                         and all(cnt % 2 == 0 for cnt in c.per_level_counts[1:]))
        agree = agree and c.path_count == alive.size - int(np.count_nonzero(alive))
        measured.update({key + "total": c.total, key + "paths": c.path_count})
    return _check("census_agreement", agree and symmetric, measured, "exact")


def check_reach(prefix_len: int | None = None) -> dict:
    """monotone_reach finds an arbitrage level within 10^4 levels from sample prefixes.

    `prefix_len` replaces the three sample prefixes by every prefix of length
    0..prefix_len.
    """
    prefixes = (((), (-1, -1, -1), (1, -1, 1)) if prefix_len is None else
                [tuple(1 if (w >> b) & 1 else -1 for b in range(k))
                 for k in range(prefix_len + 1) for w in range(1 << k)])
    n_max = 10**4
    worst = 0
    for H in H_GRID:
        p = HurstParams(H)
        for prefix in prefixes:
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


def check_limit_bounds(samples: int = 10**5, seed: int = 11, hs: tuple = (0.55, 0.95)) -> dict:
    """The limit proportion within Tchebysheff at the lowest H, Paley-Zygmund at the highest.

    Between neighbours of the ascending `hs` it may not fall by more than
    three standard errors of the pair.
    """
    est = [asym.limit_proportion(HurstParams(H), asym.McConfig(
        samples=samples, seed=seed, truncation_k=asym.DEFAULT_TRUNCATION_K)) for H in hs]
    s_lo, s_hi = (rho_sq_total(HurstParams(H).h) for H in (hs[0], hs[-1]))
    lo, hi = est[0], est[-1]
    floor = (1.0 - 1.0 / (4.0 * s_hi)) ** 2 / 3.0
    ok = (lo.p_hat <= 4.0 * s_lo + 3.0 * lo.stderr and lo.p_hat <= 0.2
          and hi.p_hat >= floor - 3.0 * hi.stderr and hi.ci_low > 0.0
          and all(b.p_hat >= a.p_hat - 3.0 * (a.stderr + b.stderr) for a, b in zip(est, est[1:])))
    return _check("limit_proportion_bounds", ok, {str(H): e.p_hat for H, e in zip(hs, est)},
                  "Tchebysheff/Paley-Zygmund")


def check_cf(samples: int = 10**5, seed: int = 5, truncation_k: int = 1 << 14,
             v_grid: tuple = (0.1, 1.2, 10), budget_factor: float = 6.0, tol: float = 1e-8) -> dict:
    """F(0) = 1, F even, the empirical CF within budget_factor/sqrt(samples), and the decay exponent.

    The empirical and the analytic F (at `tol`) are compared at
    np.linspace(*v_grid) / g_H; the exponent of the fitted decay must be
    within 15% of 1/(2 - 2h).
    """
    p = HurstParams(0.75)
    if asym.characteristic_function(p, 0.0) != 1.0:
        return _check("characteristic_function", False, "F(0) != 1", None)
    if asym.characteristic_function(p, -0.7) != asym.characteristic_function(p, 0.7):
        return _check("characteristic_function", False, "evenness", None)
    cfg = asym.McConfig(samples=samples, seed=seed, truncation_k=truncation_k)
    y = asym.sample_limit_variable(p, cfg)
    vs = np.linspace(*v_grid) / p.g_H
    ecf = asym.empirical_cf(y, vs)
    ana = asym.characteristic_function(p, vs, tol)
    worst = float(np.max(np.abs(ecf - ana)))
    budget = budget_factor / math.sqrt(samples)
    _, expo, _ = asym.fit_cf_decay(p, points=40)
    target = 1.0 / (2.0 - 2.0 * p.h)
    slope_ok = abs(expo - target) / target <= 0.15
    return _check("characteristic_function", worst <= budget and slope_ok,
                  {"ecf_worst": worst, "exponent": expo}, {"ecf": budget, "exponent": "±15%"})


def check_determinism(samples: int = 50_000, seed: int = 3, truncation_k: int = 4096) -> dict:
    """limit_proportion returns the same estimate twice."""
    p = HurstParams(0.8)
    cfg = asym.McConfig(samples=samples, seed=seed, truncation_k=truncation_k)
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
    check_weight_brackets,
    check_turning_point,
    check_census_agreement,
    check_reach,
    check_variance_limit,
    check_limit_bounds,
    check_cf,
    check_determinism,
    check_critical_point,
)

# the acceptance battery: the keyword sizes, seeds and bounds that
# `full=True` passes to a check (tests/test_acceptance.py runs the same)
_FULL_SIZES = {
    "scaling_law": dict(tuples=100, n_cap=128, seed=20260809, g_tuples=15),
    "brackets": dict(n_max=200),
    "weight_brackets": dict(levels=(2, 3, 17, 200, 1000, 2000)),
    "census_agreement": dict(N=20, hs=H_GRID),
    "reach": dict(prefix_len=8),
    "variance_limit": dict(n=10**4, rel_tol=0.02),
    "limit_bounds": dict(samples=10**6, seed=20260809, hs=(0.55, 0.65, 0.75, 0.85, 0.95)),
    "cf": dict(samples=10**6, seed=31, truncation_k=1 << 15, v_grid=(0.075, 1.5, 20),
               budget_factor=4.0, tol=1e-9),
    "determinism": dict(samples=10**5, seed=99, truncation_k=8192),
}


def full_sizes(check) -> dict:
    """The keywords `run_checks(full=True)` passes to `check`."""
    return _FULL_SIZES.get(check.__name__.removeprefix("check_"), {})


def run_checks(full: bool = False) -> dict:
    """Run the battery; `full` runs it at the acceptance battery's sizes."""
    results = [fn(**full_sizes(fn)) if full else fn() for fn in _FAST_CHECKS]
    return {"checks": results, "all_passed": all(r["passed"] for r in results)}
