"""Kernel and level-table quadrature against extended-precision oracles."""

import math
import sys
import threading
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracbin import (
    HurstParams,
    I_integrals,
    J_unscaled,
    QuadratureConfig,
    clear_table_cache,
    coefficient_table,
    coefficients,
    g_coeff,
    g_unscaled,
    j_coeff,
    kernel,
    turning_point,
)
from fracbin.coefficients import (
    _ORDER_LADDER,
    DEFAULT_QUAD,
    _crossing_rows,
    _gj01,
    _gl01,
    _gl11,
    coefficient_tables,
    table_fingerprint,
    write_tables_csv,
)
from fracbin.errors import QuadratureError
from fracbin.hurst import SCALE_MAX

# 40-digit nested-quadrature oracle values (sigma = 1)
KERNEL_GOLDEN = 0.9375919636980572333  # k_H(1, 0.5) at H = 0.75
J_GOLDEN = {
    (0.75, 5, 1): 0.1822271995568442502,
    (0.75, 5, 2): 0.1564698305601206237,
    (0.75, 5, 3): 0.1890522943679609824,
    (0.75, 5, 4): 0.3409159567792837356,
    (0.75, 2, 1): 0.4376183766770189743,
    (0.6, 2, 1): 0.1558060666088625916,
    (0.9, 2, 1): 0.6474690426345474209,
    (0.9, 5, 4): 0.4040567189916261894,
}
G_GOLDEN = {
    (0.75, 1): 0.9504611797752525003,  # also the exact Beta closed form
    (0.75, 5): 0.8610691888216482633,
}


def test_kernel_golden():
    assert kernel(0.75, 1.0, 0.5) == pytest.approx(KERNEL_GOLDEN, rel=5e-13)


def test_kernel_scaling_identity():
    # k(l t, l s) = l^{H-1/2} k(t, s) at (t, s, l) = (1, 0.3, 2)
    H, lam = 0.75, 2.0
    left = kernel(H, lam * 1.0, lam * 0.3)
    right = lam ** (H - 0.5) * kernel(H, 1.0, 0.3)
    assert left == pytest.approx(right, rel=1e-12)


def test_kernel_vanishes_at_coincidence():
    # k(t, s) -> 0 like (t-s)^{H-1/2} as t -> s+
    vals = [kernel(0.7, 0.5 + dt, 0.5) for dt in (1e-2, 1e-4, 1e-6)]
    assert vals[0] > vals[1] > vals[2]
    rate = 1e-2 ** (0.7 - 0.5)
    assert vals[1] / vals[0] == pytest.approx(rate, rel=1e-2)
    assert vals[2] / vals[1] == pytest.approx(rate, rel=1e-2)


def test_kernel_domain_errors():
    with pytest.raises(ValueError):
        kernel(0.7, 1.0, 0.0)
    with pytest.raises(ValueError):
        kernel(0.7, 0.3, 0.5)
    with pytest.raises(ValueError):
        kernel(0.45, 1.0, 0.5)


def test_j_coeff_goldens():
    for (H, n, i), want in J_GOLDEN.items():
        assert j_coeff(HurstParams(H), n, i) == pytest.approx(want, rel=1e-11)


def test_j_scales_with_sigma():
    base = j_coeff(HurstParams(0.7), 6, 3)
    assert j_coeff(HurstParams(0.7, sigma=2.5), 6, 3) == pytest.approx(2.5 * base, rel=1e-13)


def test_g_coeff_goldens():
    for (H, n), want in G_GOLDEN.items():
        assert g_coeff(HurstParams(H), n) == pytest.approx(want, rel=1e-12)


def test_g_bracket_and_limit():
    p = HurstParams(0.8)
    g100 = g_coeff(p, 100)
    assert p.g_H <= g100 <= p.g_H * (1.0 + 1.0 / 99.0) ** p.alpha
    assert g_coeff(p, 10**4) == pytest.approx(p.g_H, rel=1e-4)


def test_scaling_identities_at_spec_points():
    p = HurstParams(0.7)
    assert 64**0.7 * J_unscaled(p, 64, 7, 3) == pytest.approx(j_coeff(p, 7, 3), abs=1e-8)
    assert 64**0.7 * g_unscaled(p, 64, 7) == pytest.approx(g_coeff(p, 7), abs=1e-8)
    # N = n reduces to the scaled value
    assert 7**0.7 * g_unscaled(p, 7, 7) == pytest.approx(g_coeff(p, 7), abs=1e-10)
    assert 2**0.75 * J_unscaled(HurstParams(0.75), 2, 2, 1) == pytest.approx(
        J_GOLDEN[(0.75, 2, 1)], abs=1e-9)


@given(st.floats(min_value=0.55, max_value=0.95), st.integers(2, 24))
@settings(max_examples=15, deadline=None)
def test_scaling_identity_randomized(H, N):
    rng = np.random.default_rng(N)
    n = int(rng.integers(2, N + 1))
    i = int(rng.integers(1, n))
    p = HurstParams(H)
    assert N**H * J_unscaled(p, N, n, i) == pytest.approx(j_coeff(p, n, i), abs=1e-8)


@pytest.mark.parametrize("H", [0.501, 0.51])
def test_scaling_identity_near_half(H):
    # every (N, n, i) with N <= 8 just above H = 1/2, where the fixed inner
    # rule of the unscaled route is least accurate
    p = HurstParams(H)
    for N in range(1, 9):
        for n in range(1, N + 1):
            assert N**H * g_unscaled(p, N, n) == pytest.approx(g_coeff(p, n), abs=1e-8)
            for i in range(1, n):
                assert N**H * J_unscaled(p, N, n, i) == pytest.approx(j_coeff(p, n, i), abs=1e-8)


def test_bracket_at_spec_point():
    p = HurstParams(0.75)
    t = coefficient_table(p, 50)
    i_vals = I_integrals(0.75, 50)
    j10 = t.j[9]
    lo = p.c_H * 49.0**0.25 * i_vals[9]
    hi = p.c_H * 50.0**0.25 * i_vals[9]
    assert lo - t.j_err[9] - 1e-12 <= j10 <= hi + t.j_err[9] + 1e-12


def test_brackets_whole_table():
    p = HurstParams(0.7)
    for n in (2, 3, 7, 25, 60):
        t = coefficient_table(p, n)
        i_vals = I_integrals(0.7, n)
        lo = p.c_H * (n - 1.0) ** p.alpha * i_vals
        hi = p.c_H * float(n) ** p.alpha * i_vals
        assert np.all(t.j >= lo - t.j_err - 1e-12)
        assert np.all(t.j <= hi + t.j_err + 1e-12)
        assert np.all(t.j > 0)


def test_last_coefficient_limit():
    p = HurstParams(0.75)
    t = coefficient_table(p, 10**4)
    want = p.g_H * (2.0 ** (p.H + 0.5) - 2.0)
    assert t.j[-1] == pytest.approx(want, rel=1e-2)


def test_j_fixed_i_decays_engineering_tolerance():
    # j_n(1) -> 0; the 1e-2 threshold at n = 1e4 is an engineering choice
    p = HurstParams(0.75)
    vals = [coefficient_table(p, n).j[0] for n in (10, 100, 1000, 10**4)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-2


def test_turning_point_ratio_and_clamp():
    x, i_n = turning_point(0.75, 10**5)
    assert x / (10**5 - 1) == pytest.approx(0.25, abs=1e-3)
    assert turning_point(0.75, 2)[1] == 1
    with pytest.raises(ValueError):
        turning_point(0.75, 1)


def test_interior_minimum_of_I():
    # decreasing left of the minimum cell, increasing right of it; the step
    # across the cell holding x_n carries no sign claim
    i_vals = I_integrals(0.7, 40)
    _, i_n = turning_point(0.7, 40)
    d = np.diff(i_vals)
    assert np.all(d[: i_n - 2] < 0)
    assert np.all(d[i_n:] > 0)


def test_error_estimates_within_config():
    cfg = QuadratureConfig(abs_tol=1e-10, rel_tol=1e-9)
    t = coefficient_table(HurstParams(0.65), 30, cfg)
    assert np.all(t.j_err <= np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(t.j)))
    assert t.g_err <= cfg.tol_for(t.g)


# j_2(1)/(sigma*C_H) = B(1-a,a) int_0^1 (1+v)^a I_{1/(1+v)}(1-a,a) dv, the
# adaptive v-integral of the exact x-integral, by mpmath at 50 digits with
# a = float(H) - 1/2 exactly; 40 digits kept
J2_REFERENCE = {
    0.5001: "1.386334090269653421089906624295016861112",
    0.501: "1.386693568226550457887970137188725948038",
    0.51: "1.390478441748796811890473694752604584325",
    0.55: "1.411542856417379555107252210127729791847",
    0.75: "1.636500057475372397851749769531674574843",
    0.8862: "1.952272328125181708919407782116671755843",
    0.95: "2.174503640282024002810956363040718149204",
    0.999: "2.39293076984056607425126089413720906911",
}


@pytest.mark.parametrize("H", sorted(J2_REFERENCE))
def test_j2_matches_40_digit_references(H):
    p = HurstParams(H)
    t = coefficient_table(p, 2)
    ref = Fraction(J2_REFERENCE[H]) * Fraction(p.sigma * p.C_H)
    miss = abs(Fraction(t.j[0]) - ref)
    assert miss <= Fraction(1e-11) * ref
    assert miss <= Fraction(t.j_err[0])


@pytest.mark.parametrize("H", sorted(J2_REFERENCE))
def test_j2_agrees_with_the_quadpack_route(H):
    # N^H J(N, n, i) = j_n(i) at N = n = 2.  J's side of the bound is the
    # tolerance it was held to, scaled as J is: J = sigma sqrt(2) times the
    # integral that met cfg.  Against the 40-digit reference J has that
    # tolerance alone; the inner rules' error is largest near H = 1/2.
    cfg = QuadratureConfig(abs_tol=1e-14, rel_tol=1e-12)
    p = HurstParams(H)
    J = J_unscaled(p, 2, 2, 1, cfg)
    scale = p.sigma * math.sqrt(2.0)
    tol = 2**H * scale * cfg.tol_for(J / scale)
    t = coefficient_table(p, 2)
    assert abs(2**H * J - t.j[0]) <= t.j_err[0] + tol
    ref = Fraction(J2_REFERENCE[H]) * Fraction(p.sigma * p.C_H)
    assert abs(Fraction(2**H * J) - ref) <= Fraction(tol)


@pytest.mark.parametrize("m", [64, 96])
def test_tanh_sinh_rule_keeps_the_end_mass_of_an_endpoint_singularity(m):
    # int_0^1 x^-a dx = 1/(1-a): the mass a truncated t-range drops near an
    # end grows as a -> 1/2 and no rung difference sees it
    d, w = coefficients._de01(m)
    x = np.where(np.arange(m) < m // 2, d, 1.0 - d)
    for a in (0.25, 0.45, 0.4999):
        assert float(np.dot(x**-a, w)) == pytest.approx(1.0 / (1.0 - a), rel=1e-14)


@pytest.mark.parametrize("rel_tol", [1e-12, 1e-13, 1e-14])
@pytest.mark.parametrize("H", [0.51, 0.55, 0.75, 0.95])
def test_unscaled_route_meets_tight_tolerances_or_raises(H, rel_tol):
    # the tanh-sinh range's dropped end mass, the inner rules' own error and
    # the rounding of K_hi - K_lo (about 1.4/a times J near H = 1/2) all lie
    # outside the rung difference, so they must stay below it or be counted
    cfg = QuadratureConfig(abs_tol=1e-300, rel_tol=rel_tol)
    p = HurstParams(H)
    t = coefficient_table(p, 2, cfg)
    try:
        J = J_unscaled(p, 2, 2, 1, cfg)
    except QuadratureError:
        return
    assert abs(2**H * J - t.j[0]) <= cfg.tol_for(t.j[0]) + t.j_err[0]


def test_j2_error_bound_is_checked():
    # the rungs agree within 1e-15, but the rounding allowance does not fit
    with pytest.raises(QuadratureError, match=r"j_2\(1\): error bound .* above tolerance") as exc:
        coefficients._j2_value(0.25, QuadratureConfig(abs_tol=1e-300, rel_tol=1e-15))
    assert exc.value.err > 1e-15 * exc.value.best


_UNREACHABLE = QuadratureConfig(abs_tol=1e-300, rel_tol=1e-300)


@pytest.mark.parametrize("route", [
    pytest.param(lambda: coefficient_table(HurstParams(0.75), 6, _UNREACHABLE), id="interior"),
    pytest.param(lambda: coefficient_table(HurstParams(0.75), 2, _UNREACHABLE), id="j2"),
    pytest.param(lambda: coefficient_table(HurstParams(0.75), 3, _UNREACHABLE), id="j_first"),
    pytest.param(lambda: I_integrals(0.75, 10, _UNREACHABLE), id="I_integrals"),
    pytest.param(lambda: kernel(0.75, 1.0, 0.5, _UNREACHABLE), id="kernel"),
    pytest.param(lambda: J_unscaled(HurstParams(0.75), 10, 5, 2, _UNREACHABLE), id="J_unscaled"),
    pytest.param(lambda: g_unscaled(HurstParams(0.75), 4, 2, _UNREACHABLE), id="g_unscaled"),
])
def test_nonconvergence_raises(route):
    with pytest.raises(QuadratureError) as exc:
        route()
    assert isinstance(exc.value.best, float) and np.isfinite(exc.value.best)
    assert exc.value.err > _UNREACHABLE.tol_for(exc.value.best)


def test_validation_errors():
    p = HurstParams(0.7)
    with pytest.raises(ValueError):
        j_coeff(p, 1, 1)
    with pytest.raises(ValueError):
        j_coeff(p, 5, 5)
    with pytest.raises(ValueError):
        g_coeff(p, 0)
    with pytest.raises(ValueError):
        J_unscaled(p, 4, 5, 1)
    with pytest.raises(ValueError):
        QuadratureConfig(abs_tol=-1.0)


def test_table_cache_identity_and_concurrency():
    p = HurstParams(0.66)
    t1 = coefficient_table(p, 12)
    assert coefficient_table(p, 12) is t1

    results = []

    def build():
        results.append(coefficient_table(p, 33))

    threads = [threading.Thread(target=build) for _ in range(8)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    assert all(np.array_equal(r.j, results[0].j) for r in results)


def test_table_fields():
    p = HurstParams(0.7)
    t1 = coefficient_table(p, 1)
    assert t1.j.size == 0 and t1.g > 0
    t9 = coefficient_table(p, 9)
    assert t9.j.size == 8
    assert t9.split_index == turning_point(0.7, 9)[1]
    assert t9.var_total() == pytest.approx(float(np.sum(t9.j**2)))
    with pytest.raises(ValueError):
        t9.j[0] = 1.0  # tables are immutable


def test_csv_dump_deterministic(tmp_path):
    p = HurstParams(0.72)
    tables = [coefficient_table(p, n) for n in (1, 2, 3, 4)]
    for trial in ("a", "b"):
        write_tables_csv(tables, tmp_path / f"{trial}_j.csv", tmp_path / f"{trial}_g.csv")
    assert (tmp_path / "a_j.csv").read_bytes() == (tmp_path / "b_j.csv").read_bytes()
    assert (tmp_path / "a_g.csv").read_bytes() == (tmp_path / "b_g.csv").read_bytes()
    lines = (tmp_path / "a_j.csv").read_text().splitlines()
    assert lines[0] == "n,i,j_value,err"
    assert [ln.split(",")[:2] for ln in lines[1:]] == [
        ["2", "1"], ["3", "1"], ["3", "2"], ["4", "1"], ["4", "2"], ["4", "3"]]
    assert len(table_fingerprint(tables)) == 64


def _fresh_middle_stage(a, n, i_arr, qo, qi):
    """The interior stage with every power computed afresh, as before reuse."""
    xi, wx = _gl01(qo)
    x = (i_arr - 1.0)[:, None] + xi[None, :]
    v, wv = _gl01(qi)
    smooth = (v + (n - 1.0)) ** a * wv
    b = (v + (n - 1.0 - x)[..., None]) ** (a - 1.0)
    return (x ** (-a) * (b @ smooth)) @ wx


def _fresh_interior_rows(a, levels, width, qo, qi, powers):
    """The batched interior stage, one level at a time through _fresh_middle_stage."""
    out = np.zeros((len(levels), width))
    for row, n in zip(out, levels.tolist()):
        row[:n - 3] = _fresh_middle_stage(a, n, np.arange(2, n - 1, dtype=np.float64), qo, qi)
    return out


def _fresh_j_first_stage(a, n, qo, qi):
    """One stage of j_n(1) for one level n >= 3, as before batching."""
    x, wx = _gj01(qo, 0.0, -a)
    v, wv = _gl01(qi)
    smooth = (v + (n - 1.0)) ** a * wv
    b = (v + (n - 1.0 - x)[:, None]) ** (a - 1.0)
    return float(np.dot(b @ smooth, wx))


def _fresh_j_last_stage(a, n, qs, qt):
    """One stage of j_n(n-1) for one level n >= 3, as before batching."""
    tau, wt = _gl11(qt)

    def psi(s, t):
        return ((n - 1.0) - (s - t) / 2.0) ** (-a) * ((n - 1.0) + (s + t) / 2.0) ** a

    s1, ws1 = _gj01(qs, 0.0, a)
    p1 = 0.5 * float(np.dot(psi(s1[:, None], s1[:, None] * tau[None, :]) @ wt, ws1))
    s2, ws2 = _gl01(qs)
    s2 = 1.0 + s2
    f2 = s2 ** (a - 1.0) * (2.0 - s2) * (psi(s2[:, None], (2.0 - s2)[:, None] * tau[None, :]) @ wt)
    p2 = 0.5 * float(np.dot(f2, ws2))
    return p1 + p2


def _fresh_g_stage(a, n, qo, qi):
    """One stage of g_n/(sigma*C_H) for one level n >= 2, as before batching."""
    y, wy = _gj01(qi, 0.0, a - 1.0)
    u, wu = _gj01(qo, a, 0.0)
    x = (n - 1.0) + u
    inner = ((y[None, :] * (n - x)[:, None] + x[:, None]) ** a) @ wy
    return float(np.dot(x ** (-a) * inner, wu))


def _fresh_ladder(stage, cfg, what):
    """One level's own order ladder, raising as the package does."""
    prev = None
    for qo, qi in _ORDER_LADDER:
        cur = stage(qo, qi)
        if prev is not None:
            err = abs(cur - prev)
            if np.all(err <= np.maximum(cfg.abs_tol, cfg.rel_tol * abs(cur))):
                return cur, err
        prev = cur
    worst = np.argmax(err)
    raise QuadratureError(f"{what}: order ladder exhausted",
                          best=float(np.ravel(cur)[worst]), err=float(np.ravel(err)[worst]))


def _fresh_table_bytes(H, sigma, n, cfg=DEFAULT_QUAD):
    """(j, j_err, g, g_err) of level n built alone, stage by stage, powers afresh.

    The stages run in the order interior, j_n(1), j_n(n-1), g_n, so the first
    one to exhaust the ladder raises.
    """
    p = HurstParams(H, sigma)
    a, scale = p.alpha, p.sigma * p.C_H
    j, j_err = np.empty(n - 1), np.empty(n - 1)
    if n >= 4:
        i_arr = np.arange(2, n - 1, dtype=np.float64)
        j[1:n - 2], j_err[1:n - 2] = _fresh_ladder(
            lambda qo, qi: _fresh_middle_stage(a, n, i_arr, qo, qi), cfg, f"j_{n}(2..{n - 2})")
    if n == 2:
        j[0], j_err[0] = coefficients._j2_value(a, cfg)
    if n >= 3:
        j[0], j_err[0] = _fresh_ladder(lambda qo, qi: _fresh_j_first_stage(a, n, qo, qi), cfg,
                                       f"j_{n}(1)")
        j[n - 2], j_err[n - 2] = _fresh_ladder(lambda qo, qi: _fresh_j_last_stage(a, n, qo, qi),
                                               cfg, f"j_{n}({n - 1})")
    if n == 1:
        g = scale * math.pi / math.sin(math.pi * a) / (1.0 + a)
        g_err = float(4.0 * np.finfo(float).eps * g)
    else:
        g, g_err = _fresh_ladder(lambda qo, qi: _fresh_g_stage(a, n, qo, qi), cfg, f"g_{n}")
        g, g_err = scale * g, scale * g_err
    if n >= 2:
        j, j_err = scale * j, scale * j_err
    return j.tobytes(), j_err.tobytes(), repr(g), repr(g_err)


_CLEAR = "clear"  # clear_table_cache(), so a repeated level is built again


def _sweep_bytes(requests):
    """Exact bytes of j, j_err, g and g_err for a sequence of (H, sigma, levels)."""
    clear_table_cache()
    out = []
    for req in requests:
        if req == _CLEAR:
            clear_table_cache()
        else:
            out.extend(_tables_bytes(*req))
    clear_table_cache()
    return out


def _tables_bytes(H, sigma, levels):
    """One coefficient_tables call; levels is one level or a run of them."""
    levels = [levels] if isinstance(levels, int) else levels
    tables = coefficient_tables(HurstParams(H, sigma), levels)
    return [((H, sigma, t.n), t.j.tobytes(), t.j_err.tobytes(), repr(t.g), repr(t.g_err))
            for t in tables]


def _assert_matches_fresh_powers(monkeypatch, requests):
    got = _sweep_bytes(requests)
    with monkeypatch.context() as m:
        m.setattr(coefficients, "_j_interior_rows", _fresh_interior_rows)
        want = _sweep_bytes(requests)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w, g[0]


@pytest.mark.parametrize("H", [0.5005, 0.51, 0.75, 0.97, 0.999])
def test_ascending_sweep_matches_fresh_powers(monkeypatch, H):
    # 140 levels in one call: three blocks share the power rows, across the
    # binade edges at m = 64 and m = 128
    _assert_matches_fresh_powers(monkeypatch, [(H, 1.0, range(1, 141))])


def test_out_of_order_and_repeated_levels_match_fresh_powers(monkeypatch):
    levels = [30, 31, 31, _CLEAR, 31, 32, 29, 30, 65, 66, 67, _CLEAR, 66, 67, 68,
              5, 4, 6, 7, 200, 201, 130, 131, 132, 4, 3, 2, 1, 2]
    _assert_matches_fresh_powers(
        monkeypatch, [lv if isinstance(lv, str) else (0.7, 1.0, lv) for lv in levels])


def test_interleaved_H_and_sigma_match_fresh_powers(monkeypatch):
    # same alpha with another sigma shares the powers; another H never does
    requests = [(H, sigma, n) for n in range(1, 71)
                for H, sigma in ((0.6, 1.0), (0.9, 1.0), (0.6, 2.5))]
    _assert_matches_fresh_powers(monkeypatch, requests)


def test_level_after_clear_matches_fresh_powers(monkeypatch):
    requests = [(0.75, 1.0, n) for n in range(1, 41)]
    requests += [_CLEAR, (0.75, 1.0, 41), (0.75, 1.0, 42), _CLEAR, (0.75, 1.0, 300)]
    _assert_matches_fresh_powers(monkeypatch, requests)


def test_concurrent_sweeps_match_fresh_powers(monkeypatch):
    # each call builds its own power rows; the threads share only the table
    # cache, so every table must still be exact
    sweeps = [[(H, sigma, n) for n in range(1, 61)]
              for H, sigma in ((0.6, 1.0), (0.6, 2.0), (0.8, 1.0), (0.95, 1.0))]
    with monkeypatch.context() as m:
        m.setattr(coefficients, "_j_interior_rows", _fresh_interior_rows)
        want = [_sweep_bytes(sweep) for sweep in sweeps]
    got = [None] * len(sweeps)

    def run(k):
        got[k] = [row for req in sweeps[k] for row in _tables_bytes(*req)]

    threads = [threading.Thread(target=run, args=(k,)) for k in range(len(sweeps))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
        clear_table_cache()
    assert not any(th.is_alive() for th in threads)
    assert got == want


def test_ascending_sweep_recomputes_few_rows(monkeypatch):
    # within one call, level 100 reuses level 99's powers except its new row
    # and the rows m = 2^k
    clear_table_cache()
    rows, rungs = [], []
    real_rows, real_interior = coefficients._power_rows, coefficients._j_interior_rows

    def counting(out, d, v, a):
        rows.append(1 if d.ndim == 1 else d.shape[0])
        real_rows(out, d, v, a)

    def interior(a, levels, width, qo, qi, powers):
        rungs.append(levels.tolist())
        return real_interior(a, levels, width, qo, qi, powers)

    monkeypatch.setattr(coefficients, "_power_rows", counting)
    monkeypatch.setattr(coefficients, "_j_interior_rows", interior)
    coefficient_tables(HurstParams(0.75), [99, 100])
    clear_table_cache()
    assert len(rungs) >= 2 and all(levels == [99, 100] for levels in rungs)
    # each rung writes level 99's 96 rows once
    assert sum(rows) - 96 * len(rungs) <= len(rungs) * (1 + 6)  # m = 1 and m = 2, 4, ..., 64


def test_a_table_build_holds_no_power_rows():
    # the power rows of a call are freed when it returns; only the table stays
    p = HurstParams(0.7)
    coefficient_table(p, 2000)  # warms the node caches
    clear_table_cache()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table = coefficient_table(p, 2000)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        clear_table_cache()
    assert table.n == 2000
    assert held < 2**20


_SWEEPS = [range(1, 71), range(9, 46), [5, 9, 10, 11, 30, 64, 65, 66, 130], range(40, 0, -3),
           [7, 7, 3, 7, 12, 3, 12], [1], [2], [3], [4], [77],
           # one call per entry, the cache kept between them: a gapped block
           # climbs past levels already cached
           ([90], [60], [30], [8], range(5, 70), [130])]
# at H = 0.75, j_20(19), g_27 and g_45 need rung (32, 48) here and j_35(34)
# rung (96, 128), their neighbours only (24, 32); g_2..g_19 and g_23 exhaust
# the ladder
_TIGHT = QuadratureConfig(abs_tol=5e-16, rel_tol=5e-16)
# at H = 0.97 the interiors of levels 22, 25, 29, 33, 41, 44, 45, 47, 52, 55,
# 58, 64 and 68 of this sweep need rung (32, 48) here and 25 and 68 rung
# (64, 96); every other listed level stops at (24, 32), and a third of the
# unlisted ones in 4..100 exhaust
_TIGHTER = QuadratureConfig(abs_tol=1e-300, rel_tol=3e-16)
_TIGHTER_SWEEP = [21, 22, 24, 25, 27, 29, 31, 33, 39, 41, 44, 45, 47, 52, 54, 55, 58, 64, 68, 70]


def _capture_powers(monkeypatch):
    """Wrap _j_interior_rows; the list it returns gains (powers, top) per call.

    powers is the call's power rows and top maps each rung to the highest
    level the call built there.
    """
    captured = []
    real = coefficients._j_interior_rows

    def capturing(a, levels, width, qo, qi, powers):
        if not captured or captured[-1][0] is not powers:
            captured.append((powers, {}))
        top = captured[-1][1]
        top[(qo, qi)] = max(top.get((qo, qi), 0), int(levels[-1]))
        return real(a, levels, width, qo, qi, powers)

    monkeypatch.setattr(coefficients, "_j_interior_rows", capturing)
    return captured


def _assert_powers_match_fresh(a, captured):
    """Each rung's rows equal the powers of its last level n, computed from nothing.

    A rung's buffers hold at most twice the rows of the highest level the
    call built there.
    """
    for powers, top in captured:
        assert set(powers) == set(top)
        for (qo, qi), (n, x, x_pow, d, b) in powers.items():
            rows = len(b)
            assert n - 3 <= rows <= 2 * (top[(qo, qi)] - 3)
            assert x.shape == x_pow.shape == d.shape == (rows, qo) and b.shape == (rows, qo, qi)
            xi, _ = _gl01(qo)
            v, _ = _gl01(qi)
            x_ref = np.arange(1.0, n - 2.0)[:, None] + xi
            d_ref = (n - 1.0) - x_ref[::-1]
            assert x[:n - 3].tobytes() == x_ref.tobytes()
            assert x_pow[:n - 3].tobytes() == (x_ref ** -a).tobytes()
            assert d[:n - 3].tobytes() == d_ref.tobytes()
            assert b[:n - 3].tobytes() == ((v + d_ref[..., None]) ** (a - 1.0)).tobytes()


@pytest.mark.parametrize("H, sigma, cfg, sweeps", [
    *((H, sigma, DEFAULT_QUAD, _SWEEPS)
      for H in (0.5005, 0.75, 0.97, 0.999) for sigma in (1.0, 2.5)),
    (0.75, 1.0, _TIGHT, [range(24, 61), [45, 35, 27, 24, 20], [27], [26]]),
    (0.97, 1.0, _TIGHTER, [_TIGHTER_SWEEP, (_TIGHTER_SWEEP[::-1], _TIGHTER_SWEEP)]),
])
def test_batched_tables_match_level_by_level_oracles(monkeypatch, H, sigma, cfg, sweeps):
    # each sweep starts from an empty cache; 1..70 spans two blocks
    want = {}
    params = HurstParams(H, sigma)
    captured = _capture_powers(monkeypatch)
    for sweep in sweeps:
        calls = sweep if isinstance(sweep, tuple) else (sweep,)
        clear_table_cache()
        for levels in calls:
            got = coefficient_tables(params, levels, cfg)
            assert [t.n for t in got] == list(levels)
            for t in got:
                assert type(t.g) is float and type(t.g_err) is float
                ref = want.setdefault(t.n, _fresh_table_bytes(H, sigma, t.n, cfg))
                assert (t.j.tobytes(), t.j_err.tobytes(), repr(t.g), repr(t.g_err)) == ref, t.n
        _assert_powers_match_fresh(params.alpha, captured)
        captured.clear()
    clear_table_cache()


def test_tighter_sweep_sends_a_gapped_subset_up_the_ladder(monkeypatch):
    # the _TIGHTER case above is only as strong as the rungs it reaches
    reached = {}
    real = coefficients._j_interior_rows

    def recording(a, levels, width, qo, qi, powers):
        reached.setdefault((qo, qi), []).extend(levels.tolist())
        return real(a, levels, width, qo, qi, powers)

    monkeypatch.setattr(coefficients, "_j_interior_rows", recording)
    clear_table_cache()
    coefficient_tables(HurstParams(0.97), _TIGHTER_SWEEP, _TIGHTER)
    clear_table_cache()
    assert reached[_ORDER_LADDER[1]] == _TIGHTER_SWEEP
    assert reached[_ORDER_LADDER[2]] == [22, 25, 29, 33, 41, 44, 45, 47, 52, 55, 58, 64, 68]
    assert reached[_ORDER_LADDER[3]] == reached[_ORDER_LADDER[4]] == [25, 68]


@pytest.mark.parametrize("qo", sorted({qo for qo, _ in _ORDER_LADDER}))
def test_rows_outside_the_crossing_set_keep_their_d_bits(qo):
    # from level n-1 to n, row k moves from m-1 = n-4-k to m: exhaustively over
    # m <= 2^13, only the rows _crossing_rows lists may change d
    xi, _ = _gl01(qo)
    m = np.arange(2, 2**13 + 1)
    delta = (m[:, None] + xi) - m[:, None]
    for k in (0, 1, 2, 3, 6, 31, 32, 1000, 2**13):
        n = m + k + 3
        t, rows = _crossing_rows(n - 1, n, n - 4)
        crossing = np.zeros(len(m), dtype=bool)
        crossing[t[rows == k]] = True
        assert m[crossing].tolist() == [1 << e for e in range(1, 14)]
        d_n = (n - 1.0)[:, None] - (m[:, None] + xi)
        d_prev = (n - 2.0)[:, None] - ((m - 1)[:, None] + xi)
        assert np.array_equal(d_n[~crossing].view(np.int64), d_prev[~crossing].view(np.int64))
    # fl(m + xi) - m, and so d, depends on the binade of m alone
    same = (delta[1:] == delta[:-1]).all(axis=1)
    assert same[(m[1:] & (m[1:] - 1)) != 0].all()


def test_crossing_rows_are_the_binade_changes():
    # gapped, descending and repeated steps: the runs list each row whose m
    # changes binade exactly once, and no other, below kept
    rng = np.random.default_rng(5)
    prev = np.concatenate([rng.integers(0, 3000, 200), [4, 9, 130, 2**12 + 3, 77]])
    levels = np.concatenate([rng.integers(4, 3000, 200), [4, 130, 9, 2**12 + 4, 77]])
    kept = np.minimum(np.maximum(prev - 3, 0), levels - 3)
    t, k = _crossing_rows(prev, levels, kept)
    assert np.all(np.diff(t) >= 0)
    for s, (p, n, top) in enumerate(zip(prev.tolist(), levels.tolist(), kept.tolist())):
        rows = np.arange(top)
        want = rows[np.frexp(n - 3.0 - rows)[1] != np.frexp(p - 3.0 - rows)[1]]
        assert sorted(k[t == s].tolist()) == want.tolist(), (p, n)


@pytest.mark.parametrize("cfg, levels", [
    (_UNREACHABLE, range(1, 30)),  # j_2(1)
    (_UNREACHABLE, range(3, 30)),  # j_3(1): level 3 has no interior
    (_UNREACHABLE, range(4, 30)),  # the interior of level 4 comes first
    (_UNREACHABLE, [40, 9, 6]),  # the lowest level, not the first requested
    (QuadratureConfig(abs_tol=7e-16, rel_tol=7e-16), range(18, 90)),  # only g_19 exhausts
], ids=["j2", "j_first", "interior", "lowest", "g"])
def test_exhausted_ladder_in_a_sweep_raises_as_level_by_level(monkeypatch, cfg, levels):
    want = None
    for n in sorted(set(levels)):
        try:
            _fresh_table_bytes(0.75, 1.0, n, cfg)
        except QuadratureError as exc:
            want, failing = exc, n
            break
    clear_table_cache()
    captured = _capture_powers(monkeypatch)
    with pytest.raises(QuadratureError) as exc:
        coefficient_tables(HurstParams(0.75), levels, cfg)
    assert (str(exc.value), exc.value.best, exc.value.err) == (str(want), want.best, want.err)
    # the level-by-level rebuild reuses the failed block's power rows
    _assert_powers_match_fresh(HurstParams(0.75).alpha, captured)
    # as after a level-by-level sweep, the levels below the failing one are cached
    cached = {key[2] for key in coefficients._TABLE_CACHE}
    clear_table_cache()
    assert {n for n in levels if n < failing} <= cached


@pytest.mark.parametrize("H", [0.501, 0.51, 0.6, 0.75, 0.9, 0.99])
def test_weight_brackets_contain_every_weight(H):
    # every column, the full sum and g_n, each within its quadrature error
    p = HurstParams(H)
    for t in coefficient_tables(p, list(range(2, 401)) + [1000, 2000]):
        b = coefficients.weight_brackets(p, [t.n], t.n - 1)
        assert np.all(b.j_lo[0] - t.j_err <= t.j) and np.all(t.j <= b.j_hi[0] + t.j_err), t.n
        total, err = float(np.sum(t.j)), float(np.sum(t.j_err))
        assert b.sum_lo[0] - err <= total <= b.sum_hi[0] + err, t.n
        assert b.g_lo[0] - t.g_err <= t.g <= b.g_hi[0] + t.g_err, t.n
    clear_table_cache()


@pytest.mark.parametrize("H", [0.501, 0.6, 0.75, 0.99])
@pytest.mark.parametrize("n", [2, 3, 7, 40, 300])
def test_weight_brackets_sum_is_the_closed_form_of_sum_I(H, n):
    # sum_i I_n(i) = B(1-a,1+a) (1 - n I_{1/n}(1+a,1-a)), the factor both sum
    # bounds share: s (n-1)^a and s n^a times it
    p = HurstParams(H)
    b = coefficients.weight_brackets(p, [n, n + 1], 1)
    s = p.sigma * p.c_H
    total = float(np.sum(I_integrals(H, n)))
    assert b.sum_lo[0] / (s * (n - 1.0) ** p.alpha) == pytest.approx(total, rel=1e-9, abs=1e-10)
    assert b.sum_hi[0] / (s * float(n) ** p.alpha) == pytest.approx(total, rel=1e-9, abs=1e-10)


def test_weight_brackets_widths_shrink_like_one_over_n():
    # what lets reach decide deep levels: the full sum's bracket is about a/n
    # wide, relative, and a prefix column's about (1-a)/(n-i) + a/n
    p = HurstParams(0.51)
    levels = np.array([100, 1000, 10**4])
    b = coefficients.weight_brackets(p, levels, 8)
    assert np.all((b.sum_hi - b.sum_lo) / b.sum_lo <= 1.01 * p.alpha / (levels - 1.0) + 1e-12)
    assert np.all(b.j_hi / b.j_lo - 1.0 <= 1.2 / (levels[:, None] - 9.0))
    assert np.all((b.g_hi - b.g_lo) / b.g_lo <= 2.01 * p.alpha / (levels - 1.0))


def test_weight_brackets_never_warn_near_overflow():
    # at the largest sigma HurstParams accepts, every bound is finite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for H in (0.5 + 1e-7, 0.75, 1.0 - 1e-7):
            b = coefficients.weight_brackets(HurstParams(H, SCALE_MAX), [2, 50, 10**6], 1)
            assert all(np.all(np.isfinite(v)) for v in b)
    with pytest.raises(ValueError):
        coefficients.weight_brackets(HurstParams(0.75), [5, 3], 3)
