"""Kernel and level-table quadrature against extended-precision oracles."""

import math
import sys
import threading

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
    _gj01,
    _gl01,
    _gl11,
    coefficient_tables,
    table_fingerprint,
    write_tables_csv,
)
from fracbin.errors import QuadratureError

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


@given(st.floats(min_value=0.55, max_value=0.95), st.integers(2, 24))
@settings(max_examples=15, deadline=None)
def test_scaling_identity_randomized(H, N):
    rng = np.random.default_rng(N)
    n = int(rng.integers(2, N + 1))
    i = int(rng.integers(1, n))
    p = HurstParams(H)
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


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_j2_adaptive_error_is_checked(monkeypatch):
    # one quad subdivision leaves j_2(1) about 3e-2 off; it must not be accepted
    clear_table_cache()  # earlier tests cache the (0.75, n=2) table
    with monkeypatch.context() as m:
        m.setattr(coefficients, "_MAX_SUBDIVISIONS", 1)
        with pytest.raises(QuadratureError) as exc:
            coefficient_table(HurstParams(0.75), 2)
    assert exc.value.err > DEFAULT_QUAD.tol_for(exc.value.best)
    t = coefficient_table(HurstParams(0.75), 2)
    assert t.j_err[0] <= DEFAULT_QUAD.tol_for(t.j[0])


def test_adaptive_rejects_a_quadpack_roundoff_flag():
    # quad meets 1e-14 by its own estimate (4.5e-15) but flags roundoff
    cfg = QuadratureConfig(abs_tol=1e-14, rel_tol=1e-14)
    with pytest.raises(QuadratureError, match=r"j_2\(1\)"):
        coefficient_table(HurstParams(0.75), 2, cfg)


_UNREACHABLE = QuadratureConfig(abs_tol=1e-300, rel_tol=1e-300)


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("route", [
    pytest.param(lambda: coefficient_table(HurstParams(0.75), 6, _UNREACHABLE), id="interior"),
    pytest.param(lambda: coefficient_table(HurstParams(0.75), 3, _UNREACHABLE), id="j_first"),
    pytest.param(lambda: I_integrals(0.75, 10, _UNREACHABLE), id="I_integrals"),
    pytest.param(lambda: kernel(0.75, 1.0, 0.5, _UNREACHABLE), id="kernel"),
    pytest.param(lambda: J_unscaled(HurstParams(0.75), 10, 5, 2, _UNREACHABLE), id="J_unscaled"),
])
def test_nonconvergence_raises(route):
    with pytest.raises(QuadratureError) as exc:
        route()
    assert isinstance(exc.value.best, float) and np.isfinite(exc.value.best)
    assert exc.value.err > 0


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


_CLEAR = "clear"  # clear_table_cache(): tables and power memo
_REBUILD = "rebuild"  # drop only the tables, so a repeated level is built again


def _sweep_bytes(requests):
    """Exact bytes of j, j_err, g and g_err for a sequence of (H, sigma, n)."""
    clear_table_cache()
    out = []
    for req in requests:
        if req == _CLEAR:
            clear_table_cache()
        elif req == _REBUILD:
            coefficients._TABLE_CACHE.clear()
        else:
            out.append(_table_bytes(req))
    clear_table_cache()
    return out


def _table_bytes(req):
    H, sigma, n = req
    t = coefficient_table(HurstParams(H, sigma), n)
    return req, t.j.tobytes(), t.j_err.tobytes(), repr(t.g), repr(t.g_err)


def _assert_matches_fresh_powers(monkeypatch, requests):
    got = _sweep_bytes(requests)
    with monkeypatch.context() as m:
        m.setattr(coefficients, "_j_middle_stage", _fresh_middle_stage)
        want = _sweep_bytes(requests)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w, g[0]


@pytest.mark.parametrize("H", [0.5005, 0.51, 0.75, 0.97, 0.999])
def test_ascending_sweep_matches_fresh_powers(monkeypatch, H):
    # 140 levels cross the binade edges at m = 64 and m = 128
    _assert_matches_fresh_powers(monkeypatch, [(H, 1.0, n) for n in range(1, 141)])


def test_out_of_order_and_repeated_levels_match_fresh_powers(monkeypatch):
    levels = [30, 31, 31, _REBUILD, 31, 32, 29, 30, 65, 66, 67, _REBUILD, 66, 67, 68,
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
    # threads replace one another's memo entries mid-sweep; entries are never
    # written after they are stored, so every table must still be exact
    sweeps = [[(H, sigma, n) for n in range(1, 61)]
              for H, sigma in ((0.6, 1.0), (0.6, 2.0), (0.8, 1.0), (0.95, 1.0))]
    with monkeypatch.context() as m:
        m.setattr(coefficients, "_j_middle_stage", _fresh_middle_stage)
        want = [_sweep_bytes(sweep) for sweep in sweeps]
    got = [None] * len(sweeps)

    def run(k):
        got[k] = [_table_bytes(req) for req in sweeps[k]]

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


def test_power_memo_is_bounded_and_cleared(monkeypatch):
    clear_table_cache()
    # at H = 0.99 a 1e-16 tolerance sends the interior up more rungs (all of
    # them at some levels) and exhausts the ladder; a default build at H = 0.8
    # stops at the first two.  After the climb, levels jump up, fall back and
    # switch H.
    tight = QuadratureConfig(abs_tol=1e-16, rel_tol=1e-16)
    builds = [*((H, n, cfg) for n in range(4, 40) for H, cfg in ((0.8, DEFAULT_QUAD), (0.99, tight))),
              *((0.99, n, tight) for n in (20, 90, 12, 5)), (0.8, 45, DEFAULT_QUAD), (0.99, 31, tight)]
    memo = coefficients._POWER_MEMO
    last = {}  # rung -> (a, n) of the last build that reached it
    real = coefficients._j_middle_stage

    def recording(a, n, i_arr, qo, qi):
        last[(qo, qi)] = (a, n)
        return real(a, n, i_arr, qo, qi)

    monkeypatch.setattr(coefficients, "_j_middle_stage", recording)
    for H, n, cfg in builds:
        if cfg is tight:
            with pytest.raises(QuadratureError):
                coefficient_table(HurstParams(H), n, cfg)
        else:
            coefficient_table(HurstParams(H), n, cfg)
        assert last[_ORDER_LADDER[0]] == (HurstParams(H).alpha, n)
        assert set(memo) == set(last)
        for (qo, qi), (a, m, x, x_pow, d, b) in memo.items():
            # one buffer per rung, holding the rows of its last level m and
            # room for at most as many more
            rows = len(b)
            assert (a, m) == last[(qo, qi)]
            assert m - 3 <= rows <= 2 * (m - 3)
            assert x.shape == x_pow.shape == d.shape == (rows, qo) and b.shape == (rows, qo, qi)
    assert set(memo) == set(_ORDER_LADDER)
    clear_table_cache()
    assert not memo


def test_ascending_sweep_recomputes_few_rows(monkeypatch):
    # level n reuses level n-1's powers except row 0 and the rows m = 2^k
    clear_table_cache()
    coefficient_table(HurstParams(0.75), 99)
    rows = []
    real = coefficients._power_rows

    def counting(out, d, v, a):
        rows.append(1 if d.ndim == 1 else d.shape[0])
        real(out, d, v, a)

    monkeypatch.setattr(coefficients, "_power_rows", counting)
    coefficient_table(HurstParams(0.75), 100)
    rungs = sum(1 for entry in coefficients._POWER_MEMO.values() if entry[1] == 100)
    clear_table_cache()
    assert rungs >= 2
    assert sum(rows) <= rungs * (1 + 6)  # row 0 and m = 2, 4, ..., 64 of 97 rows


_SWEEPS = [range(1, 71), range(9, 46), [5, 9, 10, 11, 30, 64, 65, 66, 130], range(40, 0, -3),
           [7, 7, 3, 7, 12, 3, 12], [1], [2], [3], [4], [77]]
# at H = 0.75, g_13..g_17 and g_19 need rung (32, 48) here, their neighbours
# only (24, 32); g_2..g_12 exhaust the ladder
_TIGHT = QuadratureConfig(abs_tol=1.5e-15, rel_tol=1.5e-15)


@pytest.mark.parametrize("H, sigma, cfg, sweeps", [
    *((H, sigma, DEFAULT_QUAD, _SWEEPS)
      for H in (0.5005, 0.75, 0.97, 0.999) for sigma in (1.0, 2.5)),
    (0.75, 1.0, _TIGHT, [range(13, 61), [40, 19, 18, 17, 13], [18], [17]]),
])
def test_batched_tables_match_level_by_level_oracles(H, sigma, cfg, sweeps):
    # each sweep starts from an empty cache and memo; 1..70 spans two blocks
    want = {}
    for levels in sweeps:
        clear_table_cache()
        got = coefficient_tables(HurstParams(H, sigma), levels, cfg)
        assert [t.n for t in got] == list(levels)
        for t in got:
            assert type(t.g) is float and type(t.g_err) is float
            ref = want.setdefault(t.n, _fresh_table_bytes(H, sigma, t.n, cfg))
            assert (t.j.tobytes(), t.j_err.tobytes(), repr(t.g), repr(t.g_err)) == ref, t.n
    clear_table_cache()


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("cfg, levels", [
    (_UNREACHABLE, range(1, 30)),  # j_2(1), adaptive
    (_UNREACHABLE, range(3, 30)),  # j_3(1): level 3 has no interior
    (_UNREACHABLE, range(4, 30)),  # the interior of level 4 comes first
    (_UNREACHABLE, [40, 9, 6]),  # the lowest level, not the first requested
    (QuadratureConfig(abs_tol=1e-15, rel_tol=1e-15), range(17, 90)),  # only g_18 exhausts
], ids=["j2", "j_first", "interior", "lowest", "g"])
def test_exhausted_ladder_in_a_sweep_raises_as_level_by_level(cfg, levels):
    want = None
    for n in sorted(set(levels)):
        try:
            _fresh_table_bytes(0.75, 1.0, n, cfg)
        except QuadratureError as exc:
            want, failing = exc, n
            break
    clear_table_cache()
    with pytest.raises(QuadratureError) as exc:
        coefficient_tables(HurstParams(0.75), levels, cfg)
    assert (str(exc.value), exc.value.best, exc.value.err) == (str(want), want.best, want.err)
    # as after a level-by-level sweep, the levels below the failing one are cached
    cached = {key[2] for key in coefficients._TABLE_CACHE}
    clear_table_cache()
    assert {n for n in levels if n < failing} <= cached
