"""Kernel and level-table quadrature against extended-precision oracles."""

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
    _gl01,
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


def test_power_memo_is_bounded_and_cleared():
    clear_table_cache()
    # at H = 0.99 a 1e-16 tolerance sends the interior up every rung
    tight = QuadratureConfig(abs_tol=1e-16, rel_tol=1e-16)
    for n in range(4, 40):
        coefficient_table(HurstParams(0.8), n)
        with pytest.raises(QuadratureError):
            coefficient_table(HurstParams(0.99), n, tight)
    memo = coefficients._POWER_MEMO
    assert set(memo) == set(_ORDER_LADDER)
    for (qo, qi), (a, n, d, b) in memo.items():
        assert d.shape == (n - 3, qo) and b.shape == (n - 3, qo, qi)
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
