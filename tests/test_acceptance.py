"""Acceptance battery: one test per criterion, at its stated tolerance.

Where `fracbin.verify` has a check for the criterion, the test runs that check
at its `verify --full` sizes, seeds and bounds (`verify._FULL_SIZES`, the one
place they are kept) and adds only what the check does not assert.

Each test prints a single PASS line with the measured values once its
assertions hold, so `pytest -s tests/test_acceptance.py` reads as a report.
"""

import json
import time

import numpy as np
import pytest

from fracbin import (
    HurstParams,
    MarketSpec,
    McConfig,
    census,
    characteristic_function,
    coefficient_table,
    limit_proportion,
    finite_level_proportion,
    verify,
)
from fracbin.cli import main

pytestmark = pytest.mark.acceptance

H_C_GOLDEN = 0.6765697566038956  # extended-precision bisection oracle
N_H_GOLDEN_09 = 2  # first nonempty level at H = 0.9 (exhaustive scan)


def _report(num: int, text: str) -> None:
    print(f"PASS criterion-{num}: {text}")


def _passes(check) -> dict:
    """Run a verify check at its `verify --full` sizes and assert that it passed."""
    result = check(**verify.full_sizes(check))
    assert result["passed"], result
    return result


def test_criterion_01_scaling_law():
    t0 = time.time()
    worst = _passes(verify.check_scaling_law)["measured"]
    elapsed = time.time() - t0
    assert elapsed <= 120.0
    sizes = verify.full_sizes(verify.check_scaling_law)
    _report(1, f"scaling law on {sizes['tuples']} (J, g) and {sizes['g_tuples']} g tuples, "
               f"worst |N^H J - j| = {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_coefficient_brackets():
    t0 = time.time()
    _passes(verify.check_brackets)
    elapsed = time.time() - t0
    assert elapsed <= 60.0
    _report(2, f"bracket pairs over n<=200 at 3 H values, 0 violations, {elapsed:.1f}s")


def test_criterion_03_last_coefficient_limit():
    rels = {}
    for H in verify.H_GRID:
        p = HurstParams(H)
        t = coefficient_table(p, 10**4)
        want = p.g_H * (2.0 ** (H + 0.5) - 2.0)
        rels[H] = abs(t.j[-1] - want) / want
        assert rels[H] <= 1e-2
    _report(3, "last-coefficient limit rel errs " +
            ", ".join(f"H={H}: {rel:.1e}" for H, rel in rels.items()))


def test_criterion_04_turning_point():
    worst = _passes(verify.check_turning_point)["measured"]
    _report(4, f"turning-point ratio within {worst:.1e} at n=1e5 and discrete "
               "unimodality exact for n<=40 at 3 H values")


def test_criterion_05_census_exactness():
    _passes(verify.check_census_agreement)
    t0 = time.time()
    census(MarketSpec(N=24, params=HurstParams(0.75)))
    elapsed = time.time() - t0
    assert elapsed <= 60.0
    _report(5, f"Gray = naive = production for all n<=20 at 3 H values; "
               f"N=24 census in {elapsed:.1f}s single-threaded")


def test_criterion_06_arbitrage_existence():
    t0 = time.time()
    longest = _passes(verify.check_reach)["measured"]
    # first nonempty level at H = 0.9 and the path-proportion floor at N=24
    p9 = HurstParams(0.9)
    n_h = None
    for n in range(2, 40):
        t = coefficient_table(p9, n)
        if float(np.sum(t.j)) >= t.g:
            n_h = n
            break
    assert n_h == N_H_GOLDEN_09
    c24 = census(MarketSpec(N=24, params=p9))
    floor = 2.0 ** (2 - n_h) * 0.9
    assert c24.path_proportion >= floor
    elapsed = time.time() - t0
    _report(6, f"reach finite for all 511 prefixes x2 directions at 3 H "
               f"(worst {longest}); n_H(0.9)={n_h}; path proportion "
               f"{c24.path_proportion:.4f} >= {floor:.4f}; {elapsed:.1f}s")


def test_criterion_07_variance_limit():
    rel = _passes(verify.check_variance_limit)["measured"]
    _report(7, f"var_hat(1e4) within {rel:.2%} of the series limit; var_bar shrinks")


def test_criterion_08_limit_proportion():
    t0 = time.time()
    estimates = _passes(verify.check_limit_bounds)["measured"]
    elapsed = time.time() - t0
    assert elapsed <= 180.0
    _report(8, "limit proportion: " +
            ", ".join(f"p({H})={p:.4f}" for H, p in estimates.items()) + f"; {elapsed:.0f}s")


def test_criterion_09_finite_level_vs_limit():
    p8 = HurstParams(0.8)
    lim = limit_proportion(p8, McConfig(samples=10**6, seed=4, truncation_k=8192))
    t20 = coefficient_table(p8, 20)
    exact = finite_level_proportion(p8, 20, 0.0, t20, McConfig(samples=10, truncation_k=19))
    assert exact.exact
    gap = abs(exact.p_hat - lim.p_hat)
    assert gap <= 0.05
    _report(9, f"exact level-20 proportion {exact.p_hat:.5f} vs limit "
               f"{lim.p_hat:.5f} (gap {gap:.4f} <= 0.05)")


def test_criterion_10_critical_parameter():
    r = _passes(verify.check_critical_point)["measured"]
    assert abs(r["h_c"] - H_C_GOLDEN) <= 5e-7  # 6-digit agreement with the oracle
    _report(10, f"h_c={r['h_c']:.8f}, H_c={r['H_c']:.8f}, residual {r['residual']:.1e}")


def test_criterion_11_characteristic_function():
    p = HurstParams(0.75)
    for v in (0.3, 1.1, 2.7):
        assert characteristic_function(p, -v) == characteristic_function(p, v)
    r = _passes(verify.check_cf)
    _report(11, f"ECF worst gap {r['measured']['ecf_worst']:.1e} <= {r['bound']['ecf']:.1e}; "
                f"decay exponent {r['measured']['exponent']:.3f}")


def test_criterion_12_determinism(tmp_path):
    p_hat = _passes(verify.check_determinism)["measured"]
    sizes = verify.full_sizes(verify.check_determinism)
    files = []
    for tag, threads in (("a", "1"), ("b", "1"), ("c", "8")):
        out = tmp_path / f"det_{tag}.json"
        rc = main(["mc-limit", "--H", "0.8", "--samples", str(sizes["samples"]),
                   "--seed", str(sizes["seed"]), "--trunc-k", str(sizes["truncation_k"]),
                   "--threads", threads, "--out", str(out)])
        assert rc == 0
        files.append(out.read_bytes())
    assert files[0] == files[1] == files[2]
    assert json.loads(files[0])["p_hat"] == p_hat
    _report(12, f"MC outputs byte-identical across reruns and threads 1 vs 8 (p_hat={p_hat})")
