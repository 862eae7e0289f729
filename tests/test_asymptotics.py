"""Sampler determinism, estimates, bounds, and the characteristic function."""

import math

import numpy as np
import pytest

from fracbin import (
    HurstParams,
    McConfig,
    TruncationError,
    characteristic_function,
    coefficient_table,
    exceedance_frequency,
    finite_level_proportion,
    fit_cf_decay,
    limit_proportion,
    rho_sq_total,
    sample_limit_variable,
    split_variances,
)
from fracbin import asymptotics as asym
from fracbin.market import census, MarketSpec

# frozen reference trace: H=0.7, sigma=1, seed=42, K=4096 (see sampler layout
# in fracbin.asymptotics; any change to the stream is a breaking change)
GOLDEN_SAMPLES = [-0.2827915761886084, -0.33060624940848504, 0.34641174215911674,
                  -0.5985910668653653, 0.17894612085051817]

# independent 30-digit product oracle (20000 factors + zeta tail), H=0.8
CF_GOLDEN_08 = {0.6: 0.9417141483226103, 1.8: 0.5724281204101848, 5.0: -0.016989209683168631}


def test_mcconfig_validation():
    with pytest.raises(ValueError):
        McConfig(truncation_k=None, tail_sd_tol=None)
    with pytest.raises(ValueError):
        McConfig(truncation_k=100, tail_sd_tol=1e-3)
    with pytest.raises(ValueError):
        McConfig(confidence=1.0)
    with pytest.raises(ValueError):
        McConfig(samples=0)


def test_resolve_truncation_modes(p08, monkeypatch):
    k_explicit, sd = asym.resolve_truncation(p08, McConfig(truncation_k=4096))
    assert k_explicit == 4096 and sd > 0
    tol = 0.05 * p08.g_H
    cfg = McConfig(truncation_k=None, tail_sd_tol=tol)
    monkeypatch.setattr(asym, "_SAMPLER_K_CAP", 1 << 22)
    k_auto, sd_auto = asym.resolve_truncation(p08, cfg)
    assert sd_auto <= tol
    assert 2.0 * p08.g_H * math.sqrt(
        __import__("fracbin.hurst", fromlist=["rho_pow_tail"]).rho_pow_tail(p08.h, k_auto - 1, 2)
    ) > tol  # minimality
    monkeypatch.undo()
    with pytest.raises(TruncationError):
        asym.resolve_truncation(p08, McConfig(truncation_k=None, tail_sd_tol=1e-6 * p08.g_H))


def test_sampler_golden_trace():
    p7 = HurstParams(0.7)
    y = sample_limit_variable(p7, McConfig(samples=5, seed=42, truncation_k=4096))
    np.testing.assert_allclose(y, GOLDEN_SAMPLES, rtol=0, atol=0)


@pytest.mark.parametrize("K", [20, 64, 8192 - 3])
def test_sampler_matches_bytewise_oracle(K, monkeypatch):
    # replay the documented byte layout independently, bit for bit; 20 is
    # one padded word, 64 one full word, 8189 many words with padding weights
    p = HurstParams(0.8)
    samples, chunk = 7, 3
    monkeypatch.setattr(asym, "_CHUNK", chunk)
    cfg = McConfig(samples=samples, seed=9, truncation_k=K)
    got = sample_limit_variable(p, cfg)
    nblocks = (K + 7) // 8
    padded = np.zeros(8 * nblocks)
    padded[:K] = asym.limit_weights(p, K)
    expect = []
    for c in range((samples + chunk - 1) // chunk):
        rng = np.random.Generator(np.random.Philox(key=np.array([9, c], dtype=np.uint64)))
        raw = np.frombuffer(rng.bytes(chunk * nblocks), dtype=np.uint8).reshape(chunk, nblocks)
        for s in range(chunk):
            total = 0.0
            for b in range(nblocks):
                block = 0.0
                for j in range(8):
                    bit = (int(raw[s, b]) >> j) & 1
                    block = block + padded[8 * b + j] if bit else block - padded[8 * b + j]
                total += block
            expect.append(total)
    np.testing.assert_array_equal(got.view(np.uint64), np.array(expect[:samples]).view(np.uint64))


def _column_chunk_values(tables, seed, chunk_index, n):
    # reference route: one strided byte column per block
    nblocks = tables.shape[0]
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, chunk_index], dtype=np.uint64)))
    raw = np.frombuffer(rng.bytes(n * nblocks), dtype=np.uint8).reshape(n, nblocks)
    y = tables[0][raw[:, 0]].copy()
    for b in range(1, nblocks):
        y += tables[b][raw[:, b]]
    return y


@pytest.mark.parametrize("K", [8192, 1999])
def test_chunk_values_match_column_reference(p08, K):
    # a full 4096-sample chunk; 1999 needs rows padded to whole words
    tables = asym._block_tables(asym.limit_weights(p08, K))
    got = asym._chunk_values(tables, 17, 2, 4096)
    expect = _column_chunk_values(tables, 17, 2, 4096)
    np.testing.assert_array_equal(got.view(np.uint64), expect.view(np.uint64))


@pytest.mark.parametrize("K,n", [(20, 3), (1999, 1903), (8192, 1903)])
def test_short_chunk_values_match_column_reference(p08, K, n):
    # a short last chunk: padded rows (K=20, 1999) and a transpose whose one
    # column block is partial
    tables = asym._block_tables(asym.limit_weights(p08, K))
    got = asym._chunk_values(tables, 17, 2, n)
    expect = _column_chunk_values(tables, 17, 2, n)
    np.testing.assert_array_equal(got.view(np.uint64), expect.view(np.uint64))


@pytest.mark.parametrize("K", [20, 1999, 8192])
def test_partial_last_chunk_is_a_prefix_of_whole_chunks(p08, K):
    # the last chunk draws only its kept samples; they must equal the head
    # of the same chunk drawn in full
    whole = sample_limit_variable(p08, McConfig(samples=8192, seed=23, truncation_k=K))
    for s in (1903, 5999):
        got = sample_limit_variable(p08, McConfig(samples=s, seed=23, truncation_k=K))
        np.testing.assert_array_equal(got.view(np.uint64), whole[:s].view(np.uint64))


def test_sampler_moments(p08):
    cfg = McConfig(samples=200_000, seed=1, truncation_k=8192)
    y = sample_limit_variable(p08, cfg)
    K, _ = asym.resolve_truncation(p08, cfg)
    w = asym.limit_weights(p08, K)
    var_analytic = float(np.sum(w**2))
    assert abs(y.mean()) <= 4.0 * y.std() / math.sqrt(len(y))
    assert y.var() == pytest.approx(var_analytic, rel=0.02)


def test_variance_telescoping(p08):
    from fracbin.hurst import rho_sq_partial

    K = 4096
    w = asym.limit_weights(p08, K)
    assert float(np.sum(w**2)) == pytest.approx(
        4.0 * p08.g_H**2 * rho_sq_partial(p08.h, K), rel=1e-12
    )


def test_limit_proportion_determinism_and_threads(p08):
    cfg = McConfig(samples=60_000, seed=5, truncation_k=4096)
    a = limit_proportion(p08, cfg)
    b = limit_proportion(p08, cfg)
    c = limit_proportion(p08, cfg, threads=8)
    assert a == b == c
    assert 0 < a.ci_low <= a.p_hat <= a.ci_high < 1
    lo, hi = a.bias_window
    assert lo <= a.p_hat <= hi


def test_limit_proportion_bounds():
    for H, samples in ((0.55, 10**5), (0.95, 10**5)):
        p = HurstParams(H)
        est = limit_proportion(p, McConfig(samples=samples, seed=11, truncation_k=8192))
        s = rho_sq_total(p.h)
        if H == 0.55:
            assert est.p_hat <= 4.0 * s + 3.0 * est.stderr
            assert est.p_hat <= 0.2
        else:
            floor = (1.0 - 1.0 / (4.0 * s)) ** 2 / 3.0
            assert est.p_hat >= floor - 3.0 * est.stderr
            assert est.ci_low > 0.0


def test_finite_level_exact_matches_census(p08):
    t = coefficient_table(p08, 18)
    est = finite_level_proportion(p08, 18, 0.0, t, McConfig(samples=10, truncation_k=17))
    c = census(MarketSpec(N=18, params=p08))
    assert est.exact
    assert est.p_hat == c.per_level_proportions[17]
    assert est.samples == 2**17


def test_finite_level_mc_ci_calibration(p08, monkeypatch):
    # sampled confidence intervals cover the exact value in >= 95/100 runs
    t = coefficient_table(p08, 18)
    exact = finite_level_proportion(p08, 18, 0.0, t, McConfig(samples=10, truncation_k=17)).p_hat
    # a 17-sign level is sampled once enumeration stops at 16 signs
    monkeypatch.setattr(asym, "_EXACT_LEVEL_MAX", 16)
    cover = 0
    for seed in range(100):
        est = finite_level_proportion(
            p08, 18, 0.0, t, McConfig(samples=4096, seed=seed, truncation_k=17, confidence=0.99),
        )
        assert not est.exact
        if est.ci_low <= exact <= est.ci_high:
            cover += 1
    assert cover >= 95


def test_finite_level_offset_sensitivity(p08):
    # Slutsky chain: a vanishing offset moves the proportion by at most
    # (empirical sensitivity) * offset
    n = 18
    t = coefficient_table(p08, n)
    cfg = McConfig(samples=10, truncation_k=17)
    p0 = finite_level_proportion(p08, n, 0.0, t, cfg).p_hat
    probe = 0.1 * t.g
    sens = abs(
        finite_level_proportion(p08, n, probe, t, cfg).p_hat
        - finite_level_proportion(p08, n, -probe, t, cfg).p_hat
    ) / (2 * probe)
    o_n = 1.0 * n ** (p08.H - 1.0)  # sup-norm 1 drift at horizon n
    p_o = finite_level_proportion(p08, n, o_n, t, cfg).p_hat
    assert abs(p_o - p0) <= 3.0 * (sens + 0.5) * o_n + 2.0 ** -(n - 1)


def test_level_proportions_converge_to_limit(p08, monkeypatch):
    # gap to the limit shrinks along n in {10, 14, 18, 22} (exact levels
    # against a pinned-seed limit estimate)
    lim = limit_proportion(p08, McConfig(samples=10**6, seed=21, truncation_k=8192))
    # level 22's 21-sign words are enumerated too
    monkeypatch.setattr(asym, "_EXACT_LEVEL_MAX", 21)
    gaps = []
    for n in (10, 14, 18, 22):
        t = coefficient_table(p08, n)
        est = finite_level_proportion(p08, n, 0.0, t, McConfig(samples=10, truncation_k=8))
        assert est.exact
        gaps.append(abs(est.p_hat - lim.p_hat))
    slack = 3.0 * lim.stderr
    assert all(b <= a + slack for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < gaps[0]


def test_split_variances_additivity(p08):
    n = 400
    t = coefficient_table(p08, n)
    var_bar, var_hat = split_variances(p08, n, t)
    cut = t.split_index - 1
    assert var_bar == float(np.sum(t.j[:cut] ** 2))
    assert var_hat == float(np.sum(t.j[cut:] ** 2))
    assert var_bar + var_hat == pytest.approx(t.var_total(), rel=1e-12)


def test_split_variances_trends():
    p7 = HurstParams(0.7)
    vb_small, _ = split_variances(p7, 100, coefficient_table(p7, 100))
    vb_big, vh_big = split_variances(p7, 3000, coefficient_table(p7, 3000))
    assert vb_big < vb_small
    target = 4.0 * p7.g_H**2 * rho_sq_total(p7.h)
    assert vh_big == pytest.approx(target, rel=0.03)


def test_characteristic_function_basics(p08):
    assert characteristic_function(p08, 0.0) == 1.0
    assert characteristic_function(p08, -1.1) == characteristic_function(p08, 1.1)
    for v, want in CF_GOLDEN_08.items():
        assert characteristic_function(p08, v, tol=1e-10) == pytest.approx(want, abs=2e-10)


def test_characteristic_function_tolerance_consistency(p08):
    for v in (0.4, 2.0, 7.0):
        loose = characteristic_function(p08, v, tol=1e-6)
        tight = characteristic_function(p08, v, tol=1e-12)
        assert loose == pytest.approx(tight, abs=3e-6)


def test_characteristic_function_validation(p08):
    with pytest.raises(ValueError):
        characteristic_function(p08, 1.0, tol=0.0)


def test_empirical_cf_matches_analytic(p075):
    cfg = McConfig(samples=10**5, seed=5, truncation_k=1 << 14)
    y = sample_limit_variable(p075, cfg)
    vs = np.linspace(0.1, 1.2, 10) / p075.g_H
    ecf = asym.empirical_cf(y, vs)
    ana = np.array([characteristic_function(p075, float(v)) for v in vs])
    assert float(np.max(np.abs(ecf - ana))) <= 6.0 / math.sqrt(cfg.samples)


def test_cf_decay_fit(p075):
    theta, expo, used = fit_cf_decay(p075, 40.0 / p075.g_H, 400.0 / p075.g_H, points=40)
    target = 1.0 / (2.0 - 2.0 * p075.h)
    assert theta > 0 and used >= 20
    assert abs(expo - target) / target <= 0.15


def test_exceedance_frequency_regimes():
    cfg = McConfig(samples=30_000, seed=13, truncation_k=64)
    high = HurstParams(0.95)
    rc_high = asym.regime_constants(high)
    ests = exceedance_frequency(high, [24, 48], cfg)
    for n, est in ests:
        assert est.p_hat >= rc_high["floor"] - 3.0 * est.stderr
    low = HurstParams(0.55)
    rc_low = asym.regime_constants(low)
    for n, est in exceedance_frequency(low, [24, 48], cfg):
        assert est.p_hat <= rc_low["ceiling"] + 3.0 * est.stderr
        assert est.p_hat < 1.0


def test_exceedance_stabilizes(p09):
    cfg = McConfig(samples=60_000, seed=3, truncation_k=64)
    (n1, e1), (n2, e2) = exceedance_frequency(p09, [64, 128], cfg)
    joint = 3.0 * (e1.stderr + e2.stderr) + 0.01
    assert abs(e1.p_hat - e2.p_hat) <= joint


def test_regime_constants_straddle_critical():
    lo = asym.regime_constants(HurstParams(0.85))
    hi = asym.regime_constants(HurstParams(0.86))
    assert "eps" in lo and lo["rho_sq_sum"] < 0.25
    assert "delta" in hi and hi["rho_sq_sum"] > 0.25


def test_sampling_starts_no_thread(p08, tmp_path, monkeypatch):
    # every sampler entry point, and --threads 8 on the CLI, must run on the
    # calling thread: starting any thread fails the test
    import threading

    from fracbin.cli import EXIT_OK, main

    def refuse(self):
        raise AssertionError("a sampler started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    cfg = McConfig(samples=10_000, seed=3, truncation_k=256)
    assert 0.0 < limit_proportion(p08, cfg, threads=8).p_hat < 1.0
    assert sample_limit_variable(p08, cfg).shape == (10_000,)
    t = coefficient_table(p08, 30)
    est = finite_level_proportion(p08, 30, 0.0, t, McConfig(samples=10_000, truncation_k=29))
    assert not est.exact and 0.0 < est.p_hat < 1.0
    out = tmp_path / "mc.json"
    argv = ["mc-limit", "--H", "0.8", "--samples", "9000", "--trunc-k", "256",
            "--threads", "8", "--out", str(out)]
    assert main(argv) == EXIT_OK and out.exists()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_inputs_rejected(p08, bad):
    t = coefficient_table(p08, 12)
    with pytest.raises(ValueError, match="drift_offset"):
        finite_level_proportion(p08, 12, bad, t, McConfig(samples=10, truncation_k=11))
    with pytest.raises(ValueError, match="finite"):
        characteristic_function(p08, bad)
