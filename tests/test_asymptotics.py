"""Sampler determinism, estimates, bounds, and the characteristic function."""

import math
import tracemalloc

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
from fracbin import hurst
from fracbin.market import arbitrage_event, census, MarketSpec

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


@pytest.mark.parametrize("K,n", [(32768, 4096), (32768, 200), (1999, 4096), (1999, 1049),
                                 (8192, 300)])
def test_chunk_values_match_column_reference_across_pieces(p08, K, n):
    # a chunk's stream is drawn in pieces of 8 * (_PIECE_WORDS // nblocks)
    # samples: 64 at K=32768 and 1048 of padded rows at K=1999; a full
    # K=32768 chunk is 64 whole pieces, every other n ends in a short piece
    tables = asym._block_tables(asym.limit_weights(p08, K))
    step = 8 * (asym._PIECE_WORDS // tables.shape[0])
    assert step == {32768: 64, 1999: 1048, 8192: 256}[K]
    got = asym._chunk_values(tables, 17, 2, n)
    expect = _column_chunk_values(tables, 17, 2, n)
    np.testing.assert_array_equal(got.view(np.uint64), expect.view(np.uint64))


@pytest.mark.parametrize("piece_words", [1, 64, 1 << 20])
@pytest.mark.parametrize("K", [20, 1999, 8192])
def test_chunk_values_do_not_depend_on_the_piece_length(p08, monkeypatch, K, piece_words):
    # pieces of 8 samples (piece_words below nblocks) up to the whole chunk in one draw
    tables = asym._block_tables(asym.limit_weights(p08, K))
    expect = asym._chunk_values(tables, 5, 1, 1003)
    monkeypatch.setattr(asym, "_PIECE_WORDS", piece_words)
    got = asym._chunk_values(tables, 5, 1, 1003)
    np.testing.assert_array_equal(got.view(np.uint64), expect.view(np.uint64))


def test_chunk_holds_no_chunk_sized_stream(p08):
    # the K=32768 word buffer is 16 MiB and the tables 8 MiB; a chunk-sized
    # stream array would add another 16 MiB on top of the buffer
    tables = asym._block_tables(asym.limit_weights(p08, 32768))
    asym._chunk_values(tables, 3, 0, 8)  # numpy.random loads on first use, outside the trace
    tracemalloc.start()
    try:
        asym._chunk_values(tables, 3, 0, 4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    words_bytes = 4096 * 8 * (tables.shape[0] // 8)
    assert peak < words_bytes + tables.nbytes + 2**20


def _concatenated_block_tables(w):
    # reference route: the tables grown one bit at a time by concatenation
    nblocks = (len(w) + 7) // 8
    padded = np.zeros(8 * nblocks)
    padded[: len(w)] = w
    t = np.zeros((nblocks, 1))
    for j in range(8):
        col = padded[j::8][:, None]
        t = np.concatenate([t - col, t + col], axis=1)
    return t


@pytest.mark.parametrize("K", [1, 7, 8, 9, 20, 1999, 8192])
def test_block_tables_equal_the_concatenation_route(p08, K):
    w = asym.limit_weights(p08, K)
    got, want = asym._block_tables(w), _concatenated_block_tables(w)
    assert got.shape == want.shape == ((K + 7) // 8, 256) and got.flags.c_contiguous
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("K", [20, 1999, 8192])
def test_shared_views_serve_every_chunk_of_a_run(p08, K):
    # one run's word buffer and block views, reused by three full chunks and
    # a short tail whose width is not a multiple of the 256-sample transpose
    # block; each chunk's values stay its own after later chunks reuse the buffer
    tables = asym._block_tables(asym.limit_weights(p08, K))
    views = asym._chunk_views(tables, 700)
    sizes = [700, 700, 700, 301]
    got = [asym._chunk_values(tables, 31, c, n, views) for c, n in enumerate(sizes)]
    for c, (n, y) in enumerate(zip(sizes, got)):
        expect = _column_chunk_values(tables, 31, c, n)
        np.testing.assert_array_equal(y.view(np.uint64), expect.view(np.uint64))


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


def test_limit_event_is_the_strict_level_rule_at_zero_offset():
    # limit_proportion counts arbitrage_event(y, t, 0, strict=True) for
    # |y| > t: fl(y + t) < 0 iff y < -t, so the two agree bit for bit, also
    # where y +- t overflows, at a negative t (g - 6 tail_sd < 0) and on NaN
    rng = np.random.default_rng(3)
    for t in (0.0, 5e-324, 0.37, 1.9, 1e308, -0.4):
        edges = [e for x in (t, -t) for e in (math.nextafter(x, -math.inf), x,
                                              math.nextafter(x, math.inf))]
        y = np.concatenate([rng.normal(0.0, 2.0, 10**4), edges,
                            [0.0, -0.0, 1e308, -1e308, math.inf, -math.inf, math.nan]])
        np.testing.assert_array_equal(arbitrage_event(y, t, 0.0, strict=True),
                                      np.abs(y) > t)


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


@pytest.mark.parametrize("H", [0.75, 0.9])
def test_finite_level_exact_matches_census_on_edge_offsets(H):
    # an offset on a word's edge, o = -fl(y_k + g) or -fl(y_k - g): the
    # estimate and the census must apply the same float test to that word
    from fracbin import market

    p = HurstParams(H)
    cfg = McConfig(samples=10, seed=1)
    for n in range(3, 13):
        t = coefficient_table(p, n)
        y = market.level_sign_values(t.j)
        for k in range(0, len(y), max(len(y) // 4, 1)):
            for o in (-(y[k] + t.g), -(y[k] - t.g)):
                o = float(o)
                est = finite_level_proportion(p, n, o, t, cfg)
                alive = np.packbits(np.ones(len(y), dtype=bool), bitorder="little")
                count, _ = market._census_level(t.j, t.g, o, market._level_tolerance(t, o), alive)
                assert est.exact
                assert est.p_hat * 2 ** (n - 1) == count, (n, k, o)


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


def test_level_functions_refuse_a_table_of_other_params(p09):
    # a table built for other (H, sigma) must not answer for these params
    t = coefficient_table(p09, 12)
    cfg = McConfig(samples=10, truncation_k=11)
    for other in (HurstParams(0.6), HurstParams(0.9, sigma=2.0)):
        with pytest.raises(ValueError, match="does not match"):
            finite_level_proportion(other, 12, 0.0, t, cfg)
        with pytest.raises(ValueError, match="does not match"):
            split_variances(other, 12, t)
    assert finite_level_proportion(p09, 12, 0.0, t, cfg).exact


def _abs_above(g):
    return lambda y: np.abs(y) > g


def test_sign_sum_route_rule(p08):
    # a finite law is enumerated up to _EXACT_LEVEL_MAX weights; a truncated
    # limit law is sampled whatever its K
    cfg = McConfig(samples=2000, seed=4, truncation_k=20)
    event = [_abs_above(p08.g_H)]
    (at_max,) = asym.SignSum(asym.limit_weights(p08, 20)).estimates(event, cfg)
    assert at_max.exact and at_max.generator == "exact-enumeration"
    assert at_max.samples == 2**20 and at_max.stderr == 0.0
    (past_max,) = asym.SignSum(asym.limit_weights(p08, 21)).estimates(event, cfg)
    assert not past_max.exact and past_max.generator != "exact-enumeration"
    assert past_max.samples == 2000 and past_max.tail_sd == 0.0
    law = asym.SignSum.limit(p08, cfg)
    assert len(law.head) == 20 and law.tail_sd > 0.0
    (limit,) = law.estimates(event, cfg)
    assert not limit.exact and limit.samples == 2000 and limit.tail_sd == law.tail_sd


def test_sign_sum_sampled_ci_contains_enumerated_level(p08, monkeypatch):
    t = coefficient_table(p08, 15)
    event = [lambda y: np.abs(y) >= t.g]
    (exact,) = asym.SignSum(t.j).estimates(event, McConfig(samples=10))
    monkeypatch.setattr(asym, "_EXACT_LEVEL_MAX", 13)
    (sampled,) = asym.SignSum(t.j).estimates(event, McConfig(samples=20_000, seed=8))
    assert exact.exact and not sampled.exact
    assert sampled.ci_low <= exact.p_hat <= sampled.ci_high


@pytest.mark.parametrize("K", [12, 40])
def test_sign_sum_events_share_words(p08, K):
    # counting events together gives each the estimate it gets alone
    law = asym.SignSum(asym.limit_weights(p08, K))
    cfg = McConfig(samples=9000, seed=6)
    events = [_abs_above(0.5 * p08.g_H), _abs_above(p08.g_H), lambda y: y > 0.0]
    together = law.estimates(events, cfg)
    alone = [law.estimates([e], cfg)[0] for e in events]
    assert [repr(e) for e in together] == [repr(e) for e in alone]
    assert len({e.p_hat for e in together}) == 3


def test_sign_sum_sampler_cap(monkeypatch):
    def refuse(w):
        raise AssertionError("a lookup table was built")

    cfg = McConfig(samples=8, seed=2)
    with monkeypatch.context() as m:
        m.setattr(asym, "_block_tables", refuse)
        with pytest.raises(TruncationError, match="sampler cap"):
            asym.SignSum(np.ones(asym._SAMPLER_K_CAP + 1), 0.0).estimates([_abs_above(1.0)], cfg)
    (est,) = asym.SignSum(np.ones(asym._SAMPLER_K_CAP), 0.0).estimates([_abs_above(1.0)], cfg)
    assert est.samples == 8 and not est.exact


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


def _fresh_cf(params, v, tol):
    """characteristic_function with rho and its tails computed afresh for
    every v and every step of the K search, as before the per-K memo."""
    if v == 0.0:
        return 1.0
    u = 2.0 * params.g_H * abs(v)
    h = params.h
    K = 64
    while not (u * hurst.rho(h, K) <= 0.3
               and (17.0 / 2520.0) * u**8 * hurst.rho_pow_tail(h, K, 8) <= tol):
        K *= 2
    c = np.cos(u * hurst.rho(h, np.arange(1, K + 1)))
    sign = -1.0 if int(np.count_nonzero(c < 0.0)) % 2 else 1.0
    mag = np.abs(c)
    if np.any(mag == 0.0):
        return 0.0
    log_tail = -(u**2 / 2.0 * hurst.rho_pow_tail(h, K, 2)
                 + u**4 / 12.0 * hurst.rho_pow_tail(h, K, 4)
                 + u**6 / 45.0 * hurst.rho_pow_tail(h, K, 6))
    return sign * math.exp(float(np.sum(np.log(mag))) + log_tail)


@pytest.mark.parametrize("H", [0.6, 0.75, 0.85])
def test_memoised_cf_matches_fresh_calls(H):
    # one call over a charfn grid and a decay-fit window, visited out of
    # order so later v reuse search steps and heads of earlier ones
    p = HurstParams(H)
    vs = np.concatenate([np.linspace(-4.0, 4.0, 9), np.geomspace(40.0, 400.0, 6) / p.g_H])
    vs = vs[np.random.default_rng(3).permutation(len(vs))].tolist()
    for tol in (1e-8, 1e-11):
        got = characteristic_function(p, np.array(vs), tol)
        want = np.array([_fresh_cf(p, v, tol) for v in vs])
        assert got.tobytes() == want.tobytes()
        assert [characteristic_function(p, v, tol) for v in vs] == got.tolist()


def test_cf_bracket_screen_only_skips_work(monkeypatch):
    # with a bracket that decides nothing every S8 test falls back to the
    # exact tail; F is the same to the bit, and the screened call never
    # evaluates S8 on this grid
    p = HurstParams(0.77)
    vs = np.concatenate([np.linspace(0.0, 4.0, 21), np.geomspace(40.0, 400.0, 60) / p.g_H])
    powers = []
    exact = hurst.rho_pow_tail

    def counting(h, K, power=2):
        powers.append(power)
        return exact(h, K, power)

    monkeypatch.setattr(asym, "rho_pow_tail", counting)
    screened = characteristic_function(p, vs)
    assert 8 not in powers
    monkeypatch.setattr(asym, "rho_pow_tail_bracket", lambda h, K, power: (0.0, math.inf))
    assert characteristic_function(p, vs).tobytes() == screened.tobytes()
    assert 8 in powers


def test_cf_grid_raises_at_first_infeasible_v():
    # v = 600 and 700 both miss tol at H = 0.95; the error names the first
    p = HurstParams(0.95)
    assert isinstance(characteristic_function(p, 1.0), float)
    assert characteristic_function(p, np.array([])).shape == (0,)
    with pytest.raises(TruncationError, match="at v=600$"):
        characteristic_function(p, np.array([1.0, 600.0, 700.0]))


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
