"""Monte Carlo and analytic diagnostics for the limit objects.

The limit variable is Y = 2 g_H sum_k rho_h(k) xi_k with fair +-1 signs; the
large-depth proportion of arbitrage points equals P(|Y| > g_H).  The series
converges only in L^2 (variance tail ~ K^{1-2beta}), so samplers draw the
hard-truncated head Y^(K) and every estimate reports the exactly computed
discarded-tail standard deviation and the induced bias window.

Sampling is deterministic and single-threaded: samples are produced in
fixed chunks, chunk c drawing its bytes from Philox keyed (seed, c): the
generator's 64-bit outputs read little-endian, the same bytes as numpy's
Generator.bytes.  Each sample consumes ceil(K/8) bytes, bit j of byte b
(little-endian) being the sign of weight 8b+j+1.  The canonical float value
of a sample is the sum of its per-byte partial sums in byte order, each
byte's sum accumulated left-to-right from 0.0 (realised with 256-entry
lookup tables; padding weights are zero).  Equality in law of the
reversed-coefficient walk with the split tail walk is realised by feeding
the sampler reversed weights; no separate variable is kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.special import ndtri

from .coefficients import DEFAULT_QUAD, CoefficientTable, QuadratureConfig
from .errors import TruncationError
from .hurst import HurstParams, rho, rho_pow_tail, rho_sq_sum, rho_sq_total
from .market import _finite_tolerance, arbitrage_event, level_sign_values

__all__ = [
    "DEFAULT_TRUNCATION_K",
    "McConfig",
    "McEstimate",
    "resolve_truncation",
    "limit_weights",
    "sample_limit_variable",
    "limit_proportion",
    "finite_level_proportion",
    "split_variances",
    "characteristic_function",
    "empirical_cf",
    "fit_cf_decay",
    "exceedance_frequency",
    "regime_constants",
]

# series truncation index of the samplers when no tail-sd target is given
DEFAULT_TRUNCATION_K = 8192
_GENERATOR_ID = "philox4x64:key=[seed,chunk];bytes-le;8bit-blocks"
_SAMPLER_K_CAP = 1 << 16
# samples per chunk; chunk c of a stream holds samples c*_CHUNK onwards
_CHUNK = 4096
# longest sign word a level estimate enumerates instead of sampling
_EXACT_LEVEL_MAX = 20


@dataclass(frozen=True)
class McConfig:
    """Sampling configuration; (seed, samples, truncation) fixes the stream.

    Exactly one of truncation_k / tail_sd_tol must be set, and K never
    exceeds _SAMPLER_K_CAP.  tail_sd_tol mode picks the smallest K whose
    exactly-evaluated tail standard deviation 2 g_H sqrt(sum_{k>K} rho^2)
    meets the target, and raises TruncationError when no K within the cap
    does (for H not far above 1/2 even modest targets are genuinely
    unreachable; see README).
    """

    samples: int = 100_000
    seed: int = 0
    truncation_k: Optional[int] = DEFAULT_TRUNCATION_K
    tail_sd_tol: Optional[float] = None
    confidence: float = 0.99

    def __post_init__(self) -> None:
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")
        if (self.truncation_k is None) == (self.tail_sd_tol is None):
            raise ValueError("set exactly one of truncation_k / tail_sd_tol")
        if self.truncation_k is not None and not 1 <= self.truncation_k <= _SAMPLER_K_CAP:
            raise ValueError(f"truncation_k must lie in [1, {_SAMPLER_K_CAP}]")
        if self.tail_sd_tol is not None and not self.tail_sd_tol > 0:
            raise ValueError("tail_sd_tol must be positive")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must lie in (0, 1)")


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo probability estimate with full reproducibility metadata."""

    p_hat: float
    stderr: float
    ci_low: float
    ci_high: float
    samples: int
    K: int
    seed: int
    generator: str
    confidence: float
    tail_sd: float
    bias_window: tuple[float, float]
    exact: bool = False

    def to_dict(self) -> dict:
        return {
            "p_hat": self.p_hat,
            "stderr": self.stderr,
            "ci": [self.ci_low, self.ci_high],
            "samples": self.samples,
            "K": self.K,
            "seed": self.seed,
            "generator": self.generator,
            "confidence": self.confidence,
            "tail_sd": self.tail_sd,
            "bias_window": list(self.bias_window),
            "exact": self.exact,
        }


def resolve_truncation(params: HurstParams, cfg: McConfig) -> tuple[int, float]:
    """(K, achieved tail sd) for the configured truncation policy."""
    h = params.h
    if cfg.truncation_k is not None:
        K = cfg.truncation_k
    else:
        target_sq = (cfg.tail_sd_tol / (2.0 * params.g_H)) ** 2
        K = rho_sq_sum(h, target_sq, k_cap=_SAMPLER_K_CAP).K
    tail_sd = 2.0 * params.g_H * math.sqrt(rho_pow_tail(h, K, 2))
    return K, tail_sd


def limit_weights(params: HurstParams, K: int) -> np.ndarray:
    """The truncated-series weights w_k = 2 g_H rho_h(k), k = 1..K."""
    return 2.0 * params.g_H * rho(params.h, np.arange(1, K + 1))


def _block_tables(w: np.ndarray) -> np.ndarray:
    """Per-byte lookup tables T[b, idx] = sum_j (+-w_{8b+j}) over idx bits."""
    if len(w) > (1 << 20):
        raise TruncationError(f"sampling with K={len(w)} weights exceeds the 2^20 sampler cap")
    nblocks = (len(w) + 7) // 8
    padded = np.zeros(8 * nblocks)
    padded[: len(w)] = w
    t = np.zeros((nblocks, 1))
    for j in range(8):
        col = padded[j::8][:, None]
        t = np.concatenate([t - col, t + col], axis=1)
    return t


def _chunk_values(tables: np.ndarray, seed: int, chunk_index: int, n: int) -> np.ndarray:
    """Values of one chunk: n samples, each eating nblocks bytes of Philox.

    The stream is Philox's 64-bit outputs read little-endian, the same bytes
    Generator.bytes emits, and it is prefix-stable: the first n*nblocks bytes
    do not depend on how many are drawn, so a sample's value does not depend
    on n.  Rows are zero-padded to whole words (pad bytes are never read) and
    the (n, words) matrix is transposed in column blocks, so block b is byte
    b % 8 of the contiguous word row b // 8.  Per-block partial sums are
    added in byte order.
    """
    nblocks = tables.shape[0]
    nwords = (nblocks + 7) // 8
    key = np.array([seed, chunk_index], dtype=np.uint64)
    stream = np.random.Philox(key=key).random_raw((n * nblocks + 7) // 8)
    stream = stream.astype("<u8", copy=False)
    if nblocks % 8 == 0:
        rows = stream.reshape(n, nwords)
    else:
        rows = np.zeros((n, nwords), dtype="<u8")
        rows.view(np.uint8)[:, :nblocks] = stream.view(np.uint8)[: n * nblocks].reshape(n, nblocks)
    del stream
    # a 256-sample block of rows stays in cache while it is written out as columns
    words = np.empty((nwords, n), dtype="<u8")
    for s in range(0, n, 256):
        words[:, s:s + 256] = rows[s:s + 256].T
    del rows
    wbytes = words.view(np.uint8)
    part = np.empty(n)
    y = np.empty(n)
    # "wrap" lets take write into out; it never wraps, since uint8 indices lie
    # in [0, 255] and every table row holds 256 entries
    np.take(tables[0], wbytes[0, 0::8], out=y, mode="wrap")
    for b in range(1, nblocks):
        np.take(tables[b], wbytes[b // 8, b % 8::8], out=part, mode="wrap")
        y += part
    return y


def _map_chunks(tables: np.ndarray, cfg: McConfig,
                per_chunk: Callable[[np.ndarray], object]) -> list:
    """per_chunk(values) of every chunk's kept samples, in chunk order.

    Chunk c holds samples c*_CHUNK onwards; the last chunk draws only its
    kept prefix, which the prefix-stable stream makes equal to the head of a
    full chunk, so a sample's value never depends on cfg.samples.
    """
    nchunks = (cfg.samples + _CHUNK - 1) // _CHUNK
    out = []
    for c in range(nchunks):
        n = min(_CHUNK, cfg.samples - c * _CHUNK)
        out.append(per_chunk(_chunk_values(tables, cfg.seed, c, n)))
    return out


def _sample_with_weights(w: np.ndarray, cfg: McConfig) -> np.ndarray:
    return np.concatenate(_map_chunks(_block_tables(w), cfg, lambda y: y))


def sample_limit_variable(params: HurstParams, cfg: McConfig) -> np.ndarray:
    """i.i.d. samples of the truncated limit variable Y^(K)."""
    K, _ = resolve_truncation(params, cfg)
    return _sample_with_weights(limit_weights(params, K), cfg)


def _z_value(confidence: float) -> float:
    return float(ndtri(0.5 * (1.0 + confidence)))


def _interval(count: int, n: int, confidence: float) -> tuple[float, float, float]:
    """(stderr, ci_low, ci_high); Wilson when the success count is small."""
    p = count / n
    stderr = math.sqrt(p * (1.0 - p) / n)
    z = _z_value(confidence)
    if min(count, n - count) < 30:
        denom = 1.0 + z * z / n
        center = (p + z * z / (2 * n)) / denom
        half = z * math.sqrt(p * (1.0 - p) / n + z * z / (4 * n * n)) / denom
        lo, hi = center - half, center + half
    else:
        lo, hi = p - z * stderr, p + z * stderr
    return stderr, max(lo, 0.0), min(hi, 1.0)


def _estimate(hits: int, cfg: McConfig, K: int, tail_sd: float = 0.0,
              bias_window: Optional[tuple[float, float]] = None) -> McEstimate:
    """The sampled estimate hits / cfg.samples; bias_window defaults to the point."""
    p = hits / cfg.samples
    stderr, lo, hi = _interval(hits, cfg.samples, cfg.confidence)
    return McEstimate(
        p_hat=p, stderr=stderr, ci_low=lo, ci_high=hi, samples=cfg.samples, K=K,
        seed=cfg.seed, generator=_GENERATOR_ID, confidence=cfg.confidence,
        tail_sd=tail_sd, bias_window=(p, p) if bias_window is None else bias_window,
    )


def limit_proportion(params: HurstParams, cfg: McConfig, threads: int = 1) -> McEstimate:
    """Estimate of P(|Y| > g_H) from the truncated sampler.

    The limit event is strict (the limit law is atomless); the reported bias
    window brackets the untruncated probability as
    [P(|Y^(K)| > g_H + d), P(|Y^(K)| > g_H - d)] with d = 6 * tail_sd.
    threads is accepted for compatibility and ignored: sampling always runs
    on the calling thread.
    """
    K, tail_sd = resolve_truncation(params, cfg)
    tables = _block_tables(limit_weights(params, K))
    g = params.g_H
    delta = 6.0 * tail_sd

    def counts(y: np.ndarray) -> tuple[int, int, int]:
        y = np.abs(y)
        return (
            int(np.count_nonzero(y > g)),
            int(np.count_nonzero(y > g + delta)),
            int(np.count_nonzero(y > g - delta)),
        )

    hit, hit_lo, hit_hi = map(sum, zip(*_map_chunks(tables, cfg, counts)))
    return _estimate(hit, cfg, K, tail_sd, (hit_lo / cfg.samples, hit_hi / cfg.samples))


def _level_estimate(table: CoefficientTable, offset: float,
                    cfg: McConfig) -> tuple[McEstimate, McEstimate]:
    """(P(u <= -a or d >= -a), P(u < -a or d > -a)) at level n from one pass.

    Both are the census's arbitrage_event, counted on the same words: every
    sign word when the word length n-1 is at most _EXACT_LEVEL_MAX, else
    cfg's sample stream.  A level whose sums can overflow raises ValueError,
    as in the census.
    """
    _finite_tolerance(table, offset)
    K = table.n - 1

    def counts(y: np.ndarray) -> tuple[int, int]:
        return tuple(int(np.count_nonzero(arbitrage_event(y, table.g, offset, strict)))
                     for strict in (False, True))

    if K > _EXACT_LEVEL_MAX:
        hits = map(sum, zip(*_map_chunks(_block_tables(table.j), cfg, counts)))
        return tuple(_estimate(h, cfg, K) for h in hits)
    total = 1 << K
    probs = [h / total for h in counts(level_sign_values(table.j))]
    return tuple(McEstimate(
        p_hat=p, stderr=0.0, ci_low=p, ci_high=p, samples=total, K=K, seed=cfg.seed,
        generator="exact-enumeration", confidence=cfg.confidence, tail_sd=0.0,
        bias_window=(p, p), exact=True,
    ) for p in probs)


def finite_level_proportion(params: HurstParams, n: int, drift_offset: float,
                            table: CoefficientTable, cfg: McConfig) -> McEstimate:
    """P(u <= -a or d >= -a), exact for word length n-1 <= _EXACT_LEVEL_MAX.

    The finite-level set uses the non-strict inequality (the arbitrage-set
    convention), unlike the strict limit event.  Deeper levels are sampled.
    """
    if table.n != n:
        raise ValueError(f"table level {table.n} does not match n={n}")
    if not math.isfinite(drift_offset):
        raise ValueError(f"drift_offset must be finite, got {drift_offset}")
    return _level_estimate(table, drift_offset, cfg)[0]


def exceedance_frequency(params: HurstParams, n_list: Sequence[int], cfg: McConfig,
                         quad: QuadratureConfig = DEFAULT_QUAD) -> list[tuple[int, McEstimate]]:
    """P(|Y_n| > g_n) across levels (strict, zero offset) as a regime diagnostic."""
    from .coefficients import coefficient_table

    return [(n, _level_estimate(coefficient_table(params, n, quad), 0.0, cfg)[1])
            for n in n_list]


def split_variances(params: HurstParams, n: int, table: CoefficientTable) -> tuple[float, float]:
    """(var of the head walk i < i_n, var of the tail walk i >= i_n)."""
    if table.n != n:
        raise ValueError(f"table level {table.n} does not match n={n}")
    cut = table.split_index - 1
    return float(np.sum(table.j[:cut] ** 2)), float(np.sum(table.j[cut:] ** 2))


def characteristic_function(params: HurstParams, v: float, tol: float = 1e-8) -> float:
    """F(v) = prod_k cos(2 v g_H rho_h(k)), with a certified log-domain tail.

    The product is truncated once its arguments drop below 0.3; the dropped
    factors contribute -(u^2/2 S2 + u^4/12 S4 + u^6/45 S6) to log F with
    S_p the exact rho-power tails, and the first neglected term
    (17/2520) u^8 S8 must be <= tol (else TruncationError).
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    if not math.isfinite(v):
        raise ValueError(f"v must be finite, got {v}")
    if v == 0.0:
        return 1.0
    u = 2.0 * params.g_H * abs(v)
    h = params.h
    K = 64
    while True:
        if u * rho(h, K) <= 0.3 and (17.0 / 2520.0) * u**8 * rho_pow_tail(h, K, 8) <= tol:
            break
        if K >= (1 << 22):
            raise TruncationError(f"characteristic_function: tol {tol:g} infeasible at v={v:g}")
        K *= 2
    x = u * rho(h, np.arange(1, K + 1))
    c = np.cos(x)
    sign = -1.0 if int(np.count_nonzero(c < 0.0)) % 2 else 1.0
    mag = np.abs(c)
    if np.any(mag == 0.0):
        return 0.0
    log_head = float(np.sum(np.log(mag)))
    log_tail = -(
        u**2 / 2.0 * rho_pow_tail(h, K, 2)
        + u**4 / 12.0 * rho_pow_tail(h, K, 4)
        + u**6 / 45.0 * rho_pow_tail(h, K, 6)
    )
    return sign * math.exp(log_head + log_tail)


def empirical_cf(samples: np.ndarray, v_values: np.ndarray) -> np.ndarray:
    """Empirical characteristic function mean(cos(v * Y)) at each v."""
    v_values = np.asarray(v_values, dtype=float)
    return np.array([float(np.mean(np.cos(v * samples))) for v in v_values])


def fit_cf_decay(params: HurstParams, v_lo: Optional[float] = None,
                 v_hi: Optional[float] = None, points: int = 60) -> tuple[float, float, int]:
    """(theta, exponent, points used) fitting log|F| <= -theta u^{1/beta}.

    Regression of log(-log|F(v)|) on log u over a log-spaced v grid.  The fit
    needs the deep regime where many cosine factors oscillate (u = 2 g_H v
    of order 10^2); there the per-point phase noise is a few percent and
    averages out, and only points where a factor lands essentially on a zero
    (|cos| < 1e-6 in the head) or |F| underflows are excluded.  The window
    defaults to v in [40, 400] / g_H; F is at characteristic_function's tol.
    theta is a numerical fit, not a theoretically pinned constant.
    """
    v_lo = 40.0 / params.g_H if v_lo is None else v_lo
    v_hi = 400.0 / params.g_H if v_hi is None else v_hi
    if not (0 < v_lo < v_hi):
        raise ValueError("need 0 < v_lo < v_hi")
    vs = np.geomspace(v_lo, v_hi, points)
    k_head = np.arange(1, 513)
    rho_head = rho(params.h, k_head)
    us, lls = [], []
    for v in vs:
        u = 2.0 * params.g_H * v
        if float(np.min(np.abs(np.cos(u * rho_head)))) < 1e-6:
            continue
        f = characteristic_function(params, float(v))
        if not 1e-250 < abs(f) < 0.9:
            continue
        us.append(math.log(u))
        lls.append(math.log(-math.log(abs(f))))
    if len(us) < 8:
        raise ValueError("too few usable points for the decay fit")
    slope, intercept = np.polyfit(np.asarray(us), np.asarray(lls), 1)
    return math.exp(intercept), float(slope), len(us)


def regime_constants(params: HurstParams) -> dict:
    """The series sum and the midpoint slack constants of the two regimes.

    For S = sum rho^2 > 1/4 the diagnostic floor uses delta with
    (1+delta)^2/4 < S (midpoint of the admissible range); for S < 1/4 the
    ceiling uses eps with (1-eps)^2/4 > S.
    """
    s = rho_sq_total(params.h)
    out = {"rho_sq_sum": s}
    if s > 0.25:
        out["delta"] = math.sqrt(s) - 0.5
        out["floor"] = (1.0 - (1.0 + out["delta"]) ** 2 / (4.0 * s)) ** 2 / 3.0
    elif s < 0.25:
        out["eps"] = 0.5 - math.sqrt(s)
        out["ceiling"] = 4.0 * s / (1.0 - out["eps"]) ** 2
    return out
