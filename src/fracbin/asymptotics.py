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
lookup tables, built by in-place doubling; padding weights are zero).  A
sampling run builds its word buffer and per-block byte views once and every
chunk gathers through them.  Philox is counter-based, so a chunk draws its
stream in pieces of at most _PIECE_WORDS words (256 KiB), each transposed
straight into the word buffer, and never holds the whole chunk's stream;
the bytes are those of one draw.  Equality in law of the reversed-coefficient
walk with the split tail walk is realised by feeding the sampler reversed
weights; no separate variable is kept.

Both proportions are probabilities of one law, the Rademacher sum
Y = sum_k w_k xi_k of a SignSum: the level-n share of arbitrage points
counts arbitrage_event on the level weights j_n, the limit counts the same
rule, strict and at zero offset (|Y^(K)| > g_H), on the K-truncated limit
weights.  SignSum.estimates counts every event on the same words, all 2^m
of them for a finite law of at most _EXACT_LEVEL_MAX weights and cfg's
sample stream otherwise; a truncated limit law is always sampled.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .coefficients import DEFAULT_QUAD, CoefficientTable, QuadratureConfig
from .errors import TruncationError
from .hurst import HurstParams, rho, rho_pow_tail, rho_pow_tail_bracket, rho_sq_total
from .market import _sign_sums, arbitrage_event, level_sign_values
from .special import ndtri

__all__ = [
    "DEFAULT_TRUNCATION_K",
    "McConfig",
    "McEstimate",
    "SignSum",
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

# series truncation index K of the limit law's samplers
DEFAULT_TRUNCATION_K = 8192
_GENERATOR_ID = "philox4x64:key=[seed,chunk];bytes-le;8bit-blocks"
_SAMPLER_K_CAP = 1 << 16
# samples per chunk; chunk c of a stream holds samples c*_CHUNK onwards
_CHUNK = 4096
# most 64-bit Philox words (256 KiB) one draw of a chunk's stream takes
_PIECE_WORDS = 1 << 15
# longest sign word a level estimate enumerates instead of sampling
_EXACT_LEVEL_MAX = 20


@dataclass(frozen=True)
class McConfig:
    """Sampling configuration; (seed, samples, truncation_k) fixes the stream.

    truncation_k is the K of the limit law, 1 <= K <= _SAMPLER_K_CAP; the
    exactly-evaluated tail sd 2 g_H sqrt(sum_{k>K} rho^2) it leaves is
    reported with every limit estimate.
    """

    samples: int = 100_000
    seed: int = 0
    truncation_k: int = DEFAULT_TRUNCATION_K
    confidence: float = 0.99

    def __post_init__(self) -> None:
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")
        if self.truncation_k is None or not 1 <= self.truncation_k <= _SAMPLER_K_CAP:
            raise ValueError(f"truncation_k must lie in [1, {_SAMPLER_K_CAP}]")
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


def _tail_sd(params: HurstParams, K: int) -> float:
    """2 g_H sqrt(sum_{k>K} rho_h(k)^2), the sd of the tail a K-truncation drops."""
    return 2.0 * params.g_H * math.sqrt(rho_pow_tail(params.h, K, 2))


def limit_weights(params: HurstParams, K: int) -> np.ndarray:
    """The truncated-series weights w_k = 2 g_H rho_h(k), k = 1..K."""
    return 2.0 * params.g_H * rho(params.h, np.arange(1, K + 1))


def _block_tables(w: np.ndarray) -> np.ndarray:
    """Per-byte lookup tables T[b, idx] = sum_j (+-w_{8b+j}) over idx bits."""
    nblocks = (len(w) + 7) // 8
    padded = np.zeros(8 * nblocks)
    padded[: len(w)] = w
    return _sign_sums(padded.reshape(nblocks, 8))


def _chunk_views(tables: np.ndarray, n: int) -> tuple[np.ndarray, list]:
    """(words, blocks) for chunks of up to n samples.

    words is a (ceil(nblocks/8), n) buffer of little-endian words, one row
    per 8 blocks; blocks[b] is (tables[b], byte b % 8 of word row b // 8).
    """
    nblocks = tables.shape[0]
    words = np.empty(((nblocks + 7) // 8, n), dtype="<u8")
    wbytes = words.view(np.uint8)
    return words, [(tables[b], wbytes[b // 8, b % 8::8]) for b in range(nblocks)]


def _chunk_values(tables: np.ndarray, seed: int, chunk_index: int, n: int,
                  views: Optional[tuple[np.ndarray, list]] = None) -> np.ndarray:
    """Values of one chunk: n samples, each eating nblocks bytes of Philox.

    The stream is Philox's 64-bit outputs read little-endian, the same bytes
    Generator.bytes emits, and it is prefix-stable: the first n*nblocks bytes
    do not depend on how many are drawn, so a sample's value does not depend
    on n.  Philox is counter-based, so the chunk's one generator is drawn in
    sequential pieces of at most _PIECE_WORDS words, each a whole multiple of
    8 samples and so of whole words; the last piece draws only the kept
    samples' bytes.  Each piece's (samples, words) matrix is transposed
    straight into the word buffer of views, _chunk_views(tables, n') for some
    n' >= n, so no chunk-sized stream array is held; rows not a whole number
    of words are first zero-padded in a piece-sized buffer (pad bytes are
    never read).  A sampling run builds views once and passes them to every
    chunk, a short chunk using the prefix of each byte column.  Per-block
    partial sums are added in byte order.
    """
    nblocks = tables.shape[0]
    words, blocks = _chunk_views(tables, n) if views is None else views
    nwords = words.shape[0]
    bitgen = np.random.Philox(key=np.array([seed, chunk_index], dtype=np.uint64))
    step = 8 * max(1, _PIECE_WORDS // nblocks)
    padded = None if nblocks % 8 == 0 else np.zeros((min(step, n), nwords), dtype="<u8")
    for s in range(0, n, step):
        m = min(step, n - s)
        piece = bitgen.random_raw((m * nblocks + 7) // 8).astype("<u8", copy=False)
        if padded is None:
            rows = piece.reshape(m, nwords)
        else:
            rows = padded[:m]
            rows.view(np.uint8)[:, :nblocks] = piece.view(np.uint8)[:m * nblocks].reshape(m, -1)
        words[:, s:s + m] = rows.T
    if n < words.shape[1]:
        blocks = [(table, col[:n]) for table, col in blocks]
    part = np.empty(n)
    y = np.empty(n)
    # "wrap" lets take write into out; it never wraps, since uint8 indices lie
    # in [0, 255] and every table row holds 256 entries
    table, col = blocks[0]
    table.take(col, out=y, mode="wrap")
    for table, col in blocks[1:]:
        table.take(col, out=part, mode="wrap")
        np.add(y, part, out=y)
    return y


def _fold_chunks(tables: np.ndarray, cfg: McConfig,
                 step: Callable[[object, np.ndarray], object], total: object) -> object:
    """total = step(total, values) over every chunk's kept samples, in chunk order.

    Chunk c holds samples c*_CHUNK onwards; the last chunk draws only its
    kept prefix, which the prefix-stable stream makes equal to the head of a
    full chunk, so a sample's value never depends on cfg.samples.  The word
    buffer and block views are built once and shared by every chunk, and no
    chunk's values outlive its step, so memory does not grow with the
    sample count.
    """
    views = _chunk_views(tables, min(_CHUNK, cfg.samples))
    for c, first in enumerate(range(0, cfg.samples, _CHUNK)):
        n = min(_CHUNK, cfg.samples - first)
        total = step(total, _chunk_values(tables, cfg.seed, c, n, views))
    return total


def _sample_with_weights(w: np.ndarray, cfg: McConfig) -> np.ndarray:
    out = np.empty(cfg.samples)

    def put(filled: int, y: np.ndarray) -> int:
        out[filled:filled + len(y)] = y
        return filled + len(y)

    _fold_chunks(_block_tables(w), cfg, put, 0)
    return out


def sample_limit_variable(params: HurstParams, cfg: McConfig) -> np.ndarray:
    """i.i.d. samples of the truncated limit variable Y^(K)."""
    return _sample_with_weights(SignSum.limit(params, cfg).head, cfg)


def _z_value(confidence: float) -> float:
    return ndtri(0.5 * (1.0 + confidence))


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


@dataclass(frozen=True, eq=False)
class SignSum:
    """The law of the Rademacher sum Y = sum_k head[k-1] xi_k.

    tail_sd is None for a finite level's law; for the K-truncated limit law
    it is the standard deviation of the discarded tail sum_{k>K} w_k xi_k.
    """

    head: np.ndarray
    tail_sd: Optional[float] = None

    @classmethod
    def limit(cls, params: HurstParams, cfg: McConfig) -> "SignSum":
        """The limit law truncated at K = cfg.truncation_k, with its exact tail sd."""
        K = cfg.truncation_k
        return cls(limit_weights(params, K), _tail_sd(params, K))

    def estimates(self, events: Sequence[Callable[[np.ndarray], np.ndarray]],
                  cfg: McConfig) -> list[McEstimate]:
        """P(event(Y)) for each event, which maps values of Y to a boolean mask.

        All events are counted on the same words: every one of the 2^K sign
        words for a finite law of K <= _EXACT_LEVEL_MAX weights, else cfg's
        sample stream, which refuses more than _SAMPLER_K_CAP weights.
        """
        K = len(self.head)

        def counts(y: np.ndarray) -> list[int]:
            return [int(np.count_nonzero(event(y))) for event in events]

        exact = self.tail_sd is None and K <= _EXACT_LEVEL_MAX
        if exact:
            total, hits = 1 << K, counts(level_sign_values(self.head))
        elif K > _SAMPLER_K_CAP:
            raise TruncationError(f"sampling {K} weights exceeds the sampler cap {_SAMPLER_K_CAP}")
        else:
            total = cfg.samples
            hits = _fold_chunks(_block_tables(self.head), cfg,
                                lambda hits, y: [h + c for h, c in zip(hits, counts(y))],
                                [0] * len(events))
        out = []
        for hit in hits:
            p = hit / total
            stderr, lo, hi = (0.0, p, p) if exact else _interval(hit, total, cfg.confidence)
            out.append(McEstimate(
                p_hat=p, stderr=stderr, ci_low=lo, ci_high=hi, samples=total, K=K,
                seed=cfg.seed, generator="exact-enumeration" if exact else _GENERATOR_ID,
                confidence=cfg.confidence, tail_sd=self.tail_sd or 0.0, bias_window=(p, p),
                exact=exact,
            ))
        return out


def limit_proportion(params: HurstParams, cfg: McConfig, threads: int = 1,
                     law: Optional[SignSum] = None) -> McEstimate:
    """Estimate of P(|Y^(K)| > g_H) from the truncated sampler.

    The limit event is arbitrage_event at zero offset, strict as the limit
    law is atomless; fl(y + t) < 0 iff y < -t, so it is |y| > t bit for bit
    at every threshold t, a negative one included.  The reported
    bias window is [P(|Y^(K)| > g_H + d), P(|Y^(K)| > g_H - d)] with
    d = 6 * tail_sd: the truncated law's proportion with its threshold moved
    by six discarded-tail standard deviations.  It is a sensitivity of the
    truncated answer, not a bracket of the untruncated P(|Y| > g_H)
    (ROADMAP item 1).  threads is accepted for compatibility and ignored:
    sampling always runs on the calling thread.  law, if given, is
    SignSum.limit(params, cfg) as the caller already built it.
    """
    law = SignSum.limit(params, cfg) if law is None else law
    g, d = params.g_H, 6.0 * law.tail_sd
    est, lo, hi = law.estimates([functools.partial(arbitrage_event, g=t, o=0.0, strict=True)
                                 for t in (g, g + d, g - d)], cfg)
    return replace(est, bias_window=(lo.p_hat, hi.p_hat))


def _level_estimate(table: CoefficientTable, offset: float,
                    cfg: McConfig) -> tuple[McEstimate, McEstimate]:
    """(P(u <= -a or d >= -a), P(u < -a or d > -a)) at level n from one pass.

    Both are the census's arbitrage_event on the level law SignSum(table.j).
    """
    return tuple(SignSum(table.j).estimates(
        [functools.partial(arbitrage_event, g=table.g, o=offset, strict=strict)
         for strict in (False, True)], cfg))


def _check_table(params: HurstParams, n: int, table: CoefficientTable) -> None:
    if (table.n, table.params) != (n, params):
        raise ValueError(f"table of level {table.n}, H={table.params.H}, sigma={table.params.sigma}"
                         f" does not match n={n}, H={params.H}, sigma={params.sigma}")


def finite_level_proportion(params: HurstParams, n: int, drift_offset: float,
                            table: CoefficientTable, cfg: McConfig) -> McEstimate:
    """P(u <= -a or d >= -a), exact for word length n-1 <= _EXACT_LEVEL_MAX.

    The finite-level set uses the non-strict inequality (the arbitrage-set
    convention), unlike the strict limit event.  Deeper levels are sampled.
    """
    _check_table(params, n, table)
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
    _check_table(params, n, table)
    cut = table.split_index - 1
    return float(np.sum(table.j[:cut] ** 2)), float(np.sum(table.j[cut:] ** 2))


def characteristic_function(params: HurstParams, v: float | np.ndarray,
                            tol: float = 1e-8) -> float | np.ndarray:
    """F(v) = prod_k cos(2 v g_H rho_h(k)), with a certified log-domain tail.

    The product is truncated once its arguments drop below 0.3; the dropped
    factors contribute -(u^2/2 S2 + u^4/12 S4 + u^6/45 S6) to log F with
    S_p the exact rho-power tails, and the first neglected term
    (17/2520) u^8 S8 must be <= tol (else TruncationError).

    A float v gives a float; a 1-D array of v gives F at each v in order, so
    TruncationError names the first v that cannot meet tol.  rho(h, K),
    rho(h, 1..K) and the rho-power tails at K are computed once per call.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    h = params.h
    rho_at = functools.cache(lambda K: rho(h, K))
    head = functools.cache(lambda K: rho(h, np.arange(1, K + 1)))
    tail = functools.cache(lambda K, power: rho_pow_tail(h, K, power))
    bracket8 = functools.cache(lambda K: rho_pow_tail_bracket(h, K, 8))

    def tail_term_within_tol(u: float, K: int) -> bool:
        # (17/2520) u^8 S8 <= tol.  Float products are monotone, so a bound
        # of S8 that decides the test decides it as S8 itself would; S8 is
        # only needed for the decision, and its zeta calls cost most of F.
        c = (17.0 / 2520.0) * u**8
        lo, hi = bracket8(K)
        if c * hi <= tol:
            return True
        if c * lo > tol:
            return False
        return c * tail(K, 8) <= tol

    def evaluate(v: float) -> float:
        if not math.isfinite(v):
            raise ValueError(f"v must be finite, got {v}")
        if v == 0.0:
            return 1.0
        u = 2.0 * params.g_H * abs(v)
        K = 64
        while True:
            if u * rho_at(K) <= 0.3 and tail_term_within_tol(u, K):
                break
            if K >= (1 << 22):
                raise TruncationError(f"characteristic_function: tol {tol:g} infeasible at v={v:g}")
            K *= 2
        x = u * head(K)
        c = np.cos(x)
        sign = -1.0 if int(np.count_nonzero(c < 0.0)) % 2 else 1.0
        mag = np.abs(c)
        if np.any(mag == 0.0):
            return 0.0
        log_head = float(np.sum(np.log(mag)))
        log_tail = -(
            u**2 / 2.0 * tail(K, 2)
            + u**4 / 12.0 * tail(K, 4)
            + u**6 / 45.0 * tail(K, 6)
        )
        return sign * math.exp(log_head + log_tail)

    if np.ndim(v) == 0:
        return evaluate(v)
    return np.array([evaluate(x) for x in np.asarray(v, dtype=float).tolist()], dtype=float)


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
    rho_head = rho(params.h, np.arange(1, 513))
    us, kept = [], []
    for v in np.geomspace(v_lo, v_hi, points):
        u = 2.0 * params.g_H * v
        if float(np.min(np.abs(np.cos(u * rho_head)))) < 1e-6:
            continue
        us.append(math.log(u))
        kept.append(float(v))
    fs = characteristic_function(params, np.array(kept)).tolist()
    pts = [(x, math.log(-math.log(abs(f)))) for x, f in zip(us, fs) if 1e-250 < abs(f) < 0.9]
    if len(pts) < 8:
        raise ValueError("too few usable points for the decay fit")
    slope, intercept = np.polyfit(*np.array(pts).T, 1)
    return math.exp(intercept), float(slope), len(pts)


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
