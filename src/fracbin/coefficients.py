"""Market kernel coefficients by weighted Gaussian quadrature.

The level-n market weights are double integrals with algebraic endpoint
singularities,

    j_n(i) = sigma*C_H * int_{i-1}^{i} x^{-a} W_n(x) dx,
    W_n(x) = int_0^1 (v+n-1)^a (v+n-1-x)^{a-1} dv,          a = H - 1/2,

    g_n    = sigma*C_H * int_{n-1}^{n} x^{-a} (n-x)^a
             * int_0^1 (y(n-x)+x)^a y^{a-1} dy dx,

plus the N-dependent originals (J, g unscaled) that serve as the independent
route for the N^{-H} scaling law.  Every singular factor here is algebraic,
so fixed Gauss-Legendre / Gauss-Jacobi tensor rules converge spectrally; the
(outer, inner) orders climb the ladder (16,24) -> (24,32) -> ... -> (96,128)
until two consecutive rules agree within tolerance, and that difference is the
reported error bound.  The originals climb the same ladder with a tanh-sinh
outer rule, so they share no rule with the tables.

Special cases:
  * i = n-1 (the x-integral runs into the (v+n-1-x)^{a-1} blow-up at the
    corner x -> n-1, v -> 0): rotate to s = v+delta, t = v-delta with
    delta = n-1-x; the singular factor becomes the pure Jacobi weight
    s^{a-1} and both pieces of the rotated square are analytic.
  * n = 2 (both the x^{-a} endpoint and the corner meet): the x-integral has
    the exact form B(1-a,a) * I_{1/(1+v)}(1-a, a).  Integrating by parts in
    u = 1/(1+v) and splitting B(1-a,a) at 1/2 leaves two positive terms,
        j_2(1)/(sigma*C_H) = [(2^(a+1)-1) B(1-a,a) I_{1/2}(1-a,a)
                              + int_0^{1/2} w^a q(w) dw] / (1+a),
        q(w) = ((1-w)^{-2a-1} - (1-w)^{-a}) / w,
    with q analytic on [0, 1/2], so one Gauss-Jacobi rule per rung; nothing
    cancels as H -> 1/2.
  * n = 1: g_1 reduces exactly to sigma*C_H*B(1-a,a)/(1+a).

Tables are cached per (params, n, config); construction is idempotent.
coefficient_tables builds a run of levels together: per ladder rung, the
interior columns, j_n(1), j_n(n-1) and g_n are evaluated for every pending
level at once, and each level freezes at the first rung where its own two
rules agree, so it gets the value and error a ladder of its own gives.
The interior powers (v + d)^{a-1}, d = (n-1) - fl(m + xi) at the outer nodes
of column i = m+1, are most of the cost of a table built from nothing.  With
k = n-3-m, d = fl((k+2) - delta) where delta = fl(m + xi) - m depends only
on the binade of m, so row k keeps its bits from one level to another unless
m crosses a power of two.  A coefficient_tables call keeps one power buffer
per ladder rung, shared by its blocks, whose rows are stored from the last
column back, so the rows two levels share sit at the same index and the
buffer grows at its tail.  Per rung, a block writes its new tail rows in
place, lists the rows whose m crosses a power of two in closed form, gives
the ones whose d differs by exact comparison their powers in one call, then
walks its levels in ascending order: a scatter and two gemvs each.  The
buffer also keeps x**-a, which depends on the row alone.  Every table is
byte-identical to one built from scratch, level by level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import QuadratureError
from .hurst import HurstParams, normalizing_constant
from .reports import float_reprs
from .special import _gauss_rule, betainc

__all__ = [
    "QuadratureConfig",
    "CoefficientTable",
    "kernel",
    "j_coeff",
    "g_coeff",
    "J_unscaled",
    "g_unscaled",
    "turning_point",
    "I_integrals",
    "WeightBrackets",
    "weight_brackets",
    "coefficient_table",
    "coefficient_tables",
    "clear_table_cache",
    "table_fingerprint",
    "write_tables_csv",
]

# (outer, inner) Gaussian orders tried in sequence until two consecutive
# stages agree within tolerance.
_ORDER_LADDER = ((16, 24), (24, 32), (32, 48), (48, 64), (64, 96), (96, 128))
# Half-width of _de01's t-range: a node at t = +-4 lies e^(-pi sinh 4), about
# 6e-38, from its end, so the dropped end mass of the unscaled integrands'
# u^(-a) singularity (a < 1/2) is below 1e-18 relative.  The rung difference
# cannot see that mass: 3.5 dropped 2e-13 at H = 0.95 and 3e-12 at H = 0.999.
_DE_T_MAX = 4.0
# Inner Gauss order of the unscaled routes' kernel.  Its integrands have
# their nearest singularity at a fixed distance (Bernstein ellipse rho >= 2.7,
# _inner_t), so 24 nodes are converged to 1e-20; higher orders only add the
# rules' own error: against 30-digit values, T was within 56 eps at 24 nodes
# and up to 1022 eps at 96 (H in [0.5001, 0.999], c in [1e-38, 1e6]).
_UNSCALED_INNER = 24
# Relative float error allowed for j_2(1)/(sigma*C_H) on top of its rung
# difference: at every rung of the ladder it was within 8.3 eps of 30-digit
# mpmath values over 130 H in [1/2 + 1e-12, 1 - 1e-9], with its betainc
# within 5 eps (tests/test_special.py).
_J2_ROUNDING = 16.0 * np.finfo(float).eps
# Float error allowed for an unscaled integral on top of its rung difference,
# relative to the integral of |K_hi| + |K_lo|, which J's difference cancels
# down to about a/1.4 of itself near H = 1/2.  N^H J(N, n, i) was within
# 13.1 eps of it from the table's j_n(i) (N = n <= 10, 16 H in [0.5001,
# 0.999], 64 and 96 nodes; 30-digit values at four of them confirm the
# tables to 5e-16).  The error is nearly the same at every N, as the kernel
# is evaluated at the same c = u/(t-u).
_UNSCALED_ROUNDING = 16.0 * np.finfo(float).eps


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances for every integral in this module.

    The reported error estimate of any accepted value is at most
    max(abs_tol, rel_tol * |value|); otherwise QuadratureError is raised.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-9

    def __post_init__(self) -> None:
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise ValueError("quadrature tolerances must be positive")

    def tol_for(self, value: float) -> float:
        return max(self.abs_tol, self.rel_tol * abs(value))

    def key(self) -> tuple:
        return (self.abs_tol, self.rel_tol)


DEFAULT_QUAD = QuadratureConfig()


@lru_cache(maxsize=512)
def _gl01(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [0, 1]."""
    x, w = _gauss_rule(m)
    return (x + 1.0) / 2.0, w / 2.0


@lru_cache(maxsize=512)
def _gl11(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [-1, 1]."""
    return _gauss_rule(m)


@lru_cache(maxsize=512)
def _gj01(m: int, alpha: float, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights for int_0^1 (1-x)^alpha x^beta f(x) dx = sum W f(x)."""
    t, w = _gauss_rule(m, alpha, beta)
    x = (t + 1.0) / 2.0
    return x, w * 2.0 ** (-alpha - beta - 1.0)


@lru_cache(maxsize=512)
def _de01(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Tanh-sinh rule on [0, 1]: distances to the nearer end, and weights.

    x = 1/(1+e^(-pi sinh t)) at m equispaced t in [-_DE_T_MAX, _DE_T_MAX]
    (Takahasi and Mori, 1974); the first m//2 distances are x, the rest 1-x,
    each computed without cancellation.  Algebraic endpoint singularities
    need no exponent.
    """
    t = np.linspace(-_DE_T_MAX, _DE_T_MAX, m)
    s = 0.5 * np.pi * np.sinh(t)
    w = (t[1] - t[0]) * np.pi / 4.0 * np.cosh(t) / np.cosh(s) ** 2
    return 1.0 / (1.0 + np.exp(2.0 * np.abs(s))), w


# Levels built together by coefficient_tables; bounds the batched stages'
# (levels, q, q) temporaries.
_BATCH_LEVELS = 64


def _power_rows(out: np.ndarray, d: np.ndarray, v: np.ndarray, a: float) -> None:
    """out[..., q] = (v_q + d[...])**(a-1), computed in place."""
    np.add(v, d[..., None], out=out)
    np.power(out, a - 1.0, out=out)


def _crossing_rows(prev: np.ndarray, levels: np.ndarray,
                   kept: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(t, k): the rows k < kept[t] whose m = n-3-k changes binade from prev[t] to levels[t].

    Row k of d is fl((k+2) - delta), where delta = fl(m + xi) - m depends only
    on the binade of m, so only these rows can differ between the two levels.
    Row k crosses the power P when lo-3-k < P <= hi-3-k, lo and hi the lower
    and higher level: the run k in [lo-2-P, hi-2-P).  Each run stops where the
    one for P/2 starts, so no row is listed twice; t ascends.
    """
    lo, hi = np.minimum(prev, levels), np.maximum(prev, levels)
    powers = 1 << np.arange(int(hi.max()).bit_length())
    start = np.maximum(lo[:, None] - 2 - powers, 0)
    stop = np.minimum(hi[:, None] - 2 - powers, kept[:, None])
    stop[:, 1:] = np.minimum(stop[:, 1:], start[:, :-1])
    count = np.maximum(stop - start, 0)
    runs = count.ravel()
    k = np.repeat(start.ravel() - (np.cumsum(runs) - runs), runs) + np.arange(runs.sum())
    return np.repeat(np.arange(len(levels)), count.sum(axis=1)), k


def _j_interior_rows(a: float, levels: np.ndarray, width: int, qo: int, qi: int,
                     powers: dict) -> np.ndarray:
    """One stage of j_n(2..n-2) for ascending levels n >= 4, rows zero-padded to width.

    powers[(qo, qi)] is the rung's (n, x, x_pow, d, b) at the last level n it
    built.  Row r of x and x_pow holds x = (r+1) + xi and x**-a; row k of d
    and b holds d = (n-1) - x and the powers of column i = n-2-k, so the rows
    a level shares with any other sit at the same index.  Rows that no
    earlier level holds are written once, in place, with the d and powers of
    the first level that needs them.  Of the other rows, only those from
    _crossing_rows whose d differs by exact comparison get new powers, in one
    call; each level scatters its own, then runs its two gemvs (one GEMM over
    the levels would order the sums differently).
    """
    xi, wx = _gl01(qo)
    v, wv = _gl01(qi)
    rows = levels - 3
    top = int(rows[-1])
    n_prev, x, x_pow, d, b = powers.get(
        (qo, qi), (0, *[np.empty((0, qo))] * 3, np.empty((0, qo, qi))))
    prev = np.concatenate(([n_prev], levels[:-1]))
    kept = np.minimum(np.maximum(prev - 3, 0), rows)
    have = min(max(n_prev - 3, 0), top)
    if len(b) < top:
        # up to the next power of two when rows are reused, so a call copies
        # its rows about log2(n) times; no spare room in a fresh buffer
        cap = 1 << (top - 1).bit_length() if have else top
        grown = [np.empty((cap,) + arr.shape[1:]) for arr in (x, x_pow, d, b)]
        for new, old in zip(grown, (x, x_pow, d, b)):
            new[:have] = old[:have]
        x, x_pow, d, b = grown
    if have < top:
        np.add(np.arange(have + 1.0, top + 1.0)[:, None], xi, out=x[have:top])
        np.power(x[have:top], -a, out=x_pow[have:top])
    shared = int(kept[0])
    if shared < top:
        tail = np.arange(shared, top)
        owner = levels[np.searchsorted(rows, tail, side="right")]
        np.subtract((owner - 1.0)[:, None], x[owner - 4 - tail], out=d[shared:top])
        _power_rows(b[shared:top], d[shared:top], v, a)
    t, k = _crossing_rows(prev, levels, kept)
    n_t, p_t = levels[t], prev[t]
    d_new = (n_t - 1.0)[:, None] - ((n_t - 3 - k)[:, None] + xi)
    stale = (d_new != (p_t - 1.0)[:, None] - ((p_t - 3 - k)[:, None] + xi)).any(axis=1)
    t, k, d_new = t[stale], k[stale], d_new[stale]
    fresh = np.empty((len(k), qo, qi))
    _power_rows(fresh, d_new, v, a)
    bounds = np.searchsorted(t, np.arange(len(levels) + 1)).tolist()
    smooth = (v + (levels - 1.0)[:, None]) ** a * wv
    out = np.zeros((len(levels), width))
    for pos, (lo, hi, r) in enumerate(zip(bounds, bounds[1:], rows.tolist())):
        if lo < hi:
            b[k[lo:hi]] = fresh[lo:hi]
        inner = (b[:r].reshape(r * qo, qi) @ smooth[pos]).reshape(r, qo)
        out[pos, :r] = (x_pow[:r] * inner[::-1]) @ wx
    n = int(levels[-1])
    # a row keeps its d from its last change to the last level
    d[k] = (n - 1.0) - ((n - 3 - k)[:, None] + xi)
    powers[(qo, qi)] = (n, x, x_pow, d, b)
    return out


def _row_dots(y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """np.dot(y[r], w) for every row r, with the same bits.

    y @ w would be one gemv, whose sums are ordered unlike ddot's; a stack of
    (1, q) @ (q,) products makes numpy call ddot once per row.
    """
    return (y[:, None, :] @ w)[:, 0]


def _j_first_rows(a: float, levels: np.ndarray, qo: int, qi: int) -> np.ndarray:
    """One stage of j_n(1) for levels n >= 3: Gauss-Jacobi absorbs x^{-a} at 0."""
    x, wx = _gj01(qo, 0.0, -a)
    v, wv = _gl01(qi)
    m = (levels - 1.0)[:, None]
    smooth = (v + m) ** a * wv
    b = (v + (m - x)[:, :, None]) ** (a - 1.0)
    return _row_dots((b @ smooth[:, :, None])[:, :, 0], wx)


def _j_last_rows(a: float, levels: np.ndarray, qs: int, qt: int) -> np.ndarray:
    """One stage of j_n(n-1) for levels n >= 3 in rotated (s, t) coordinates."""
    tau, wt = _gl11(qt)
    m = (levels - 1.0)[:, None, None]

    def psi(s: np.ndarray, t: np.ndarray) -> np.ndarray:
        return (m - (s - t) / 2.0) ** (-a) * (m + (s + t) / 2.0) ** a

    s1, ws1 = _gj01(qs, 0.0, a)  # weight s^a on (0,1)
    p1 = 0.5 * _row_dots(psi(s1[:, None], s1[:, None] * tau[None, :]) @ wt, ws1)
    s2, ws2 = _gl01(qs)
    s2 = 1.0 + s2  # map to (1, 2)
    f2 = s2 ** (a - 1.0) * (2.0 - s2) * (psi(s2[:, None], (2.0 - s2)[:, None] * tau[None, :]) @ wt)
    p2 = 0.5 * _row_dots(f2, ws2)
    return p1 + p2


def _g_rows(a: float, levels: np.ndarray, qo: int, qi: int) -> np.ndarray:
    """One stage of g_n/(sigma*C_H) for levels n >= 2."""
    y, wy = _gj01(qi, 0.0, a - 1.0)
    u, wu = _gj01(qo, a, 0.0)  # absorbs (1-u)^a = (n-x)^a
    x = (levels - 1.0)[:, None] + u
    inner = ((y * (levels[:, None] - x)[:, :, None] + x[:, :, None]) ** a) @ wy
    return _row_dots(x ** (-a) * inner, wu)


def _j2_value(a: float, cfg: QuadratureConfig) -> tuple[float, float]:
    """j_2(1)/(sigma*C_H) on the order ladder (module docstring, n = 2).

    The error is the rung difference plus _J2_ROUNDING * |value|; if that
    exceeds cfg's tolerance, QuadratureError is raised.  The first term comes
    from betainc's series, within 5 eps.
    """
    head = (math.expm1((1.0 + a) * math.log(2.0)) * math.pi / math.sin(math.pi * a)
            * float(betainc(1.0 - a, a, 0.5)))

    def stage(qo: int, qi: int, live) -> list[float]:
        x, wx = _gj01(qo, 0.0, a)
        w = x / 2.0
        q = (1.0 - w) ** -a * np.expm1(-(1.0 + a) * np.log1p(-w)) / w
        return [(head + 2.0 ** (-a - 1.0) * float(np.dot(q, wx))) / (1.0 + a)]

    vals, errs = _escalate(stage, cfg, ["j_2(1)"])
    val = float(vals[0])
    err = float(errs[0]) + _J2_ROUNDING * abs(val)
    if err > cfg.tol_for(val):
        raise QuadratureError(f"j_2(1): error bound {err:g} above tolerance", best=val, err=err)
    return val, err


def _escalate(stage_fn, cfg: QuadratureConfig, names: list[str]):
    """Run stage_fn up the order ladder until, row by row, two stages agree.

    stage_fn(qo, qi, live) evaluates the rows listed in live (ascending indices
    into names) and returns one value, or one array of values, per live row.
    A row freezes at the first rung where all its values agree with the last
    rung's, so it gets what a ladder of its own would give.  The result is
    (values, |differences|) with one row per name; a row still open after the
    last rung raises QuadratureError naming the first such row, with its worst
    entry as best and err.
    """
    live = np.arange(len(names))
    prev = vals = errs = None
    for qo, qi in _ORDER_LADDER:
        cur = np.asarray(stage_fn(qo, qi, live))
        if prev is not None:
            err = abs(cur - prev)
            ok = (err <= np.maximum(cfg.abs_tol, cfg.rel_tol * abs(cur)))
            ok = ok.reshape(len(live), -1).all(axis=1)
            if vals is None:
                if ok.all():
                    return cur, err
                vals, errs = np.empty_like(cur), np.empty_like(err)
            vals[live[ok]], errs[live[ok]] = cur[ok], err[ok]
            live, cur, err = live[~ok], cur[~ok], err[~ok]
            if not live.size:
                return vals, errs
        prev = cur
    worst = np.argmax(err[0])
    raise QuadratureError(f"{names[live[0]]}: order ladder exhausted",
                          best=float(np.ravel(cur[0])[worst]), err=float(np.ravel(err[0])[worst]))


@lru_cache(maxsize=256)
def _phi1(a: float, m: int) -> float:
    """int_0^1 y^{a-1} (1+y)^a dy by Gauss-Jacobi (branch at -1, spectral)."""
    y, wy = _gj01(m, 0.0, a - 1.0)
    return float(np.dot((1.0 + y) ** a, wy))


def _inner_t(a: float, c: float, m: int) -> float:
    """T(c) = int_0^1 z^{a-1} (c+z)^a dz, uniformly accurate in c > 0.

    For c >= 1/2 the smooth factor's branch point -c is far enough for a
    plain Jacobi rule.  Below that the head int_0^c rescales exactly to
    c^{2a} * T(1)-style constant, and the remainder is analytic on the
    logarithmic segment [ln c, 0] (nearest singularity at imag distance pi),
    integrated on panels of bounded length so accuracy is c-independent.
    """
    if c >= 0.5:
        z, wz = _gj01(m, 0.0, a - 1.0)
        return float(np.dot((c + z) ** a, wz))
    head = c ** (2.0 * a) * _phi1(a, m)
    length = -math.log(c)
    panels = max(1, math.ceil(length / 7.0))
    x, w = _gl01(m)
    total = 0.0
    for p in range(panels):
        lo = -length + length * p / panels
        width = length / panels
        ell = lo + width * x
        total += width * float(np.dot(np.exp(2.0 * a * ell) * (1.0 + c * np.exp(-ell)) ** a, w))
    return head + total


def _kernel(a: float, c_big: float, t: float, s: float, m: int) -> float:
    """The kernel C_H s^{-a} (t-s)^{2a} T(s/(t-s)), T by m-node rules."""
    return c_big * s ** (-a) * (t - s) ** (2.0 * a) * _inner_t(a, s / (t - s), m)


def kernel(H: float, t: float, s: float, cfg: QuadratureConfig = DEFAULT_QUAD) -> float:
    """Singular kernel C_H s^{1/2-H} int_s^t u^{H-1/2} (u-s)^{H-3/2} du.

    Substituting u = s + (t-s) z gives C_H s^{-a} (t-s)^{2a} T(s/(t-s)) with
    T as above; the endpoint blow-up becomes the Jacobi weight z^{a-1}.
    """
    if s <= 0 or t <= s:
        raise ValueError(f"kernel requires 0 < s < t, got t={t}, s={s}")
    a = H - 0.5
    c_big = normalizing_constant(H) * a
    vals, _ = _escalate(lambda qo, qi, _: [_kernel(a, c_big, t, s, qi)], cfg,
                        [f"kernel(H={H},t={t},s={s})"])
    return float(vals[0])


def j_coeff(params: HurstParams, n: int, i: int, cfg: QuadratureConfig = DEFAULT_QUAD) -> float:
    """Scaled weight j_n(i) of the i-th past move at level n (1 <= i <= n-1)."""
    if not (n >= 2 and 1 <= i <= n - 1):
        raise ValueError(f"need n >= 2 and 1 <= i <= n-1, got n={n}, i={i}")
    return float(coefficient_table(params, n, cfg).j[i - 1])


def g_coeff(params: HurstParams, n: int, cfg: QuadratureConfig = DEFAULT_QUAD) -> float:
    """Scaled present-move weight g_n at level n (n >= 1)."""
    if n < 1:
        raise ValueError("level n must be >= 1")
    return coefficient_table(params, n, cfg).g


# ---------------------------------------------------------------------------
# Unscaled originals: the independent route for the N^{-H} scaling law.
# ---------------------------------------------------------------------------

def _unscaled(params: HurstParams, N: int, k: int, times: tuple, cfg: QuadratureConfig,
              what: str) -> float:
    """sigma sqrt(N) int_{(k-1)/N}^{k/N} K(t_0, u) [- K(t_1, u)] du on the order ladder.

    times is (t_0,) or (t_0, t_1).  Rung (qo, qi) takes qo tanh-sinh nodes
    in u; the kernel is evaluated at the fixed inner order _UNSCALED_INNER,
    so qi is unused.  Nodes that round onto an end are dropped: the kernel
    may divide by zero there.  The error is the rung difference plus
    _UNSCALED_ROUNDING times the integral of sum_t |K(t, u)| at the accepted
    rung; if that exceeds cfg's tolerance, QuadratureError is raised.
    """
    a, c_big = params.alpha, params.C_H
    lo, hi = (k - 1) / N, k / N
    magnitude = 0.0

    def stage(qo: int, qi: int, live) -> list[float]:
        nonlocal magnitude
        d, w = _de01(qo)
        u = np.where(np.arange(qo) < qo // 2, lo + (hi - lo) * d, hi - (hi - lo) * d)
        inside = (lo < u) & (u < hi)
        kt = np.array([[_kernel(a, c_big, t, x, _UNSCALED_INNER) for t in times]
                       for x in u[inside].tolist()])
        magnitude = (hi - lo) * float(np.dot(np.abs(kt).sum(axis=1), w[inside]))
        return [(hi - lo) * float(np.dot(kt[:, 0] - kt[:, 1:].sum(axis=1), w[inside]))]

    vals, errs = _escalate(stage, cfg, [what])
    val = float(vals[0])
    # one row: the last stage evaluated is the accepted rung
    err = float(errs[0]) + _UNSCALED_ROUNDING * magnitude
    if err > cfg.tol_for(val):
        raise QuadratureError(f"{what}: error bound {err:g} above tolerance", best=val, err=err)
    return params.sigma * math.sqrt(N) * val


def J_unscaled(params: HurstParams, N: int, n: int, i: int,
               cfg: QuadratureConfig = DEFAULT_QUAD) -> float:
    """Original N-dependent weight: direct quadrature of the kernel increment.

    Deliberately does not reuse the scaled-integral code path, so that
    N^H * J_unscaled == j_coeff is a two-route consistency check: a tanh-sinh
    outer rule in place of the tables' Gauss-Jacobi rules.
    """
    if not (1 <= i < n <= N):
        raise ValueError(f"need 1 <= i < n <= N, got N={N}, n={n}, i={i}")
    return _unscaled(params, N, i, (n / N, (n - 1) / N), cfg, f"J({N},{n},{i})")


def g_unscaled(params: HurstParams, N: int, n: int,
               cfg: QuadratureConfig = DEFAULT_QUAD) -> float:
    """Original N-dependent present-move weight (independent route)."""
    if not 1 <= n <= N:
        raise ValueError(f"need 1 <= n <= N, got N={N}, n={n}")
    return _unscaled(params, N, n, (n / N,), cfg, f"g({N},{n})")


# ---------------------------------------------------------------------------
# Structural quantities: the turning point of the envelope and I_n.
# ---------------------------------------------------------------------------

def turning_point(H: float, n: int) -> tuple[float, int]:
    """Minimum x_n of x^{-a}((n-x)^a - (n-1-x)^a) and the split index i_n.

    x_n = n-1 - 1/((1+1/(n-1))^{2/(3-2H)} - 1), evaluated via expm1/log1p so
    large n is exact; x_n/(n-1) -> H - 1/2.  i_n = floor(x_n)+1 clamped to
    [1, n-1].
    """
    if not 0.5 < H < 1.0:
        raise ValueError(f"H must lie strictly in (1/2, 1), got {H}")
    if n < 2:
        raise ValueError("turning point needs n >= 2")
    p = 2.0 / (3.0 - 2.0 * H)
    x_n = (n - 1.0) - 1.0 / math.expm1(p * math.log1p(1.0 / (n - 1.0)))
    i_n = int(min(max(math.floor(x_n) + 1, 1), n - 1))
    return x_n, i_n


def I_integrals(H: float, n: int, cfg: QuadratureConfig = DEFAULT_QUAD) -> np.ndarray:
    """I_n(i) = int_{i-1}^i x^{-a} ((n-x)^a - (n-1-x)^a) dx for i = 1..n-1.

    These bracket j_n(i) between sigma*c_H*(n-1)^a*I_n(i) and
    sigma*c_H*n^a*I_n(i), and are unimodal with minimum at i_n;
    weight_brackets bounds them, and their sum, in closed form.
    """
    if not 0.5 < H < 1.0:
        raise ValueError(f"H must lie strictly in (1/2, 1), got {H}")
    if n < 2:
        raise ValueError("I_n needs n >= 2")
    a = H - 0.5

    def phi(x: np.ndarray) -> np.ndarray:
        return (n - x) ** a - (n - 1.0 - x) ** a

    def stage(qo: int, qi: int) -> np.ndarray:
        out = np.empty(n - 1)
        # i = 1 (skip if it is also the last column)
        if n >= 3:
            xg, wg = _gj01(qo, 0.0, -a)
            out[0] = float(np.dot(phi(xg), wg))
        if n >= 4:
            xi, wx = _gl01(qo)
            i_arr = np.arange(2, n - 1, dtype=np.float64)
            x = (i_arr - 1.0)[:, None] + xi[None, :]
            out[1 : n - 2] = (x ** (-a) * phi(x)) @ wx
        # i = n-1: split the cusp term (n-1-x)^a into its own Jacobi rule
        if n == 2:
            x1, w1 = _gj01(qo, 0.0, -a)
            part1 = float(np.dot((2.0 - x1) ** a, w1))
            x2, w2 = _gj01(qo, a, -a)
            part2 = float(np.sum(w2))
            out[0] = part1 - part2
        else:
            x1, w1 = _gl01(qo)
            xs = (n - 2.0) + x1
            part1 = float(np.dot(xs ** (-a) * (n - xs) ** a, w1))
            u, w2 = _gj01(qo, a, 0.0)
            part2 = float(np.dot(((n - 2.0) + u) ** (-a), w2))
            out[n - 2] = part1 - part2
        return out

    return _escalate(lambda qo, qi, _: [stage(qo, qi)], cfg, [f"I_{n}"])[0][0]


# Float evaluation error allowed for each weight_brackets bound, relative, and
# absolute for 1 - L I_{1/L}(1+a, 1-a), which lies in (0, 1).  The powers,
# expm1/log1p steps and betainc (I and L I within 1e-15 of 40-digit values
# over a in [1e-12, 0.4999], L in [2, 1e7]; tests/test_special.py) are each
# good to a few ulps.
_BRACKET_ERR = 1e-13


class WeightBrackets(NamedTuple):
    """Bounds on the weights of a block of levels, one row per level."""

    j_lo: np.ndarray  # (levels, columns): j_L(i) for i = 1..columns
    j_hi: np.ndarray
    sum_lo: np.ndarray  # sum over i = 1..L-1 of j_L(i)
    sum_hi: np.ndarray
    g_lo: np.ndarray  # g_L
    g_hi: np.ndarray


def _pow_step(r: np.ndarray, p: float) -> np.ndarray:
    """(r+1)^p - r^p for r >= 0, by expm1/log1p so that a large r loses nothing."""
    with np.errstate(divide="ignore", invalid="ignore"):
        step = r**p * np.expm1(p * np.log1p(1.0 / r))
    return np.where(r > 0, step, 1.0)


def weight_brackets(params: HurstParams, levels, columns: int = 0) -> WeightBrackets:
    """Closed-form brackets of j_L(i) (i <= columns), sum_i j_L(i) and g_L, levels L >= 2.

    With s = sigma*C_H/a, the v-integral's (v+L-1)^a lies in [(L-1)^a, L^a],
    so j_L(i) lies in s [(L-1)^a, L^a] I_L(i) (I_integrals).  In I_L(i),
    phi_L(x) = (L-x)^a - (L-1-x)^a increases in x and int_{i-1}^i x^-a dx is
    X(i) = (i^(1-a) - (i-1)^(1-a))/(1-a), so
        s (L-1)^a phi_L(i-1) X(i) <= j_L(i) <= s L^a phi_L(i) X(i).
    Summed over i, I_L(i) integrates x^-a phi_L over [0, L-1], which is
    B(1-a,1+a) (1 - L I_{1/L}(1+a,1-a)), B(1-a,1+a) = pi a / sin(pi a) and I
    the regularized incomplete beta function.  In g_L the factors x^-a and
    (y(L-x)+x)^a lie between their values at L-1 and L, so g_L lies in
    sigma C_H/(a(1+a)) [((L-1)/L)^a, (L/(L-1))^a].  Each bound holds in real
    arithmetic and is moved outwards by its evaluation error, _BRACKET_ERR.
    """
    a = params.alpha
    L = np.asarray(levels, dtype=np.float64)[:, None]
    if columns > L.min() - 1 or L.min() < 2:
        raise ValueError(f"need levels >= 2 and columns <= level-1, got columns={columns}")
    i = np.arange(1.0, columns + 1.0)
    lo, hi = 1.0 - _BRACKET_ERR, 1.0 + _BRACKET_ERR
    s_lo = params.sigma * params.c_H * (L - 1.0) ** a * lo
    s_hi = params.sigma * params.c_H * L**a * hi
    x = _pow_step(i - 1.0, 1.0 - a) / (1.0 - a)
    q = 1.0 - L[:, 0] * betainc(1.0 + a, 1.0 - a, 1.0 / L[:, 0])
    b = math.pi * a / math.sin(math.pi * a)
    ratio = ((L[:, 0] - 1.0) / L[:, 0]) ** a
    return WeightBrackets(
        j_lo=s_lo * _pow_step(L - i, a) * x,
        j_hi=s_hi * _pow_step(L - 1.0 - i, a) * x,
        sum_lo=s_lo[:, 0] * b * (q - _BRACKET_ERR),
        sum_hi=s_hi[:, 0] * b * (q + _BRACKET_ERR),
        g_lo=params.g_H * ratio * lo,
        g_hi=params.g_H / ratio * hi)


# ---------------------------------------------------------------------------
# Tables and their cache.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoefficientTable:
    """All level-n weights with error bounds and the split point.

    j[i-1] holds j_n(i); g is the present-move weight; split_index is i_n
    (the envelope minimum, clamped into [1, n-1]) and turning_point the real
    minimiser x_n (nan at n=1).
    """

    params: HurstParams
    n: int
    j: np.ndarray
    g: float
    j_err: np.ndarray
    g_err: float
    split_index: int
    turning_point: float

    def var_total(self) -> float:
        """Variance of the level-n past contribution, sum of j^2."""
        return float(np.sum(self.j**2))


_TABLE_CACHE: dict[tuple, CoefficientTable] = {}


def _table_key(params: HurstParams, n: int, cfg: QuadratureConfig) -> tuple:
    return (params.H, params.sigma, n, cfg.key())


def _build_tables(params: HurstParams, levels: list[int], cfg: QuadratureConfig,
                  powers: dict) -> dict[int, CoefficientTable]:
    """Build and cache the tables of levels (ascending, distinct, n >= 1).

    Every stage runs once per rung over the block: the interior columns (rows
    zero-padded to the widest level's), j_n(1), j_n(n-1) and g_n.  With one
    level the stages run in the order interior, j_n(1), j_n(n-1), g_n, so the
    first one to exhaust the ladder is the one reported.
    """
    a = params.alpha
    scale = params.sigma * params.C_H
    j = {n: np.empty(n - 1) for n in levels}
    j_err = {n: np.empty(n - 1) for n in levels}
    mid = [n for n in levels if n >= 4]
    if mid:
        nl = np.array(mid)
        vals, errs = _escalate(
            lambda qo, qi, live: _j_interior_rows(a, nl[live], mid[-1] - 3, qo, qi, powers),
            cfg, [f"j_{n}(2..{n - 2})" for n in mid])
        for n, val, err in zip(mid, vals, errs):
            j[n][1:n - 2], j_err[n][1:n - 2] = val[:n - 3], err[:n - 3]
    if 2 in j:
        j[2][0], j_err[2][0] = _j2_value(a, cfg)
    deep = [n for n in levels if n >= 3]
    if deep:
        nl = np.array(deep, dtype=np.float64)
        first = _escalate(lambda qo, qi, live: _j_first_rows(a, nl[live], qo, qi), cfg,
                          [f"j_{n}(1)" for n in deep])
        last = _escalate(lambda qo, qi, live: _j_last_rows(a, nl[live], qo, qi), cfg,
                         [f"j_{n}({n - 1})" for n in deep])
        for n, v1, e1, v2, e2 in zip(deep, *first, *last):
            j[n][0], j_err[n][0], j[n][-1], j_err[n][-1] = v1, e1, v2, e2
    # g_n and its error are Python floats (scaled as such, so nothing warns)
    g = {}
    if 1 in j:
        val = scale * math.pi / math.sin(math.pi * a) / (1.0 + a)
        g[1] = (val, float(4.0 * np.finfo(float).eps * val))
    wide = [n for n in levels if n >= 2]
    if wide:
        nl = np.array(wide, dtype=np.float64)
        vals, errs = _escalate(lambda qo, qi, live: _g_rows(a, nl[live], qo, qi), cfg,
                               [f"g_{n}" for n in wide])
        for n, val, err in zip(wide, vals.tolist(), errs.tolist()):
            g[n] = (scale * val, scale * err)
    built = {}
    for n in levels:
        x_n, i_n = turning_point(params.H, n) if n >= 2 else (float("nan"), 1)
        jv, je = scale * j[n], scale * j_err[n]
        jv.setflags(write=False)
        je.setflags(write=False)
        table = CoefficientTable(params=params, n=n, j=jv, g=g[n][0], j_err=je, g_err=g[n][1],
                                 split_index=i_n, turning_point=x_n)
        built[n] = _TABLE_CACHE.setdefault(_table_key(params, n, cfg), table)
    return built


def coefficient_tables(params: HurstParams, levels,
                       cfg: QuadratureConfig = DEFAULT_QUAD) -> list[CoefficientTable]:
    """The tables of levels, in their order, building the missing ones together.

    Missing levels are built in ascending blocks of _BATCH_LEVELS, which share
    one set of interior power rows that lives as long as this call.  If a
    block exhausts the ladder somewhere, its levels are built again one at a
    time, so the error is the one a level-by-level sweep meets first (the
    lowest failing level) and the levels below it are cached.
    """
    levels = list(levels)
    if any(n < 1 for n in levels):
        raise ValueError("level n must be >= 1")
    tables = {n: _TABLE_CACHE.get(_table_key(params, n, cfg)) for n in levels}
    todo = sorted(n for n, t in tables.items() if t is None)
    powers: dict = {}
    for start in range(0, len(todo), _BATCH_LEVELS):
        block = todo[start:start + _BATCH_LEVELS]
        try:
            tables.update(_build_tables(params, block, cfg, powers))
        except QuadratureError:
            if len(block) == 1:
                raise
            for n in block:
                _build_tables(params, [n], cfg, powers)
            raise
    return [tables[n] for n in levels]


def coefficient_table(params: HurstParams, n: int,
                      cfg: QuadratureConfig = DEFAULT_QUAD) -> CoefficientTable:
    """Build (or fetch from the cache) the full level-n table."""
    return coefficient_tables(params, [n], cfg)[0]


def clear_table_cache() -> None:
    _TABLE_CACHE.clear()


def table_fingerprint(tables) -> str:
    """SHA-256 over the exact bytes of the table values, for report headers."""
    import hashlib

    acc = hashlib.sha256()
    for t in sorted(tables, key=lambda t: (t.params.H, t.params.sigma, t.n)):
        acc.update(np.asarray([t.params.H, t.params.sigma, float(t.n)]).tobytes())
        acc.update(t.j.tobytes())
        acc.update(np.asarray([t.g]).tobytes())
    return acc.hexdigest()


def write_tables_csv(tables, j_path, g_path) -> None:
    """Dump tables as CSV: (n,i,j_value,err) and (n,g_value,err), sorted."""
    tables = sorted(tables, key=lambda t: t.n)
    with open(j_path, "w", newline="") as fh:
        fh.write("n,i,j_value,err\n")
        for t in tables:
            rows = zip(float_reprs(t.j), float_reprs(t.j_err))
            fh.writelines(f"{t.n},{i},{j},{err}\n" for i, (j, err) in enumerate(rows, 1))
    with open(g_path, "w", newline="") as fh:
        fh.write("n,g_value,err\n")
        rows = zip(float_reprs([t.g for t in tables]), float_reprs([t.g_err for t in tables]))
        fh.writelines(f"{t.n},{g},{err}\n" for t, (g, err) in zip(tables, rows))
