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
reported error bound.

Special cases:
  * i = n-1 (the x-integral runs into the (v+n-1-x)^{a-1} blow-up at the
    corner x -> n-1, v -> 0): rotate to s = v+delta, t = v-delta with
    delta = n-1-x; the singular factor becomes the pure Jacobi weight
    s^{a-1} and both pieces of the rotated square are analytic.
  * n = 2 (both the x^{-a} endpoint and the corner meet): the x-integral has
    the exact form B(1-a,a) * I_{1/(1+v)}(1-a, a), leaving a 1-D adaptive
    integral in v.
  * n = 1: g_1 reduces exactly to sigma*C_H*B(1-a,a)/(1+a).

Tables are cached per (params, n, config); construction is idempotent.
The interior powers (v + (n-1) - x)^{a-1} at the outer nodes x = m + xi
are most of the cost of a table built from nothing.  When m-1 and m lie in
one binade, fl(m + xi) = fl(m-1 + xi) + 1 exactly, so row m of level n has
the same bits as row m-1 of level n-1.  One memo entry per ladder rung keeps
the last level's (a, n, d, powers); the next level copies them and
recomputes row 0 and every row whose d differs by exact comparison (only
rows m = 2^k can), so every table is byte-identical to one built from
scratch.  clear_table_cache() empties the memo as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import quad as _quad
from scipy.special import betainc as _betainc
from scipy.special import roots_jacobi, roots_legendre

from .errors import QuadratureError
from .hurst import HurstParams, normalizing_constant

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
    "coefficient_table",
    "clear_table_cache",
    "table_fingerprint",
    "write_tables_csv",
]

# (outer, inner) Gaussian orders tried in sequence until two consecutive
# stages agree within tolerance.
_ORDER_LADDER = ((16, 24), (24, 32), (32, 48), (48, 64), (64, 96), (96, 128))


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances for every integral in this module.

    The reported error estimate of any accepted value is at most
    max(abs_tol, rel_tol * |value|); otherwise QuadratureError is raised.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-9
    max_subdivisions: int = 2000

    def __post_init__(self) -> None:
        if not (self.abs_tol > 0 and self.rel_tol > 0 and self.max_subdivisions > 0):
            raise ValueError("quadrature tolerances and subdivision cap must be positive")

    def tol_for(self, value: float) -> float:
        return max(self.abs_tol, self.rel_tol * abs(value))

    def key(self) -> tuple:
        return (self.abs_tol, self.rel_tol, self.max_subdivisions)


DEFAULT_QUAD = QuadratureConfig()


@lru_cache(maxsize=512)
def _gl01(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [0, 1]."""
    x, w = roots_legendre(m)
    return (x + 1.0) / 2.0, w / 2.0


@lru_cache(maxsize=512)
def _gl11(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [-1, 1]."""
    x, w = roots_legendre(m)
    return x, w


@lru_cache(maxsize=512)
def _gj01(m: int, alpha: float, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights for int_0^1 (1-x)^alpha x^beta f(x) dx = sum W f(x)."""
    t, w = roots_jacobi(m, alpha, beta)
    x = (t + 1.0) / 2.0
    return x, w * 2.0 ** (-alpha - beta - 1.0)


# Per ladder rung (qo, qi): (a, n, d, b) of the last interior stage built,
# so the next level can copy the powers it shares with this one.
_POWER_MEMO: dict[tuple[int, int], tuple] = {}


def _power_rows(out: np.ndarray, d: np.ndarray, v: np.ndarray, a: float) -> None:
    """out[..., q] = (v_q + d[...])**(a-1), computed in place."""
    np.add(v, d[..., None], out=out)
    np.power(out, a - 1.0, out=out)


def _interior_powers(a: float, n: int, d: np.ndarray, qo: int, qi: int) -> np.ndarray:
    """b[r, p, q] = (v_q + d[r, p])**(a-1) for the interior rows of level n.

    Row r of level n equals row r-1 of level n-1 wherever their d agree bit
    for bit, so with level n-1 in the memo only row 0 and the rows whose d
    changed are computed; the rest are one slice copy.
    """
    v, _ = _gl01(qi)
    b = np.empty(d.shape + (qi,))
    a_prev, n_prev, d_prev, b_prev = _POWER_MEMO.get((qo, qi), (None,) * 4)
    if a_prev == a and n_prev == n - 1:
        b[1:] = b_prev
        stale = np.flatnonzero(np.any(d[1:] != d_prev, axis=1)) + 1
        for r in (0, *stale):
            _power_rows(b[r], d[r], v, a)
    else:
        _power_rows(b, d, v, a)
    b.setflags(write=False)
    _POWER_MEMO[(qo, qi)] = (a, n, d, b)
    return b


def _j_middle_stage(a: float, n: int, i_arr: np.ndarray, qo: int, qi: int) -> np.ndarray:
    """One quadrature stage of j-values for interior columns 2 <= i <= n-2."""
    xi, wx = _gl01(qo)
    v, wv = _gl01(qi)
    x = (i_arr - 1.0)[:, None] + xi[None, :]
    smooth = (v + (n - 1.0)) ** a * wv
    b = _interior_powers(a, n, (n - 1.0) - x, qo, qi)
    return (x ** (-a) * (b @ smooth)) @ wx


def _j_first_stage(a: float, n: int, qo: int, qi: int) -> float:
    """One stage of j_n(1) for n >= 3: Gauss-Jacobi absorbs x^{-a} at 0."""
    x, wx = _gj01(qo, 0.0, -a)
    v, wv = _gl01(qi)
    smooth = (v + (n - 1.0)) ** a * wv
    b = (v + (n - 1.0 - x)[:, None]) ** (a - 1.0)
    return float(np.dot(b @ smooth, wx))


def _j_last_stage(a: float, n: int, qs: int, qt: int) -> float:
    """One stage of j_n(n-1) for n >= 3 in rotated (s, t) coordinates."""
    tau, wt = _gl11(qt)

    def psi(s: np.ndarray, t: np.ndarray) -> np.ndarray:
        return ((n - 1.0) - (s - t) / 2.0) ** (-a) * ((n - 1.0) + (s + t) / 2.0) ** a

    s1, ws1 = _gj01(qs, 0.0, a)  # weight s^a on (0,1)
    p1 = 0.5 * float(np.dot(psi(s1[:, None], s1[:, None] * tau[None, :]) @ wt, ws1))
    s2, ws2 = _gl01(qs)
    s2 = 1.0 + s2  # map to (1, 2)
    f2 = s2 ** (a - 1.0) * (2.0 - s2) * (psi(s2[:, None], (2.0 - s2)[:, None] * tau[None, :]) @ wt)
    p2 = 0.5 * float(np.dot(f2, ws2))
    return p1 + p2


def _adaptive(f, lo: float, hi: float, cfg: QuadratureConfig, what: str) -> tuple[float, float]:
    """Adaptive int_lo^hi f with its error estimate, checked against cfg.

    Any QUADPACK flag (subdivision limit, roundoff, bad integrand, ...) counts
    as nonconvergence, whatever the error estimate says.
    """
    val, err, _info, *flag = _quad(f, lo, hi, epsabs=cfg.abs_tol / 10.0, epsrel=cfg.rel_tol / 10.0,
                                   limit=cfg.max_subdivisions, full_output=1)
    if flag:
        raise QuadratureError(f"{what}: QUADPACK flagged: {' '.join(flag[0].split())}",
                              best=val, err=err)
    if err > cfg.tol_for(val):
        raise QuadratureError(f"{what}: adaptive error {err:g} above tolerance", best=val, err=err)
    return val, err


def _j2_value(a: float, cfg: QuadratureConfig) -> tuple[float, float]:
    """j_2(1)/(sigma*C_H): exact incomplete-Beta x-integral, adaptive in v."""
    bfull = math.pi / math.sin(math.pi * a)  # B(1-a, a)

    def f(v: float) -> float:
        return (1.0 + v) ** a * _betainc(1.0 - a, a, 1.0 / (1.0 + v))

    val, err = _adaptive(f, 0.0, 1.0, cfg, "j_2(1)")
    return bfull * val, bfull * err


def _escalate(stage_fn, cfg: QuadratureConfig, what: str):
    """Run stage_fn up the order ladder until two consecutive stages agree.

    Stages return a float or an array (all entries must agree); the result is
    (last stage, |difference|) of the same kind.
    """
    prev = None
    for qo, qi in _ORDER_LADDER:
        cur = stage_fn(qo, qi)
        if prev is not None:
            err = abs(cur - prev)
            if np.all(err <= np.maximum(cfg.abs_tol, cfg.rel_tol * abs(cur))):
                return cur, err
        prev = cur
    worst = np.argmax(err)
    raise QuadratureError(f"{what}: order ladder exhausted",
                          best=float(np.ravel(cur)[worst]), err=float(np.ravel(err)[worst]))


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


def _kernel_value(a: float, c_big: float, t: float, s: float, inner: float) -> float:
    """The kernel C_H s^{-a} (t-s)^{2a} T(s/(t-s)) given inner = T(s/(t-s))."""
    return c_big * s ** (-a) * (t - s) ** (2.0 * a) * inner


def kernel(H: float, t: float, s: float, cfg: QuadratureConfig = DEFAULT_QUAD) -> float:
    """Singular kernel C_H s^{1/2-H} int_s^t u^{H-1/2} (u-s)^{H-3/2} du.

    Substituting u = s + (t-s) z gives C_H s^{-a} (t-s)^{2a} T(s/(t-s)) with
    T as above; the endpoint blow-up becomes the Jacobi weight z^{a-1}.
    """
    if s <= 0 or t <= s:
        raise ValueError(f"kernel requires 0 < s < t, got t={t}, s={s}")
    a = H - 0.5
    c_big = normalizing_constant(H) * a
    val, _ = _escalate(lambda qo, qi: _inner_t(a, s / (t - s), qi), cfg,
                       f"kernel(H={H},t={t},s={s})")
    return _kernel_value(a, c_big, t, s, val)


def _j_values(params: HurstParams, n: int, cfg: QuadratureConfig) -> tuple[np.ndarray, np.ndarray]:
    """All of j_n(1..n-1) with per-entry error estimates."""
    a = params.alpha
    scale = params.sigma * params.C_H
    if n < 1:
        raise ValueError("level n must be >= 1")
    if n == 1:
        return np.empty(0), np.empty(0)
    if n == 2:
        val, err = _j2_value(a, cfg)
        return np.array([scale * val]), np.array([scale * err])

    vals = np.empty(n - 1)
    errs = np.empty(n - 1)

    # interior columns, vectorised across i with a shared order ladder
    if n >= 4:
        i_arr = np.arange(2, n - 1, dtype=np.float64)
        vals[1 : n - 2], errs[1 : n - 2] = _escalate(
            lambda qo, qi: _j_middle_stage(a, n, i_arr, qo, qi), cfg,
            f"j_{n}(2..{n - 2})")
    vals[0], errs[0] = _escalate(lambda qo, qi: _j_first_stage(a, n, qo, qi), cfg, f"j_{n}(1)")
    vals[n - 2], errs[n - 2] = _escalate(lambda qo, qi: _j_last_stage(a, n, qo, qi), cfg,
                                         f"j_{n}({n-1})")
    return scale * vals, scale * errs


def j_coeff(params: HurstParams, n: int, i: int, cfg: QuadratureConfig = DEFAULT_QUAD) -> float:
    """Scaled weight j_n(i) of the i-th past move at level n (1 <= i <= n-1)."""
    if not (n >= 2 and 1 <= i <= n - 1):
        raise ValueError(f"need n >= 2 and 1 <= i <= n-1, got n={n}, i={i}")
    return float(coefficient_table(params, n, cfg).j[i - 1])


def _g_value(params: HurstParams, n: int, cfg: QuadratureConfig) -> tuple[float, float]:
    a = params.alpha
    scale = params.sigma * params.C_H
    if n < 1:
        raise ValueError("level n must be >= 1")
    if n == 1:
        val = scale * math.pi / math.sin(math.pi * a) / (1.0 + a)
        return val, 4.0 * np.finfo(float).eps * val

    def stage(qo: int, qi: int) -> float:
        y, wy = _gj01(qi, 0.0, a - 1.0)
        u, wu = _gj01(qo, a, 0.0)  # absorbs (1-u)^a = (n-x)^a
        x = (n - 1.0) + u
        inner = ((y[None, :] * (n - x)[:, None] + x[:, None]) ** a) @ wy
        return float(np.dot(x ** (-a) * inner, wu))

    val, err = _escalate(stage, cfg, f"g_{n}")
    return scale * val, scale * err


def g_coeff(params: HurstParams, n: int, cfg: QuadratureConfig = DEFAULT_QUAD) -> float:
    """Scaled present-move weight g_n at level n (n >= 1)."""
    if n < 1:
        raise ValueError("level n must be >= 1")
    return coefficient_table(params, n, cfg).g


# ---------------------------------------------------------------------------
# Unscaled originals: the independent route for the N^{-H} scaling law.
# ---------------------------------------------------------------------------

def _kernel_fast(a: float, c_big: float, t: float, s: float) -> float:
    return _kernel_value(a, c_big, t, s, _inner_t(a, s / (t - s), 48))


def _unscaled(params: HurstParams, N: int, k: int, f, cfg: QuadratureConfig,
              what: str) -> float:
    """sigma sqrt(N) int_{(k-1)/N}^{k/N} f(u) du by adaptive quadrature."""
    pref = params.sigma * math.sqrt(N)
    if k > 1:
        return pref * _adaptive(f, (k - 1) / N, k / N, cfg, what)[0]
    # k = 1: remove the u^{-a} left singularity exactly via tau = u^{1-a}
    a = params.alpha
    q = 1.0 / (1.0 - a)

    def sub(tau: float) -> float:
        u = tau**q
        return u**a * f(u)

    return pref * q * _adaptive(sub, 0.0, (1.0 / N) ** (1.0 - a), cfg, what)[0]


def J_unscaled(params: HurstParams, N: int, n: int, i: int,
               cfg: QuadratureConfig = DEFAULT_QUAD) -> float:
    """Original N-dependent weight: direct quadrature of the kernel increment.

    Deliberately does not reuse the scaled-integral code path, so that
    N^H * J_unscaled == j_coeff is a two-route consistency check.
    """
    if not (1 <= i < n <= N):
        raise ValueError(f"need 1 <= i < n <= N, got N={N}, n={n}, i={i}")
    a, c_big = params.alpha, params.C_H
    t_hi, t_lo = n / N, (n - 1) / N

    def diff(u: float) -> float:
        return _kernel_fast(a, c_big, t_hi, u) - _kernel_fast(a, c_big, t_lo, u)

    return _unscaled(params, N, i, diff, cfg, f"J({N},{n},{i})")


def g_unscaled(params: HurstParams, N: int, n: int,
               cfg: QuadratureConfig = DEFAULT_QUAD) -> float:
    """Original N-dependent present-move weight (independent route)."""
    if not 1 <= n <= N:
        raise ValueError(f"need 1 <= n <= N, got N={N}, n={n}")
    a, c_big = params.alpha, params.C_H
    t_hi = n / N
    return _unscaled(params, N, n, lambda u: _kernel_fast(a, c_big, t_hi, u), cfg,
                     f"g({N},{n})")


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
    sigma*c_H*n^a*I_n(i), and are unimodal with minimum at i_n.
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

    return _escalate(stage, cfg, f"I_{n}")[0]


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


def coefficient_table(params: HurstParams, n: int,
                      cfg: QuadratureConfig = DEFAULT_QUAD) -> CoefficientTable:
    """Build (or fetch from the cache) the full level-n table."""
    key = (params.H, params.sigma, n, cfg.key())
    hit = _TABLE_CACHE.get(key)
    if hit is not None:
        return hit
    j, j_err = _j_values(params, n, cfg)
    g, g_err = _g_value(params, n, cfg)
    if n >= 2:
        x_n, i_n = turning_point(params.H, n)
    else:
        x_n, i_n = float("nan"), 1
    j.setflags(write=False)
    j_err.setflags(write=False)
    table = CoefficientTable(params=params, n=n, j=j, g=g, j_err=j_err,
                             g_err=g_err, split_index=i_n, turning_point=x_n)
    return _TABLE_CACHE.setdefault(key, table)


def clear_table_cache() -> None:
    _TABLE_CACHE.clear()
    _POWER_MEMO.clear()


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
            for idx in range(t.n - 1):
                fh.write(f"{t.n},{idx + 1},{t.j[idx]!r},{t.j_err[idx]!r}\n")
    with open(g_path, "w", newline="") as fh:
        fh.write("n,g_value,err\n")
        for t in tables:
            fh.write(f"{t.n},{t.g!r},{t.g_err!r}\n")
