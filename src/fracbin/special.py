"""The five special functions fracbin needs, on numpy and math alone.

* zeta(x, q) and ndtri(y) are line-for-line ports of the cephes routines
  that scipy.special wraps (zeta.c, ndtri.c).  Every power goes through
  math.pow, which is libm pow as in the C code: numpy's vectorised power
  may round differently in the last bit.  Their outputs equal scipy's bit
  for bit (tests/test_special.py).
* _gauss_rule(m, alpha, beta) is a Gauss-Jacobi rule by Golub-Welsch
  (Math. Comp. 23, 1969): nodes are the eigenvalues of the Jacobi matrix,
  polished by Newton on the three-term recurrence; weights come from the
  derivative formula, normalised to the weight's total mass.
* betainc(a, b, x) is the regularized incomplete beta function for
  x <= 1/2 and b <= 1, by its positive hypergeometric series.

Importing this module loads no scipy, which is most of a CLI process's
start-up cost otherwise.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["zeta", "ndtri", "betainc"]

_MACHEP = 1.11022302462515654042e-16  # 2**-53

# (2k)! / B_2k, the Euler-Maclaurin coefficients of cephes zeta.c
_ZETA_A = (
    12.0,
    -720.0,
    30240.0,
    -1209600.0,
    47900160.0,
    -1.8924375803183791606e9,
    7.47242496e10,
    -2.950130727918164224e12,
    1.1646782814350067249e14,
    -4.5979787224074726105e15,
    1.8152105401943546773e17,
    -7.1661652561756670113e18,
)


def zeta(x: float, q: float) -> float:
    """Hurwitz zeta sum_{k>=0} (k+q)^-x for x > 1 and q > 0 (cephes zeta)."""
    if x == 1.0:
        return math.inf
    if x < 1.0 or q <= 0.0:
        raise ValueError(f"zeta needs x > 1 and q > 0, got x={x}, q={q}")
    if q > 1e8:  # asymptotic expansion, DLMF 25.11.43
        return (1.0 / (x - 1.0) + 1.0 / (2.0 * q)) * math.pow(q, 1.0 - x)
    # Euler-Maclaurin summation
    s = math.pow(q, -x)
    a = q
    i = 0
    b = 0.0
    while i < 9 or a <= 9.0:
        i += 1
        a += 1.0
        b = math.pow(a, -x)
        s += b
        if s != 0.0 and abs(b / s) < _MACHEP:  # C's 0/0 is NaN: no exit
            return s
    w = a
    s += b * w / (x - 1.0)
    s -= 0.5 * b
    a = 1.0
    k = 0.0
    for coeff in _ZETA_A:
        a *= x + k
        b /= w
        t = a * b / coeff
        s = s + t
        if s != 0.0 and abs(t / s) < _MACHEP:
            return s
        k += 1.0
        a *= x + k
        b /= w
        k += 1.0
    return s


# cephes ndtri.c: rational fits for |y - 1/2| <= 3/8 (P0/Q0) and, with
# z = sqrt(-2 log y), for z in [2, 8) (P1/Q1) and [8, 64) (P2/Q2)
_S2PI = 2.50662827463100050242
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)
_EXP_M2 = 0.13533528323661269189  # exp(-2)


def _polevl(x: float, coef: tuple) -> float:
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x: float, coef: tuple) -> float:
    """_polevl with a leading coefficient 1 that coef leaves out."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def ndtri(y0: float) -> float:
    """Inverse of the standard normal CDF (cephes ndtri)."""
    if y0 == 0.0:
        return -math.inf
    if y0 == 1.0:
        return math.inf
    if not 0.0 < y0 < 1.0:
        raise ValueError(f"ndtri needs 0 <= y <= 1, got {y0}")
    negate = True
    y = y0
    if y > 1.0 - _EXP_M2:
        y = 1.0 - y
        negate = False
    if y > _EXP_M2:
        y = y - 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _P0) / _p1evl(y2, _Q0))
        return x * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:
        x1 = z * _polevl(z, _P1) / _p1evl(z, _Q1)
    else:
        x1 = z * _polevl(z, _P2) / _p1evl(z, _Q2)
    x = x0 - x1
    return -x if negate else x


def _gauss_rule(m: int, alpha: float = 0.0, beta: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Nodes t (ascending) and weights w with int_{-1}^1 (1-t)^alpha (1+t)^beta f(t) dt ~ sum w f(t).

    Needs alpha, beta > -1 and alpha + beta > -1.  The Jacobi matrix of the
    orthonormal Jacobi polynomials gives the nodes (numpy.linalg.eigvalsh);
    one Newton step on p_m by the three-term recurrence, vectorised over the
    nodes, polishes them, and the weights are 1 / (p_{m-1} p_m') at the
    polished nodes, scaled so that they sum to
    mu0 = 2^(alpha+beta+1) B(alpha+1, beta+1).  A second Newton step brought
    no node closer to 34-digit values; weights taken before the step were up
    to five times further from them.  A symmetric weight
    (alpha == beta) gets symmetric nodes and weights.
    """
    if m < 1:
        raise ValueError(f"a Gauss rule needs m >= 1 nodes, got {m}")
    ab = alpha + beta
    k = np.arange(1.0, m)
    s = 2.0 * k + ab
    diag = np.empty(m)
    diag[0] = (beta - alpha) / (ab + 2.0)
    diag[1:] = (beta * beta - alpha * alpha) / (s * (s + 2.0))
    off = np.sqrt(4.0 * k * (k + alpha) * (k + beta) * (k + ab) / (s * s * (s + 1.0) * (s - 1.0)))
    t = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    steps = list(zip(diag.tolist(), [*off.tolist(), 1.0]))

    def recurrence(t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # rows (p_k, p_k') of the orthonormal polynomials from p_0 = 1, up to
        # b_m p_m; returns (b_m p_m, b_m p_m', p_{m-1})
        prev, cur = np.zeros((2, m)), np.zeros((2, m))
        cur[0] = 1.0
        b_prev = 0.0
        for d, b in steps:
            nxt = (t - d) * cur - b_prev * prev
            nxt[1] += cur[0]
            nxt /= b
            prev, cur, b_prev = cur, nxt, b
        return cur[0], cur[1], prev[0]

    p, dp, _ = recurrence(t)
    t = t - p / dp
    _, dp, pm1 = recurrence(t)
    w = 1.0 / (pm1 * dp)
    if alpha == beta:
        t = (t - t[::-1]) / 2.0
        w = (w + w[::-1]) / 2.0
    mu0 = 2.0 ** (ab + 1.0) * math.gamma(alpha + 1.0) * math.gamma(beta + 1.0) / math.gamma(ab + 2.0)
    return t, w * (mu0 / w.sum())


def betainc(a: float, b: float, x):
    """Regularized incomplete beta I_x(a, b) for a > 0, 0 < b <= 1 and 0 < x <= 1/2, elementwise in x.

    I_x(a,b) = x^a (1-x)^b / (a B(a,b)) * sum_{n>=0} (a+b)_n / (a+1)_n x^n
    (DLMF 8.17.8 with 2F1(a+b, 1; a+1; x)).  Every term is positive, and
    with b <= 1 each is at most x times the one before, so the first N
    terms with x^N <= eps/8 leave out less than eps/4 of the sum.
    """
    x = np.asarray(x, dtype=np.float64)
    if not (a > 0 and 0 < b <= 1 and np.all((x > 0) & (x <= 0.5))):
        raise ValueError("betainc needs a > 0, 0 < b <= 1 and 0 < x <= 1/2")
    n = np.arange(max(1, math.ceil(math.log(_MACHEP / 4.0) / math.log(float(x.max())))))
    terms = np.cumprod((a + b + n) / (a + 1.0 + n) * x[..., None], axis=-1)
    beta_ab = math.gamma(a) * math.gamma(b) / math.gamma(a + b)
    return x**a * (1.0 - x) ** b / (a * beta_ab) * (1.0 + terms.sum(axis=-1))
