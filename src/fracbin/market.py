"""The N-period binary market on its tree: nodes, censuses, reach.

A node at level n is a word of n-1 signs (the moves already made).  With the
level tables from :mod:`fracbin.coefficients`, the past contribution to the
next multiplier is Y = N^{-H} * sum_i j_n(i) xi_i, the two candidate moves
are u = Y + N^{-H} g_n and d = Y - N^{-H} g_n, and a node is an arbitrage
point iff NOT (d < -a_n < u), i.e. u <= -a_n or d >= -a_n.  Everything here
works in the scaled coordinates (curly-Y against g_n with offset a_n N^H),
which is the same condition multiplied through by N^H.

Enumeration convention (fixed so censuses are portable): sign words are
little-endian bit words, bit i-1 set <=> xi_i = +1, and the canonical float
value of a word is the left-to-right sequential sum (((+-j_1) +- j_2) ...).
Index doubling V -> [V - j_m, V + j_m] (level_sign_values) reproduces those
sums bit-for-bit.  The census never holds a whole level: it writes each word
as high * 2^14 + low, doubles the low sums once, and walks the high signs
depth first, adding one weight per depth into a reused block, so each entry
is still the same left-to-right sum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .coefficients import DEFAULT_QUAD, CoefficientTable, QuadratureConfig, coefficient_table
from .errors import CapExceededError
from .hurst import HurstParams

__all__ = [
    "DriftSpec",
    "MarketSpec",
    "NodeId",
    "ArbitrageCensus",
    "node_values",
    "is_arbitrage",
    "census",
    "monotone_reach",
    "stock_path",
    "level_sign_values",
]

DEFAULT_ENUM_CAP = 26
# census levels are enumerated in blocks of 2^_BLOCK_BITS words (128 KiB of
# float sums, small enough to stay in cache through a block's classification)
_BLOCK_BITS = 14
# the census path mask takes one byte per leaf; larger N fail fast
_MASK_BUDGET_BYTES = 1 << 30


@dataclass(frozen=True)
class DriftSpec:
    """Deterministic drift a(t) on [0,1]: zero, a constant, or a polynomial."""

    kind: str = "zero"
    coefficients: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("zero", "constant", "polynomial"):
            raise ValueError(f"unknown drift kind {self.kind!r}")
        if self.kind == "zero" and self.coefficients:
            raise ValueError("zero drift takes no coefficients")
        if self.kind == "constant" and len(self.coefficients) != 1:
            raise ValueError("constant drift takes exactly one coefficient")
        if self.kind == "polynomial" and not self.coefficients:
            raise ValueError("polynomial drift needs at least one coefficient")
        if not np.all(np.isfinite(self.coefficients)):
            raise ValueError(f"drift coefficients must be finite, got {self.coefficients}")

    @classmethod
    def parse(cls, text: str) -> "DriftSpec":
        """Parse the CLI grammar: 'zero', 'const:c' or 'poly:c0,c1,...'."""
        text = text.strip()
        if text == "zero":
            return cls()
        if text.startswith("const:"):
            return cls("constant", (float(text[6:]),))
        if text.startswith("poly:"):
            return cls("polynomial", tuple(float(c) for c in text[5:].split(",")))
        raise ValueError(f"cannot parse drift {text!r} (zero | const:c | poly:c0,c1,...)")

    def to_text(self) -> str:
        if self.kind == "zero":
            return "zero"
        if self.kind == "constant":
            return f"const:{self.coefficients[0]!r}"
        return "poly:" + ",".join(repr(c) for c in self.coefficients)

    def value(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "zero":
            out = np.zeros_like(t)
        elif self.kind == "constant":
            out = np.full_like(t, self.coefficients[0])
        else:
            out = np.polynomial.polynomial.polyval(t, np.asarray(self.coefficients))
        return out if out.ndim else float(out)

    def sup_norm(self) -> float:
        """max |a| over [0,1] on a 1e4-point grid (a grid maximum, not a bound)."""
        if self.kind == "zero":
            return 0.0
        grid = float(np.max(np.abs(self.value(np.linspace(0.0, 1.0, 10**4 + 1)))))
        return grid

    def step_drift(self, n: int, N: int) -> float:
        """a_n^{(N)} = a(n/N) / N; satisfies |a_n| <= sup_norm / N."""
        if self.kind == "zero":
            return 0.0
        return float(self.value(n / N)) / N

    def offset_scaled(self, n: int, N: int, H: float) -> float:
        """a_n^{(N)} N^H, the drift offset in scaled curly-Y coordinates."""
        if self.kind == "zero":
            return 0.0
        return self.step_drift(n, N) * N**H


ZERO_DRIFT = DriftSpec()


@dataclass(frozen=True)
class MarketSpec:
    """A full N-period market description."""

    N: int
    params: HurstParams
    drift: DriftSpec = ZERO_DRIFT
    s0: float = 1.0

    def __post_init__(self) -> None:
        if self.N < 1:
            raise ValueError(f"N must be >= 1, got {self.N}")
        if not 0 < self.s0 < np.inf:
            raise ValueError(f"s0 must be positive and finite, got {self.s0}")

    def to_dict(self) -> dict:
        return {
            "N": self.N,
            "H": self.params.H,
            "sigma": self.params.sigma,
            "drift": self.drift.to_text(),
            "s0": self.s0,
        }


@dataclass(frozen=True)
class NodeId:
    """A tree node: level in [1, N] and a little-endian sign word of n-1 bits."""

    level: int
    signs: int = 0

    def __post_init__(self) -> None:
        if self.level < 1:
            raise ValueError("level must be >= 1")
        if not 0 <= self.signs < (1 << (self.level - 1)):
            raise ValueError(f"sign word {self.signs:#x} out of range for level {self.level}")

    @classmethod
    def from_signs(cls, signs: Sequence[int]) -> "NodeId":
        word = 0
        for pos, s in enumerate(signs):
            if s == 1:
                word |= 1 << pos
            elif s != -1:
                raise ValueError("signs must be +-1")
        return cls(level=len(signs) + 1, signs=word)

    def sign_tuple(self) -> tuple[int, ...]:
        return tuple(1 if (self.signs >> i) & 1 else -1 for i in range(self.level - 1))

    def complement(self) -> "NodeId":
        mask = (1 << (self.level - 1)) - 1
        return NodeId(self.level, self.signs ^ mask)


def _scaled_y(node: NodeId, table: CoefficientTable) -> float:
    """Canonical (left-to-right) scaled past sum for one node."""
    y = 0.0
    for i in range(node.level - 1):
        y = y + table.j[i] if (node.signs >> i) & 1 else y - table.j[i]
    return y


def node_values(spec: MarketSpec, node: NodeId, table: CoefficientTable):
    """(y, u, d, a): past contribution, the two moves, and the step drift."""
    if table.n != node.level:
        raise ValueError(f"table level {table.n} does not match node level {node.level}")
    if node.level > spec.N:
        raise ValueError(f"node level {node.level} exceeds N={spec.N}")
    scale = spec.N ** (-spec.params.H)
    y = scale * _scaled_y(node, table)
    g = scale * table.g
    return y, y + g, y - g, spec.drift.step_drift(node.level, spec.N)


def is_arbitrage(spec: MarketSpec, node: NodeId, table: CoefficientTable) -> bool:
    """u <= -a or d >= -a, evaluated in scaled coordinates (x N^H)."""
    if table.n != node.level:
        raise ValueError(f"table level {table.n} does not match node level {node.level}")
    y = _scaled_y(node, table)
    o = spec.drift.offset_scaled(node.level, spec.N, spec.params.H)
    return (y + table.g <= -o) or (y - table.g >= -o)


def level_sign_values(j: np.ndarray) -> np.ndarray:
    """Scaled past sums of all 2^m words of the m weights j, doubling order.

    Index bit i-1 is xi_i; entry values equal the canonical sequential sums
    bit-for-bit, at O(1) amortized work per word.
    """
    v = np.zeros(1)
    for w in j:
        v = np.concatenate([v - w, v + w])
    return v


@dataclass(frozen=True)
class ArbitrageCensus:
    """Exact per-level arbitrage-point counts and the arbitrage-path count."""

    N: int
    per_level_counts: tuple[int, ...]
    per_level_proportions: tuple[float, ...]
    total: int
    path_count: int
    boundary_uncertain: tuple[int, ...]

    @property
    def path_proportion(self) -> float:
        return self.path_count / 2 ** (self.N - 1)

    def to_dict(self, spec: Optional[MarketSpec] = None) -> dict:
        out = {}
        if spec is not None:
            out["spec"] = spec.to_dict()
        out.update(
            per_level_counts=list(self.per_level_counts),
            per_level_proportions=list(self.per_level_proportions),
            total=self.total,
            path_count=self.path_count,
            boundary_uncertain=list(self.boundary_uncertain),
        )
        return out


def _level_tolerance(table: CoefficientTable, offset: float) -> float:
    """Margin below which a classification is flagged boundary-uncertain."""
    quad = float(np.sum(table.j_err)) + table.g_err
    slop = 1e-13 * (float(np.sum(np.abs(table.j))) + table.g + abs(offset))
    return quad + slop


def _census_level(j: np.ndarray, g: float, o: float, tol: float,
                  alive: np.ndarray) -> tuple[int, int]:
    """Classify every word of the level with weights j; update alive in place.

    Returns (arbitrage points, boundary-uncertain words).  A word of m signs is
    high * 2^b + low with b = min(m - 1, _BLOCK_BITS): the low sums come from
    level_sign_values(j[:b]) and a depth-first walk over the high signs
    j[b:m-1] adds one weight per depth into a reused 2^b buffer, so every
    entry is the same left-to-right sum as index doubling.  A walk leaf holds
    the parent block of the last sign's two children, which share one block
    of alive[:2^(m-1)]: the upper child's block (xi_m = +1) is written from it
    before the lower child's is updated in place.
    """
    m = len(j)
    b = min(max(m - 1, 0), _BLOCK_BITS)
    size = 1 << b
    t, band = np.empty(size), np.empty(size, dtype=bool)
    count = uncertain = 0

    def classify(y: np.ndarray, arb: np.ndarray) -> None:
        # arb = (y + g <= -o) | (y - g >= -o), band = |(|y + o|) - g| <= tol
        nonlocal count, uncertain
        np.less_equal(np.add(y, g, out=t), -o, out=arb)
        np.greater_equal(np.subtract(y, g, out=t), -o, out=band)
        arb |= band
        np.abs(np.subtract(np.abs(np.add(y, o, out=t), out=t), g, out=t), out=t)
        np.less_equal(t, tol, out=band)
        count += int(np.count_nonzero(arb))
        uncertain += int(np.count_nonzero(band))

    if m == 0:
        arb = np.empty(1, dtype=bool)
        classify(level_sign_values(j), arb)
        alive[:1] &= ~arb
        return count, uncertain

    high, half = j[b:m - 1], 1 << (m - 1)
    stack = [level_sign_values(j[:b])] + [np.empty(size) for _ in high]
    y = np.empty(size)
    minus, plus = np.empty(size, dtype=bool), np.empty(size, dtype=bool)

    def leaf(sums: np.ndarray, start: int) -> None:
        classify(np.subtract(sums, j[m - 1], out=y), minus)
        classify(np.add(sums, j[m - 1], out=y), plus)
        lower, upper = alive[start:start + size], alive[half + start:half + start + size]
        np.logical_and(lower, np.logical_not(plus, out=plus), out=upper)
        lower &= np.logical_not(minus, out=minus)

    _walk_high_signs(stack, high, leaf)
    return count, uncertain


def _walk_high_signs(stack: list, high: np.ndarray, leaf, d: int = 0, start: int = 0) -> None:
    """Depth-first over the high signs: stack[d+1] = stack[d] -/+ high[d].

    stack[0] holds the low sums of one block; leaf(sums, start) receives each
    bottom block with the index of its first word.  Kept at module level: as a
    recursive closure it would be a reference cycle holding every level's
    buffers until the next garbage collection.
    """
    if d == len(high):
        leaf(stack[d], start)
        return
    np.subtract(stack[d], high[d], out=stack[d + 1])
    _walk_high_signs(stack, high, leaf, d + 1, start)
    np.add(stack[d], high[d], out=stack[d + 1])
    _walk_high_signs(stack, high, leaf, d + 1, start + (len(stack[0]) << d))


def census(spec: MarketSpec, cfg: QuadratureConfig = DEFAULT_QUAD,
           cap: int = DEFAULT_ENUM_CAP) -> ArbitrageCensus:
    """Exhaustive arbitrage census of all levels plus the path count.

    Each level is enumerated in cache-sized blocks of 2^_BLOCK_BITS words by a
    depth-first walk over its high signs (see _census_level); the sums are
    bit-for-bit those of index doubling, so the counts equal a naive sweep.
    A path is counted as soon as any of its prefixes is an arbitrage point:
    one byte per leaf, alive[:2^(n-1)] marks the level-n nodes with no
    arbitrage prefix and each level extends it in place.  Ties within the
    combined quadrature + rounding tolerance are reported separately in
    boundary_uncertain, never silently reclassified.  N above cap, or a path
    mask above _MASK_BUDGET_BYTES, raises CapExceededError before anything is
    computed.
    """
    if spec.N > cap:
        raise CapExceededError(f"census N={spec.N} exceeds enumeration cap {cap}")
    leaves = 2 ** (spec.N - 1)
    if leaves > _MASK_BUDGET_BYTES:
        raise CapExceededError(f"census N={spec.N} needs a {leaves}-byte path mask, "
                               f"above the {_MASK_BUDGET_BYTES}-byte budget")
    counts, props, uncertain = [], [], []
    alive = np.ones(leaves, dtype=bool)
    for n in range(1, spec.N + 1):
        table = coefficient_table(spec.params, n, cfg)
        o = spec.drift.offset_scaled(n, spec.N, spec.params.H)
        cnt, unc = _census_level(table.j, table.g, o, _level_tolerance(table, o), alive)
        counts.append(cnt)
        props.append(cnt / 2 ** (n - 1))
        uncertain.append(unc)
    return ArbitrageCensus(
        N=spec.N,
        per_level_counts=tuple(counts),
        per_level_proportions=tuple(props),
        total=sum(counts),
        path_count=leaves - int(np.count_nonzero(alive)),
        boundary_uncertain=tuple(uncertain),
    )


def monotone_reach(params: HurstParams, prefix: Sequence[int], direction: int,
                   n_max: int, drift: DriftSpec = ZERO_DRIFT,
                   cfg: QuadratureConfig = DEFAULT_QUAD) -> Optional[int]:
    """Smallest m <= n_max such that prefix + m repeated moves hits arbitrage.

    The condition at level L = len(prefix)+1+m uses the proof convention of a
    moving horizon N = L, so the drift offset is a(1) * L^{H-1}.  Absence
    within n_max is returned as None.  Existence is a theorem, but near
    H = 1/2 the gap closes very slowly (at H = 0.51, prefix +-+-+-+-, up,
    y - g_L only moves from -0.943 at L = 100 to -0.880 at L = 3e4), so None
    is a genuine result even for large n_max.
    """
    if direction not in (-1, 1):
        raise ValueError("direction must be +1 or -1")
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    prefix = tuple(prefix)
    if any(s not in (-1, 1) for s in prefix):
        raise ValueError("prefix entries must be +-1")
    k = len(prefix) + 1
    pref_arr = np.asarray(prefix, dtype=float)
    for m in range(1, n_max + 1):
        level = k + m
        table = coefficient_table(params, level, cfg)
        y = float(np.dot(pref_arr, table.j[: k - 1])) + direction * float(np.sum(table.j[k - 1 :]))
        o = drift.offset_scaled(level, level, params.H)
        if (y + table.g <= -o) or (y - table.g >= -o):
            return m
    return None


@dataclass(frozen=True)
class StockPath:
    """A price trajectory with any positivity violations flagged."""

    prices: np.ndarray
    violations: tuple[int, ...] = field(default_factory=tuple)


def stock_path(spec: MarketSpec, signs: Sequence[int],
               cfg: QuadratureConfig = DEFAULT_QUAD) -> StockPath:
    """Trajectory S_0..S_L for a sign word of length L (N-1 or N allowed).

    S_n = (1 + a_n + X_n) S_{n-1} with X_n = N^{-H}(curly-Y_n + g_n xi_n).
    Steps with a nonpositive multiplier are flagged, not raised.
    """
    signs = tuple(signs)
    if len(signs) not in (spec.N - 1, spec.N):
        raise ValueError(f"sign word length must be N-1 or N, got {len(signs)}")
    if any(s not in (-1, 1) for s in signs):
        raise ValueError("signs must be +-1")
    scale = spec.N ** (-spec.params.H)
    prices = [spec.s0]
    violations = []
    y_scaled = 0.0
    for n in range(1, len(signs) + 1):
        table = coefficient_table(spec.params, n, cfg)
        node = NodeId.from_signs(signs[: n - 1])
        y_scaled = _scaled_y(node, table)
        x = scale * (y_scaled + table.g * signs[n - 1])
        factor = 1.0 + spec.drift.step_drift(n, spec.N) + x
        if factor <= 0:
            violations.append(n)
        prices.append(prices[-1] * factor)
    return StockPath(prices=np.asarray(prices), violations=tuple(violations))
