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
is still the same left-to-right sum.  One float rule classifies every node:
arbitrage_event(y, g_n, o), fl(y + g) <= -o or fl(y - g) >= -o, on the
canonical sum y (_node_sum for one word); is_arbitrage, monotone_reach and
the finite-level estimates apply it, and the census's cuts mirror it.

Classification is by sorted blocks.  Round-to-nearest fl(x + c) is monotone
in x, so the low sums, sorted once per level, stay sorted through the walk,
and every test a word faces (u <= -a, d >= -a, the uncertainty band) holds
on a range of its parent's sum.  The ends of those ranges (cuts) are found
once per level on the ordered lattice of doubles with the same float
operations as the per-word test, so np.searchsorted classifies a block
exactly.  A cut is -inf when its test holds for every sum and NaN when it
holds for none, which np.searchsorted places after +inf.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .coefficients import (
    _BATCH_LEVELS,
    DEFAULT_QUAD,
    CoefficientTable,
    QuadratureConfig,
    coefficient_table,
    coefficient_tables,
)
from .errors import CapExceededError, QuadratureError
from .hurst import HurstParams

__all__ = [
    "DriftSpec",
    "MarketSpec",
    "NodeId",
    "ArbitrageCensus",
    "node_values",
    "is_arbitrage",
    "arbitrage_event",
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
        """a(t) by one polyval for every kind, zero drift as the coefficients (0.0,)."""
        with np.errstate(over="ignore", invalid="ignore"):
            out = np.polynomial.polynomial.polyval(t, self.coefficients or (0.0,))
        return out if out.ndim else float(out)

    def sup_norm(self) -> float:
        """max |a| over [0,1] on a 1e4-point grid (a grid maximum, not a bound)."""
        return float(np.max(np.abs(self.value(np.linspace(0.0, 1.0, 10**4 + 1)))))

    def step_drift(self, n: int, N: int) -> float:
        """a_n^{(N)} = a(n/N) / N, |a_n| <= sup_norm / N; ValueError if not finite."""
        a = self.value(n / N) / N
        if not math.isfinite(a):
            raise ValueError(f"drift {self.to_text()} gives a non-finite offset at level {n} "
                             f"of N={N}")
        return a

    def offset_scaled(self, n: int, N: int, H: float) -> float:
        """a_n^{(N)} N^H, the scaled drift offset; finite, as |a_n N^H| <= |a(n/N)|."""
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


def _node_sum(signs: Sequence[int], j: np.ndarray) -> float:
    """The canonical sum ((0.0 +- j_1) +- j_2) ... of a node's +-1 signs."""
    return float(np.add.accumulate(np.r_[0.0, np.multiply(signs, j[:len(signs)])])[-1])


def arbitrage_event(y, g, o, strict: bool = False):
    """u <= -a or d >= -a on floats or arrays; strict=True: u < -a or d > -a."""
    with np.errstate(over="ignore"):  # y +- g may overflow to +-inf, which compares as usual
        return ((y + g < -o) | (y - g > -o)) if strict else ((y + g <= -o) | (y - g >= -o))


def node_values(spec: MarketSpec, node: NodeId, table: CoefficientTable):
    """(y, u, d, a): past contribution, the two moves, and the step drift."""
    if table.n != node.level:
        raise ValueError(f"table level {table.n} does not match node level {node.level}")
    if node.level > spec.N:
        raise ValueError(f"node level {node.level} exceeds N={spec.N}")
    scale = spec.N ** (-spec.params.H)
    y = scale * _node_sum(node.sign_tuple(), table.j)
    g = scale * table.g
    return y, y + g, y - g, spec.drift.step_drift(node.level, spec.N)


def is_arbitrage(spec: MarketSpec, node: NodeId, table: CoefficientTable) -> bool:
    """u <= -a or d >= -a, evaluated in scaled coordinates (x N^H)."""
    if table.n != node.level:
        raise ValueError(f"table level {table.n} does not match node level {node.level}")
    o = spec.drift.offset_scaled(node.level, spec.N, spec.params.H)
    return bool(arbitrage_event(_node_sum(node.sign_tuple(), table.j), table.g, o))


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


def _finite_tolerance(table: CoefficientTable, offset: float, what: str = "level") -> float:
    """_level_tolerance, or ValueError when it is not finite.

    A finite tolerance bounds g_n and every sum |y| + g_n + |o| of the level,
    so no node value or test on it can overflow; an infinite one certifies
    nothing.
    """
    with np.errstate(over="ignore"):
        tol = _level_tolerance(table, offset)
    if not math.isfinite(tol):
        raise ValueError(f"{what} {table.n} has a non-finite boundary tolerance "
                         f"(sigma={table.params.sigma!r} is too large)")
    return tol


# the ordered lattice of doubles: _key gives a double's rank among all
# doubles (-0.0 and 0.0 share rank 0) and _value maps a rank back
_DOUBLE, _INT64 = struct.Struct("<d"), struct.Struct("<q")
_KEY_INF = 0x7FF0_0000_0000_0000  # the rank of +inf; _value(_KEY_INF + 1) is a NaN


def _key(x: float) -> int:
    bits = _INT64.unpack(_DOUBLE.pack(x))[0]
    return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)


def _value(k: int) -> float:
    x = _DOUBLE.unpack(_INT64.pack(abs(k)))[0]
    return -x if k < 0 else x


def _first_true(up, guess: float) -> float:
    """The least double x in [-inf, inf] at which the up-set predicate up holds.

    up must be monotone on the ordered doubles: false below some point, true
    from it on.  The search gallops from guess in steps of 1, 2, 4, ... ulps,
    then bisects the bracket on the lattice, so a guess k ulps off costs about
    2 log2(k) + 2 calls.  Returns -inf when up holds everywhere and NaN when
    it holds nowhere; np.searchsorted sorts NaN above +inf, so for a sorted
    array a, np.searchsorted(a, x) counts the entries at which up fails.
    """
    k = _key(guess if guess == guess else 0.0)
    step = 1
    if up(_value(k)):
        hi = k  # up holds at hi; gallop down until it fails
        while True:
            lo = hi - step
            if lo < -_KEY_INF or not up(_value(lo)):
                break
            hi, step = lo, 2 * step
        lo = max(lo, -_KEY_INF - 1)
    else:
        lo = k  # up fails at lo; gallop up until it holds
        while True:
            hi = lo + step
            if hi > _KEY_INF or up(_value(hi)):
                break
            lo, step = hi, 2 * step
        hi = min(hi, _KEY_INF + 1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if up(_value(mid)):
            hi = mid
        else:
            lo = mid
    return _value(hi)


def _child_cuts(w: float, g: float, o: float, tol: float) -> list[float]:
    """Six cuts on the parent sum s for the child whose sum is y = fl(s + w).

    Each cut is _first_true of an up-set in s, written with the float
    operations of the classification, z = fl(y + o).  Cuts 0 and 1 are
    arbitrage_event(y, g, o) on the lattice of doubles, one per disjunct:
      0: not fl(y + g) <= -o; below it the child is an arbitrage point;
      1: fl(y - g) >= -o; from it on the child is an arbitrage point;
      2: z >= 0 and not fl(z - g) < -tol, and 3: not fl(z - g) <= tol, so
         [2, 3) is the band |fl(|z| - g)| <= tol where z >= 0;
      4: fl(z + g) >= -tol, and 5: z >= 0 or fl(z + g) > tol, so [4, 5) is
         the band where z < 0, because there fl(|z| - g) = -fl(z + g).
    Where g is inf, inf - inf is NaN at s = +-inf; the negations sit where
    NaN must read as true for the set to stay an up-set.  The guesses are
    the same bounds in real arithmetic.
    """
    base = -o - w
    return [
        _first_true(lambda s: not s + w + g <= -o, base - g),
        _first_true(lambda s: s + w - g >= -o, base + g),
        _first_true(lambda s: (z := s + w + o) >= 0 and not z - g < -tol,
                    base + max(g - tol, 0.0)),
        _first_true(lambda s: not s + w + o - g <= tol, base + g + tol),
        _first_true(lambda s: s + w + o + g >= -tol, base - g - tol),
        _first_true(lambda s: (z := s + w + o) >= 0 or z + g > tol, base + min(tol - g, 0.0)),
    ]


def _census_level(j: np.ndarray, g: float, o: float, tol: float,
                  alive: np.ndarray) -> tuple[int, int]:
    """Classify every word of the level with weights j; update alive in place.

    Returns (arbitrage points, boundary-uncertain words).  A word of m signs is
    high * 2^b + low with b = min(m - 1, _BLOCK_BITS): the low sums come from
    level_sign_values(j[:b]) and are sorted once, and a depth-first walk over
    the high signs j[b:m-1] adds one weight per depth into a reused 2^b
    buffer, so every entry is the same left-to-right sum as index doubling.
    Round-to-nearest fl(x + c) is monotone in x, so each block of the walk
    stays sorted, and each child's classification is monotone in its parent
    sum s: arbitrage below one cut or from another on, and the two halves of
    the uncertainty band each between two cuts (_child_cuts).  The cuts are
    found once per level and child; np.searchsorted then classifies a whole
    block: a -inf cut (test true for every sum) has no entry below it and a
    NaN cut (true for none) has every entry below it.  A walk leaf holds the
    parent block of the last sign's two children, which share one block of
    alive[:2^(m-1)]: the upper child's block (xi_m = +1) is written from it
    before the lower child's is updated in place.  alive stays in word
    order; a child keeps the words whose rank in the sorted block lies
    between its two arbitrage cuts.  The root (m = 0) is its own only child,
    y = fl(0 + 0).
    """
    m = len(j)
    b = min(max(m - 1, 0), _BLOCK_BITS)
    low = level_sign_values(j[:b])
    size = len(low)
    order = np.argsort(low)
    # unsigned and at least 2 * size wide, so rank - k wraps past any range length
    rank = np.empty(size, dtype=np.min_scalar_type(2 * size - 1))
    rank[order] = np.arange(size)
    weights = (-float(j[m - 1]), float(j[m - 1])) if m else (0.0,)
    cuts = np.array([c for w in weights for c in _child_cuts(w, float(g), float(o), float(tol))])
    half = 1 << max(m - 1, 0)
    shifted, keep = np.empty(size, dtype=rank.dtype), np.empty(size, dtype=bool)
    count = uncertain = 0

    def leaf(sums: np.ndarray, start: int) -> None:
        nonlocal count, uncertain
        pos = np.searchsorted(sums, cuts).tolist()
        lower = alive[start:start + size]
        for child in reversed(range(len(weights))):
            k1, k2, hi1, hi2, lo1, lo2 = pos[6 * child:6 * child + 6]
            count += size - max(k2 - k1, 0)
            uncertain += max(hi2 - hi1, 0) + max(lo2 - lo1, 0)
            out = alive[half + start:half + start + size] if child else lower
            if k1 == 0 and k2 == size:
                if child:
                    out[:] = lower
            elif k2 <= k1:
                out[:] = False
            else:
                np.less(np.subtract(rank, k1, out=shifted), k2 - k1, out=keep)
                np.logical_and(lower, keep, out=out)

    high = j[b:m - 1]
    stack = [low[order]] + [np.empty(size) for _ in high]
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
    computed; a drift offset that is not finite at some level raises
    ValueError, also before any table or mask is built; so does, when it is
    reached, a level whose tolerance is not finite, which certifies nothing.
    """
    if spec.N > cap:
        raise CapExceededError(f"census N={spec.N} exceeds enumeration cap {cap}")
    leaves = 2 ** (spec.N - 1)
    if leaves > _MASK_BUDGET_BYTES:
        raise CapExceededError(f"census N={spec.N} needs a {leaves}-byte path mask, "
                               f"above the {_MASK_BUDGET_BYTES}-byte budget")
    offsets = [spec.drift.offset_scaled(n, spec.N, spec.params.H) for n in range(1, spec.N + 1)]
    tables = coefficient_tables(spec.params, range(1, spec.N + 1), cfg)
    counts, props, uncertain = [], [], []
    alive = np.ones(leaves, dtype=bool)
    for n, (o, table) in enumerate(zip(offsets, tables), 1):
        tol = _finite_tolerance(table, o, "census level")
        # a sum that overflows is +-inf, which the cuts order like any double
        with np.errstate(over="ignore"):
            cnt, unc = _census_level(table.j, table.g, o, tol, alive)
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
    is a genuine result even for large n_max.  Tables are built in doubling
    blocks (m = 1, 2..3, 4..7, ...) of at most _BATCH_LEVELS levels, so a hit
    at m builds fewer than min(2m, m + _BATCH_LEVELS) levels; a level whose
    sums can overflow raises ValueError.
    """
    if direction not in (-1, 1):
        raise ValueError("direction must be +1 or -1")
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    prefix = tuple(prefix)
    if any(s not in (-1, 1) for s in prefix):
        raise ValueError("prefix entries must be +-1")
    k = len(prefix) + 1
    signs = np.array(prefix + (direction,) * n_max, dtype=float)
    built = 0
    for m in range(1, n_max + 1):
        level = k + m
        if m > built:  # levels k+m..k+2m-1, no more than one batch of them
            built = min(2 * m - 1, m + _BATCH_LEVELS - 1, n_max)
            try:
                coefficient_tables(params, range(level, k + built + 1), cfg)
            except QuadratureError:
                pass  # the levels below the failing one are cached; the walk raises there
        table = coefficient_table(params, level, cfg)
        o = drift.offset_scaled(level, level, params.H)
        _finite_tolerance(table, o)
        if arbitrage_event(_node_sum(signs[:level - 1], table.j), table.g, o):
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
    Steps with a nonpositive multiplier are flagged, not raised; a price or
    step drift that is not finite raises ValueError.
    """
    signs = tuple(signs)
    if len(signs) not in (spec.N - 1, spec.N):
        raise ValueError(f"sign word length must be N-1 or N, got {len(signs)}")
    if any(s not in (-1, 1) for s in signs):
        raise ValueError("signs must be +-1")
    scale = spec.N ** (-spec.params.H)
    prices = [spec.s0]
    violations = []
    for n in range(1, len(signs) + 1):
        table = coefficient_table(spec.params, n, cfg)
        x = scale * (_node_sum(signs[:n - 1], table.j) + table.g * signs[n - 1])
        factor = 1.0 + spec.drift.step_drift(n, spec.N) + x
        if factor <= 0:
            violations.append(n)
        prices.append(prices[-1] * factor)
        if not math.isfinite(prices[-1]):
            raise ValueError(f"price S_{n} is not finite (factor {factor!r})")
    return StockPath(prices=np.asarray(prices), violations=tuple(violations))
