"""The N-period binary market on its tree: nodes, censuses, reach.

A node at level n is a word of n-1 signs (the moves already made).  The
price moves by the factor S_n / S_{n-1} = 1 + a_n + X_n.  With the level
tables from :mod:`fracbin.coefficients`, the past contribution to X_n is
Y = N^{-H} * sum_i j_n(i) xi_i, the two candidate moves are
u = Y + N^{-H} g_n and d = Y - N^{-H} g_n, and a node is an arbitrage point
iff NOT (d < -a_n < u), i.e. u <= -a_n or d >= -a_n; S_0 cancels.
Everything here works in the scaled coordinates (curly-Y against g_n with
offset a_n N^H), which is the same condition multiplied through by N^H.

Enumeration convention (fixed so censuses are portable): sign words are
little-endian bit words, bit i-1 set <=> xi_i = +1, and the canonical float
value of a word is the left-to-right sequential sum (((+-j_1) +- j_2) ...).
Index doubling V -> [V - j_m, V + j_m] (level_sign_values, done in place by
_sign_sums) reproduces those sums bit-for-bit.  The census never holds a
whole level, and it walks only half of one: the words with xi_1 = -1, whose
sums start at fl(0 - j_1) = -j_1.  It writes each of them by its free signs
xi_2.. as high * 2^14 + low, doubles the low sums once, and walks the high
signs depth first, adding one weight per depth into a reused block, so each
entry is still the same left-to-right sum.  Round to nearest is symmetric,
so a word's complement has the negated sum at every prefix and is
classified by the same sums at the negated offset.  One float rule
classifies every node: arbitrage_event(y, g_n, o), fl(y + g) <= -o or
fl(y - g) >= -o, on the canonical sum y (_node_sum for one word);
is_arbitrage, monotone_reach and the finite-level estimates apply it, and
the census's cuts mirror it.  monotone_reach first screens its levels with
closed-form weight brackets (_reach_screen) and applies the rule only where
they cannot tell.

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
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .coefficients import (
    DEFAULT_QUAD,
    CoefficientTable,
    QuadratureConfig,
    coefficient_table,
    coefficient_tables,
    weight_brackets,
)
from .errors import CapExceededError
from .hurst import SCALE_MAX, HurstParams

__all__ = [
    "DriftSpec",
    "MarketSpec",
    "NodeId",
    "ArbitrageCensus",
    "is_arbitrage",
    "arbitrage_event",
    "census",
    "monotone_reach",
    "level_sign_values",
]

DEFAULT_ENUM_CAP = 26
# census levels are enumerated in blocks of 2^_BLOCK_BITS words (128 KiB of
# float sums, small enough to stay in cache through a block's classification);
# at least 3, so a block of a level past 8 words is whole bytes of a path mask
_BLOCK_BITS = 14
# the census's two packed half path masks take one bit per leaf in all,
# 2^(N-4) bytes; an N whose masks need more bytes than this fails fast
_MASK_BUDGET_BYTES = 1 << 30
# bytes of a packed mask counted at a time, so no count unpacks a whole mask
_POPCOUNT_PIECE = 1 << 16


@dataclass(frozen=True)
class DriftSpec:
    """Deterministic drift a(t) on [0,1]: zero, a constant, or a polynomial.

    The coefficients' sizes sum to at most SCALE_MAX, which bounds |a(t)| on
    [0, 1], so no offset a(t) N^{H-1} overflows.
    """

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
        if not sum(map(abs, self.coefficients)) <= SCALE_MAX:
            raise ValueError(f"drift coefficients must be finite, their sizes summing to at most "
                             f"{SCALE_MAX:g}, got {self.coefficients}")

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
        out = np.polynomial.polynomial.polyval(t, self.coefficients or (0.0,))
        return out if out.ndim else float(out)

    def step_drift(self, n: int, N: int) -> float:
        """a_n^{(N)} = a(n/N) / N, |a_n| <= max |a| / N."""
        return self.value(n / N) / N

    def offset_scaled(self, n: int, N: int, H: float) -> float:
        """a_n^{(N)} N^H, the scaled drift offset; finite, as |a_n N^H| <= |a(n/N)|."""
        return self.step_drift(n, N) * N**H

    def horizon_offsets(self, levels: Sequence[int], H: float) -> list[float]:
        """offset_scaled(L, L, H) at each level L, evaluating a(1) once.

        With the horizon N = L, L/N is 1.0 at every level, so each offset is
        (a(1) / L) L^H in offset_scaled's float operations.
        """
        a1 = self.value(1.0)
        return [a1 / L * L**H for L in levels]


ZERO_DRIFT = DriftSpec()


@dataclass(frozen=True)
class MarketSpec:
    """A full N-period market description."""

    N: int
    params: HurstParams
    drift: DriftSpec = ZERO_DRIFT

    def __post_init__(self) -> None:
        if self.N < 1:
            raise ValueError(f"N must be >= 1, got {self.N}")

    def to_dict(self) -> dict:
        return {
            "N": self.N,
            "H": self.params.H,
            "sigma": self.params.sigma,
            "drift": self.drift.to_text(),
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


def is_arbitrage(spec: MarketSpec, node: NodeId, table: CoefficientTable) -> bool:
    """u <= -a or d >= -a, evaluated in scaled coordinates (x N^H)."""
    if table.n != node.level:
        raise ValueError(f"table level {table.n} does not match node level {node.level}")
    o = spec.drift.offset_scaled(node.level, spec.N, spec.params.H)
    return bool(arbitrage_event(_node_sum(node.sign_tuple(), table.j), table.g, o))


def _sign_sums(w: np.ndarray, start: float = 0.0) -> np.ndarray:
    """v[..., idx] = ((start +- w[..., 0]) +- w[..., 1]) ..., bit i of idx the sign of w[..., i].

    One in-place doubling over the last axis of w: with the sums of the first
    i weights in v[..., :h], h = 2^i, weight i writes v[..., h:2h] =
    v[..., :h] + w_i and then v[..., :h] -= w_i, the float operations of
    V -> [V - w_i, V + w_i] in the same order.
    """
    # np.empty, not np.zeros: a calloc'd buffer is faulted in page by page
    # during the first strided doubling step, which measured slower
    v = np.empty(w.shape[:-1] + (1 << w.shape[-1],))
    v[..., :1] = start
    for i in range(w.shape[-1]):
        h, col = 1 << i, w[..., i:i + 1]
        np.add(v[..., :h], col, out=v[..., h:2 * h])
        v[..., :h] -= col
    return v


def level_sign_values(j: np.ndarray, start: float = 0.0) -> np.ndarray:
    """Scaled past sums of all 2^m words of the m weights j, doubling order.

    Index bit i-1 is xi_i; entry values equal the canonical sequential sums
    bit-for-bit, at O(1) amortized work per word.  A nonzero start seeds
    every sum: level_sign_values(j[1:], -j[0]) is level_sign_values(j)[0::2],
    the words with xi_1 = -1.
    """
    return _sign_sums(np.asarray(j), start)


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


def _mirror_cuts(cuts: list[float]) -> list[float]:
    """The cuts of the child by weight -w at offset -o, given cuts = _child_cuts(w, g, o, tol).

    Round to nearest is symmetric, fl(-x - c) = -fl(x + c), so the child by
    -w of a parent sum s is an arbitrage point, or in the band, at -o exactly
    when the child by w of -s is one at o: each of its ranges of s is the
    mirror image of a range here.  A cut c's test holds at t >= c, so it
    holds at t = -s exactly when s lies below the least double above -c; for
    c = -inf that bound is NaN (every sum lies below it), for c = NaN it is
    -inf.  The kept range [c0, c1) maps to [below(c1), below(c0)).  The two
    band halves map to two ranges that together hold the band; they are not
    its halves by the sign of z, which differ at z = 0, but the census only
    adds up their lengths.
    """
    def below(c: float) -> float:  # -s >= c exactly when s < below(c)
        return math.nan if c == -math.inf else -math.inf if c != c else math.nextafter(-c, math.inf)

    k0, k1, h0, h1, l0, l1 = map(below, cuts)
    return [k1, k0, h1, h0, l1, l0]


def _census_level(j: np.ndarray, g: float, o: float, tol: float, alive: np.ndarray,
                  start: float = 0.0, mirror: Optional[np.ndarray] = None) -> tuple[int, int]:
    """Classify every word (start +- j_1) +- ... +- j_m; update alive in place.

    Returns (arbitrage points, boundary-uncertain words).  A word of m signs is
    high * 2^b + low with b = min(m - 1, _BLOCK_BITS): the low sums come from
    level_sign_values(j[:b], start) and are sorted once, and a depth-first
    walk over the high signs j[b:m-1] adds one weight per depth into a reused
    2^b buffer, so every entry is the same left-to-right sum as index doubling.
    Round-to-nearest fl(x + c) is monotone in x, so each block of the walk
    stays sorted, and each child's classification is monotone in its parent
    sum s: arbitrage below one cut or from another on, and the two halves of
    the uncertainty band each between two cuts (_child_cuts).  The cuts are
    found once per level and child; np.searchsorted then classifies a whole
    block: a -inf cut (test true for every sum) has no entry below it and a
    NaN cut (true for none) has every entry below it.

    alive is a packed bit mask in word order (np.packbits, bitorder
    "little": word w is bit w % 8 of byte w // 8), and the level reads its
    first 2^(m-1) bits and writes its first 2^m.  A walk leaf holds the
    parent block of the last sign's two children, which share one block of
    2^b bits, 2^(b-3) bytes: the upper child's block (xi_m = +1) is written
    from it before the lower child's is updated in place.  A child keeps the
    words whose rank in the sorted block lies between its two arbitrage
    cuts: the whole block is copied, or cleared, or ANDed with that rank
    test packed to bits.  A level of at most 8 words (b < 3) lies in the
    first byte, which is unpacked to 8 bools, classified and packed back;
    its other bits keep their values.  With m = 0 the one word is start,
    its own only child, y = fl(start + 0).

    mirror, when given, is a second packed mask over the same word indices
    that holds each word's complement, all of whose sums are negated (round
    to nearest is symmetric, so fl(-x - c) = -fl(x + c) and fl(-y +- g) =
    -fl(y -+ g)).  The complement is an arbitrage point, or in the band, at
    offset o exactly when the word is one at -o, so the leaf classifies it
    by a second set of cuts for -o (_mirror_cuts), and both counts are
    returned together.
    """
    m = len(j)
    b = min(max(m - 1, 0), _BLOCK_BITS)
    low = level_sign_values(j[:b], start)
    size = len(low)
    order = np.argsort(low)
    # unsigned and at least 2 * size wide, so rank - k wraps past any range length
    rank = np.empty(size, dtype=np.min_scalar_type(2 * size - 1))
    rank[order] = np.arange(size)
    weights = (-float(j[m - 1]), float(j[m - 1])) if m else (0.0,)
    masks = (alive,) if mirror is None else (alive, mirror)
    cuts = [_child_cuts(w, float(g), float(o), float(tol)) for w in weights]
    if mirror is not None:  # the child by weight w at -o mirrors the child by -w at o
        cuts += [_mirror_cuts(c) for c in reversed(cuts)]
    cuts = np.array(cuts).ravel()
    half = 1 << max(m - 1, 0)
    # words per mask element: a level of at most 8 words is classified unpacked
    unit = 8 if size >= 8 else 1
    bits = masks if unit == 8 else [np.unpackbits(mk[:1], bitorder="little").view(bool)
                                     for mk in masks]
    shifted, keep = np.empty(size, dtype=rank.dtype), np.empty(size, dtype=bool)
    count = uncertain = 0

    def leaf(sums: np.ndarray, first: int) -> None:
        nonlocal count, uncertain
        pos = np.searchsorted(sums, cuts).tolist()
        lo, hi, width = first // unit, (half + first) // unit, size // unit
        for i, mask in enumerate(bits):
            lower = mask[lo:lo + width]
            for child in reversed(range(len(weights))):
                at = 6 * (i * len(weights) + child)
                k1, k2, hi1, hi2, lo1, lo2 = pos[at:at + 6]
                count += size - max(k2 - k1, 0)
                uncertain += max(hi2 - hi1, 0) + max(lo2 - lo1, 0)
                out = mask[hi:hi + width] if child else lower
                if k1 == 0 and k2 == size:
                    if child:
                        out[:] = lower
                elif k2 <= k1:
                    out[:] = 0
                else:  # keep ranks k1..k2-1; a window open at one end takes one pass
                    if k1 == 0:
                        np.less(rank, k2, out=keep)
                    elif k2 == size:
                        np.greater_equal(rank, k1, out=keep)
                    else:
                        np.less(np.subtract(rank, k1, out=shifted), k2 - k1, out=keep)
                    np.bitwise_and(lower, keep if unit == 1 else
                                   np.packbits(keep, bitorder="little"), out=out)

    high = j[b:m - 1]
    stack = [low[order]] + [np.empty(size) for _ in high]
    _walk_high_signs(stack, high, leaf)
    if unit == 1:
        for mk, unpacked in zip(masks, bits):
            mk[:1] = np.packbits(unpacked, bitorder="little")
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


def _popcount(mask: np.ndarray) -> int:
    """Set bits of a packed mask, unpacking _POPCOUNT_PIECE bytes at a time."""
    return sum(int(np.count_nonzero(np.unpackbits(mask[i:i + _POPCOUNT_PIECE])))
               for i in range(0, len(mask), _POPCOUNT_PIECE))


def census(spec: MarketSpec, cfg: QuadratureConfig = DEFAULT_QUAD,
           cap: int = DEFAULT_ENUM_CAP) -> ArbitrageCensus:
    """Exhaustive arbitrage census of all levels plus the path count.

    Each level n >= 2 walks only its words with xi_1 = -1, seeded at -j_1, in
    cache-sized blocks of 2^_BLOCK_BITS words by a depth-first walk over
    their high signs (see _census_level); the sums are bit-for-bit those of
    index doubling, so the counts equal a naive sweep.  Each walked word also
    classifies its complement, at the negated offset.  The root is its own
    complement and is classified once.  A path is counted as soon as any of
    its prefixes is an arbitrage point: one bit per leaf in two packed half
    masks of ceil(2^(N-2) / 8) bytes each, the first 2^(n-2) bits of alive
    marking the walked level-n nodes with no arbitrage prefix and those of
    mirror their complements, each level extending both in place.  The
    survivors are counted a fixed-size piece of each mask at a time.  When
    every level's offset is zero a complement is an arbitrage point exactly
    when its word is, so one mask is kept and the counts are doubled.  Ties
    within the combined quadrature + rounding tolerance are reported
    separately in boundary_uncertain, never silently reclassified.  N above
    cap, or two half masks of more than _MASK_BUDGET_BYTES in all (N >= 35,
    counted whether or not the mirror is kept), raise CapExceededError
    before anything is computed.
    """
    if spec.N > cap:
        raise CapExceededError(f"census N={spec.N} exceeds enumeration cap {cap}")
    leaves = 2 ** (spec.N - 1)
    words = max(leaves // 2, 1)
    mask_bytes = -(-words // 8)
    if 2 * mask_bytes > _MASK_BUDGET_BYTES:
        raise CapExceededError(f"census N={spec.N} needs {2 * mask_bytes} bytes of packed "
                               f"path masks, above the {_MASK_BUDGET_BYTES}-byte budget")
    offsets = [spec.drift.offset_scaled(n, spec.N, spec.params.H) for n in range(1, spec.N + 1)]
    tables = coefficient_tables(spec.params, range(1, spec.N + 1), cfg)
    counts, props, uncertain = [], [], []
    # alive holds the walked words (xi_1 = -1), mirror their complements;
    # with every offset zero a complement fares as its word, so alive counts twice
    alive = np.full(mask_bytes, 0xFF, dtype=np.uint8)
    alive[-1] >>= -words % 8  # the padding bits past the last word stay clear
    mirror = alive.copy() if any(offsets) else None
    for n, (o, table) in enumerate(zip(offsets, tables), 1):
        tol = _level_tolerance(table, o)
        if n == 1:  # the root is its own complement
            cnt, unc = _census_level(table.j, table.g, o, tol, alive)
            if mirror is not None:  # its first byte: bit 0 and bits still set in both
                mirror[:1] = alive[:1]
        else:
            cnt, unc = _census_level(table.j[1:], table.g, o, tol, alive,
                                     start=-table.j[0], mirror=mirror)
            if mirror is None:
                cnt, unc = 2 * cnt, 2 * unc
        counts.append(cnt)
        props.append(cnt / 2 ** (n - 1))
        uncertain.append(unc)
    survivors = _popcount(alive)
    if spec.N > 1:
        survivors += survivors if mirror is None else _popcount(mirror)
    return ArbitrageCensus(
        N=spec.N,
        per_level_counts=tuple(counts),
        per_level_proportions=tuple(props),
        total=sum(counts),
        path_count=leaves - survivors,
        boundary_uncertain=tuple(uncertain),
    )


# levels the reach screen brackets in its first block; each later block
# doubles, up to _SCREEN_ENTRIES levels x (prefix columns + 1)
_SCREEN_FIRST = 8
_SCREEN_ENTRIES = 1 << 16
_UNIT_ROUNDOFF = 2.0**-53


def _reach_screen(params: HurstParams, prefix: np.ndarray, direction: int, levels: np.ndarray,
                  drift: DriftSpec, cfg: QuadratureConfig) -> np.ndarray:
    """Per level of a monotone walk: 1 where its node surely is an arbitrage point, 0 where it
    surely is not, -1 where only its table can tell.

    The walk's node sum is y_L = sum_{i<=p} (s_i - d) j_L(i) + d sum_i j_L(i),
    p = len(prefix), d = direction, so weight_brackets' brackets of the p
    prefix columns, the full sum and g_L bracket y_L and g_L in real
    arithmetic.  "Surely" means for every table the quadrature ladder may
    accept and for the rounding of arbitrage_event on its canonical sum: both
    inequalities are cleared by a slack of
      * the table's quadrature error: each of its L-1 entries and g_L within
        max(abs_tol, rel_tol |entry|) of its value, at most
        L abs_tol + rel_tol/(1-rel_tol) (sum_hi + g_hi) in all;
      * 8 gamma_{L+1} (sum_hi + g_hi + |o| + that error), gamma_n =
        n u/(1 - n u): the left-to-right sum, y +- g and this screen's own
        sums.
    The brackets' evaluation error is already in their bounds.  The offset o
    is offset_scaled(L, L, H), a(1) evaluated once per call by
    horizon_offsets.  A tolerance so large that the slack overflows leaves
    the level undecided: an infinite slack clears no inequality.
    """
    br = weight_brackets(params, levels, len(prefix))
    c = prefix - direction  # 0 or +-2 per prefix column
    o = np.array(drift.horizon_offsets(levels.tolist(), params.H))
    with np.errstate(all="ignore"):
        y_lo = (np.minimum(c * br.j_lo, c * br.j_hi).sum(axis=1)
                + np.minimum(direction * br.sum_lo, direction * br.sum_hi))
        y_hi = (np.maximum(c * br.j_lo, c * br.j_hi).sum(axis=1)
                + np.maximum(direction * br.sum_lo, direction * br.sum_hi))
        rel = cfg.rel_tol / (1.0 - cfg.rel_tol) if cfg.rel_tol < 1.0 else math.inf
        quad = levels * cfg.abs_tol + rel * (br.sum_hi + br.g_hi)
        size = br.sum_hi + br.g_hi + np.abs(o) + quad
        n_u = (levels + 1.0) * _UNIT_ROUNDOFF
        slack = quad + 8.0 * n_u / (1.0 - n_u) * size
        sure = (y_hi + br.g_hi + slack < -o) | (y_lo - br.g_hi - slack > -o)
        never = (y_lo + br.g_lo - slack > -o) & (y_hi - br.g_lo + slack < -o)
    return np.where(sure, 1, np.where(never, 0, -1))


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

    Levels are screened in doubling blocks by _reach_screen, from closed-form
    weight brackets.  Only a level the screen leaves undecided builds its
    table and runs the test every classifier runs (arbitrage_event on the
    canonical sum), so the answer is the one a table at every level gives,
    and near H = 1/2 a walk to n_max = 1e4 builds no table at all.  A level
    the screen decides runs no quadrature, so a tolerance the ladder cannot
    meet fails only at an undecided level.
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
    m, block = 1, _SCREEN_FIRST
    while m <= n_max:
        levels = np.arange(k + m, k + min(m + block, n_max + 1))
        decided = _reach_screen(params, signs[:k - 1], direction, levels, drift, cfg)
        for t in np.flatnonzero(decided).tolist():
            level = k + m + t
            if decided[t] < 0:
                table = coefficient_table(params, level, cfg)
                o = drift.offset_scaled(level, level, params.H)
                if not arbitrage_event(_node_sum(signs[:level - 1], table.j), table.g, o):
                    continue
            return m + t
        m += len(levels)
        block = min(2 * block, max(1, _SCREEN_ENTRIES // k))
    return None
