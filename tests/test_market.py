"""Tree nodes, arbitrage classification, exact censuses, reach."""

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fracbin import (
    CapExceededError,
    DriftSpec,
    HurstParams,
    MarketSpec,
    NodeId,
    census,
    coefficient_table,
    is_arbitrage,
    monotone_reach,
)
from fracbin import market
from fracbin.cli import EXIT_CAP, main
from fracbin.coefficients import DEFAULT_QUAD, WeightBrackets, coefficient_tables
from fracbin.market import ZERO_DRIFT, arbitrage_event, level_sign_values
from fracbin.verify import gray_level_counts, naive_level_values

# exact zero-drift census at H = 0.75, sigma = 1, N = 20 (frozen after the
# doubling / naive / Gray-walk routes agreed level by level)
CENSUS_075_20 = (0, 0, 0, 0, 2, 2, 2, 8, 14, 26, 64, 102, 246, 450, 936, 1868,
                 3730, 7504, 15110, 30172)
CENSUS_075_20_PATHS = 179714

# oracle-summed scaled weights j1 + j2 - j3 + j4 at level 5, H = 0.75
NODE_GOLDEN_SCALED = 0.4905606925282876


def test_drift_parse_roundtrip():
    for text in ("zero", "const:0.25", "poly:0.1,-0.3,2.0"):
        d = DriftSpec.parse(text)
        assert DriftSpec.parse(d.to_text()) == d
    with pytest.raises(ValueError):
        DriftSpec.parse("linear:1")
    with pytest.raises(ValueError):
        DriftSpec("constant", (1.0, 2.0))


@given(st.lists(st.floats(-2, 2), min_size=1, max_size=4), st.integers(1, 40))
@settings(max_examples=30, deadline=None)
def test_drift_step_bound(coeffs, N):
    d = DriftSpec("polynomial", tuple(coeffs))
    sup = float(np.max(np.abs(d.value(np.linspace(0.0, 1.0, 10**4 + 1)))))
    for n in range(1, N + 1):
        assert abs(d.step_drift(n, N)) <= sup / N + 1e-12


def test_drift_offset_scaled():
    d = DriftSpec("constant", (0.5,))
    H = 0.8
    assert d.offset_scaled(3, 16, H) == pytest.approx(0.5 / 16 * 16**H)
    assert ZERO_DRIFT.offset_scaled(3, 16, H) == 0.0


@given(st.lists(st.sampled_from([-1, 1]), max_size=12))
@settings(max_examples=40, deadline=None)
def test_node_roundtrip(signs):
    node = NodeId.from_signs(signs)
    assert node.level == len(signs) + 1
    assert list(node.sign_tuple()) == signs
    comp = node.complement()
    assert [a * -1 for a in signs] == list(comp.sign_tuple())


def test_node_validation():
    with pytest.raises(ValueError):
        NodeId(level=2, signs=2)
    with pytest.raises(ValueError):
        NodeId.from_signs([1, 0])


def test_root_node_sum_is_zero_and_not_arbitrage(p075):
    t1 = coefficient_table(p075, 1)
    assert market._node_sum(NodeId(1).sign_tuple(), t1.j) == 0.0
    assert not is_arbitrage(MarketSpec(N=16, params=p075), NodeId(1), t1)


def test_node_sum_complement_negates(p075):
    # round to nearest is symmetric, so the complement's canonical sum is the
    # exact negation
    j = coefficient_table(p075, 9).j
    for word in range(1 << 8):
        node = NodeId(9, word)
        y = market._node_sum(node.sign_tuple(), j)
        assert market._node_sum(node.complement().sign_tuple(), j) == -y


def test_node_sum_golden(p075):
    node = NodeId(level=5, signs=0b1011)
    y = market._node_sum(node.sign_tuple(), coefficient_table(p075, 5).j)
    assert y == pytest.approx(NODE_GOLDEN_SCALED, rel=1e-11)


def test_node_table_mismatch(p075):
    spec = MarketSpec(N=16, params=p075)
    with pytest.raises(ValueError):
        is_arbitrage(spec, NodeId(3), coefficient_table(p075, 5))


def test_is_arbitrage_symmetry(p09):
    spec = MarketSpec(N=10, params=p09)
    t = coefficient_table(p09, 6)
    for word in (0, 7, 21, 31):
        node = NodeId(6, word)
        assert is_arbitrage(spec, node, t) == is_arbitrage(spec, node.complement(), t)


def test_census_golden(p075):
    c = census(MarketSpec(N=20, params=p075))
    assert c.per_level_counts == CENSUS_075_20
    assert c.total == sum(CENSUS_075_20)
    assert c.path_count == CENSUS_075_20_PATHS
    assert c.per_level_counts[0] == 0
    assert all(cnt % 2 == 0 for cnt in c.per_level_counts[1:])
    for n, (cnt, prop) in enumerate(zip(c.per_level_counts, c.per_level_proportions), 1):
        assert prop == cnt / 2 ** (n - 1)
    assert sum(c.boundary_uncertain) == 0


def test_census_matches_naive_and_gray(p075, p09):
    for params in (p075, p09):
        c = census(MarketSpec(N=14, params=params))
        for n in range(1, 15):
            t = coefficient_table(params, n)
            vals = level_sign_values(t.j)
            naive = naive_level_values(t.j)
            assert np.array_equal(vals, naive)
            arb = (naive + t.g <= 0.0) | (naive - t.g >= 0.0)
            assert int(np.count_nonzero(arb)) == c.per_level_counts[n - 1]
            assert gray_level_counts(t.j, t.g, 0.0) == c.per_level_counts[n - 1]


def test_census_small_h_is_empty(p06):
    c = census(MarketSpec(N=20, params=p06))
    assert c.total == 0 and c.path_count == 0


def test_census_path_count_bounds(p075):
    N = 16
    c = census(MarketSpec(N=N, params=p075))
    lower = max(cnt * 2 ** (N - n) for n, cnt in enumerate(c.per_level_counts, 1))
    upper = sum(cnt * 2 ** (N - n) for n, cnt in enumerate(c.per_level_counts, 1))
    assert lower <= c.path_count <= upper
    assert c.path_count <= 2 ** (N - 1)
    assert c.path_proportion == c.path_count / 2 ** (N - 1)


def test_census_with_drift_breaks_symmetry(p075):
    drift = DriftSpec("constant", (4.0,))
    c0 = census(MarketSpec(N=12, params=p075))
    c1 = census(MarketSpec(N=12, params=p075, drift=drift))
    assert c1.per_level_counts != c0.per_level_counts
    # drifted level proportion equals a direct recount with the offset
    n = 9
    t = coefficient_table(p075, n)
    o = drift.offset_scaled(n, 12, 0.75)
    vals = naive_level_values(t.j)
    cnt = int(np.count_nonzero((vals + t.g <= -o) | (vals - t.g >= -o)))
    assert c1.per_level_counts[n - 1] == cnt


def test_census_cap(p075):
    with pytest.raises(CapExceededError):
        census(MarketSpec(N=30, params=p075))
    census(MarketSpec(N=8, params=p075), cap=8)


def test_census_budget_fails_before_allocating(p075, tmp_path, monkeypatch):
    # a 2^39-byte path mask: the check must come before any table or level is
    # built, so a census that starts enumerating fails here instead
    def no_tables(*args):
        raise AssertionError("census built a table before its budget check")

    monkeypatch.setattr(market, "coefficient_table", no_tables)
    monkeypatch.setattr(market, "coefficient_tables", no_tables)
    with pytest.raises(CapExceededError, match="budget"):
        census(MarketSpec(N=40, params=p075), cap=40)
    for command in ("census", "paths"):
        out = tmp_path / f"{command}.json"
        assert main([command, "--N", "40", "--cap", "40", "--out", str(out)]) == EXIT_CAP
        assert not out.exists()


@pytest.mark.parametrize("drift", [ZERO_DRIFT, DriftSpec("constant", (0.3,))],
                         ids=lambda d: d.to_text())
def test_census_budget_boundary(p075, monkeypatch, drift):
    # N = 12 needs two 2^10-bit half masks of 128 bytes each, N = 13 two of 256;
    # both are counted at either drift, though zero drift keeps one
    monkeypatch.setattr(market, "_MASK_BUDGET_BYTES", 256)
    spec = MarketSpec(N=12, params=p075, drift=drift)
    assert census(spec).path_count == _doubling_census(spec)["path_count"]
    with pytest.raises(CapExceededError, match="needs 512 bytes of packed path masks, "
                                               "above the 256-byte budget"):
        census(MarketSpec(N=13, params=p075, drift=drift))


def _doubling_census(spec, sums=level_sign_values):
    """The whole-level index-doubling census, kept as the oracle for census()."""
    counts, props, uncertain = [], [], []
    alive = np.ones(1, dtype=bool)
    for n in range(1, spec.N + 1):
        table = coefficient_table(spec.params, n)
        y = sums(table.j)
        o = spec.drift.offset_scaled(n, spec.N, spec.params.H)
        arb = (y + table.g <= -o) | (y - table.g >= -o)
        margin = np.abs(np.abs(y + o) - table.g)
        tol = market._level_tolerance(table, o)
        cnt = int(np.count_nonzero(arb))
        counts.append(cnt)
        props.append(cnt / 2 ** (n - 1))
        uncertain.append(int(np.count_nonzero(margin <= tol)))
        alive &= ~arb
        if n < spec.N:
            alive = np.concatenate([alive, alive])
    return dict(N=spec.N, per_level_counts=tuple(counts), per_level_proportions=tuple(props),
                total=sum(counts), path_count=2 ** (spec.N - 1) - int(np.count_nonzero(alive)),
                boundary_uncertain=tuple(uncertain))


_DRIFTS = (ZERO_DRIFT, DriftSpec("constant", (1.5,)), DriftSpec("polynomial", (0.5, -3.0, 2.0)))


def _assert_census_fields_equal(spec):
    got, want = census(spec), _doubling_census(spec)
    assert {name: getattr(got, name) for name in want} == want


@pytest.mark.parametrize("block_bits", [3, 5])
def test_blocked_census_equals_doubling_census(block_bits, monkeypatch, p075, p09):
    monkeypatch.setattr(market, "_BLOCK_BITS", block_bits)
    for params in (p075, p09):
        for drift in _DRIFTS:
            for N in (*range(1, 13), 16, 17, 18):
                _assert_census_fields_equal(MarketSpec(N=N, params=params, drift=drift))


# a(t) = t - 1/2 has a root at n = N/2: offsets exactly zero there, nonzero elsewhere
_MIRROR_DRIFTS = (ZERO_DRIFT, DriftSpec("constant", (0.3,)), DriftSpec("constant", (-0.0,)),
                  DriftSpec("polynomial", (-0.5, 1.0)))


@pytest.mark.parametrize("band", [None, 0.05], ids=["tol", "wide"])
@pytest.mark.parametrize("drift", _MIRROR_DRIFTS, ids=lambda d: d.to_text())
def test_census_equals_a_naive_full_tree_census(drift, band, monkeypatch, p075, p09):
    # the census walks half of each level and mirrors the rest; the oracle
    # sums every word of the whole level naively and keeps a whole path mask.
    # A wide band puts words in boundary_uncertain, which is mirrored too.
    if band is not None:
        monkeypatch.setattr(market, "_level_tolerance", lambda table, offset: band)
    for params in (p075, p09):
        for N in range(1, 13):
            spec = MarketSpec(N=N, params=params, drift=drift)
            got, want = census(spec), _doubling_census(spec, sums=naive_level_values)
            assert {name: getattr(got, name) for name in want} == want


def test_blocked_census_equals_doubling_census_in_a_wide_band(monkeypatch, p075):
    monkeypatch.setattr(market, "_BLOCK_BITS", 3)
    monkeypatch.setattr(market, "_level_tolerance", lambda table, offset: 0.05)
    spec = MarketSpec(N=14, params=p075, drift=DriftSpec("constant", (0.7,)))
    assert sum(census(spec).boundary_uncertain) > 0
    _assert_census_fields_equal(spec)


def _doubling_level(j, g, o, tol, alive):
    """One level of _doubling_census on given weights: (count, uncertain, new alive)."""
    with np.errstate(over="ignore", invalid="ignore"):
        y = level_sign_values(j)
        arb = (y + g <= -o) | (y - g >= -o)
        margin = np.abs(np.abs(y + o) - g)
    parent = alive[:max(len(y) // 2, 1)]
    new = (np.concatenate([parent, parent]) if len(j) else parent) & ~arb
    return int(np.count_nonzero(arb)), int(np.count_nonzero(margin <= tol)), new


def _concatenated_sign_values(j):
    # reference route: a fresh array per weight, V -> [V - j_m, V + j_m]
    v = np.zeros(1)
    for w in j:
        v = np.concatenate([v - w, v + w])
    return v


@pytest.mark.parametrize("scale", [1.0, 1e308], ids=["unit", "huge"])
@pytest.mark.parametrize("m", range(21))
def test_sign_values_equal_the_concatenation_route(m, scale):
    # in-place doubling does the concatenation's float operations in its
    # order, bit for bit; near 1e308 sums overflow to +-inf and inf - inf
    # gives NaN, whose bits must agree too
    j = scale * np.random.default_rng(m).uniform(0.9, 1.7, m)
    with np.errstate(over="ignore", invalid="ignore"):
        got, want = level_sign_values(j), _concatenated_sign_values(j)
        if scale > 1 and m >= 2:
            assert not np.isfinite(want).all()
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("scale", [1.0, 1e308], ids=["unit", "huge"])
@pytest.mark.parametrize("m", range(1, 21))
def test_sign_values_from_a_start_equal_the_words_with_xi1_minus(m, scale):
    # seeding at -j_1 and doubling over j_2.. gives the even words of the
    # whole level (xi_1 = -1) bit for bit, sums that overflow to +-inf included
    j = scale * np.random.default_rng(m).uniform(0.9, 1.7, m)
    with np.errstate(over="ignore", invalid="ignore"):
        got, want = level_sign_values(j[1:], start=-j[0]), level_sign_values(j)[0::2]
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


# weights from subnormal to huge: sums may overflow to +-inf
_WEIGHTS = st.one_of(st.floats(1e-3, 10.0), st.floats(5e-324, 1e-300), st.floats(1e300, 1e308))


@given(j=st.lists(_WEIGHTS, max_size=9).map(np.array), data=st.data())
@settings(max_examples=200, deadline=None)
def test_node_sum_equals_index_doubling(j, data):
    word = data.draw(st.integers(0, 2 ** len(j) - 1))
    signs = [1 if (word >> i) & 1 else -1 for i in range(len(j))]
    with np.errstate(over="ignore"):
        got = market._node_sum(signs, j)
        want = level_sign_values(j)[word]
    assert np.float64(got).tobytes() == want.tobytes()


@st.composite
def _levels(draw):
    """(j, g, o, tol, alive) with, most of the time, one word exactly on an edge."""
    j = np.array(draw(st.lists(_WEIGHTS, max_size=9)))
    g = draw(st.one_of(_WEIGHTS, st.just(np.inf)))
    o = draw(st.floats(-20.0, 20.0))
    tol = draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.just(np.inf)))
    edge = draw(st.sampled_from(["none", "low", "high", "band", "meet"]))
    with np.errstate(over="ignore", invalid="ignore"):
        y = float(level_sign_values(j)[draw(st.integers(0, 2 ** len(j) - 1))])
        if edge == "low":  # fl(y + g) == -o
            o = -(y + g)
        elif edge == "high":  # fl(y - g) == -o
            o = -(y - g)
        elif edge == "band":  # |fl(|y + o| - g)| == tol
            tol = abs(abs(y + o) - g)
        elif edge == "meet":  # tol >= g: the two halves of the band meet at z = 0
            tol = g * draw(st.floats(1.0, 3.0))
    if not np.isfinite(o):
        o = 0.0
    if tol != tol:
        tol = 0.0
    alive = np.array(draw(st.lists(st.booleans(), min_size=2 ** len(j), max_size=2 ** len(j))))
    return j, g, o, tol, alive


def _packed(alive):
    """A bool mask as _census_level takes it: one bit per word, bit w % 8 of byte w // 8."""
    return np.packbits(alive, bitorder="little")


def _unpacked(bits, words):
    return np.unpackbits(bits, count=words, bitorder="little").view(bool)


@pytest.mark.parametrize("block_bits", [3, 5, 14])
@given(level=_levels())
@settings(max_examples=150, deadline=None)
def test_census_level_equals_whole_level_doubling(block_bits, level):
    j, g, o, tol, alive = level
    want_count, want_uncertain, want_alive = _doubling_level(j, g, o, tol, alive)
    bits = _packed(alive)
    with pytest.MonkeyPatch.context() as mp, np.errstate(over="ignore"):
        mp.setattr(market, "_BLOCK_BITS", block_bits)
        got = market._census_level(j, g, o, tol, bits)
    assert got == (want_count, want_uncertain)
    assert np.array_equal(_unpacked(bits, len(alive)), want_alive)
    assert not _unpacked(bits, 8 * len(bits))[len(alive):].any()  # the padding stays clear


@pytest.mark.parametrize("block_bits", [3, 5, 14])
@given(level=_levels(), zero=st.sampled_from([None, 0.0, -0.0]))
@settings(max_examples=150, deadline=None)
def test_half_level_and_its_mirror_equal_the_whole_level(block_bits, level, zero):
    # whole-level word 2k is walked word k (xi_1 = -1) and word 2^m - 1 - 2k
    # its complement; the parent level's words pair up the same way
    j, g, o, tol, alive = level
    assume(len(j) >= 1)
    if zero is not None:
        o = zero
    want_count, want_uncertain, want_alive = _doubling_level(j, g, o, tol, alive)
    parent = alive[:1 << (len(j) - 1)]
    # entries past the parent's are never read; they keep the drawn bits
    walked, mirror = alive[0::2].copy(), alive[1::2].copy()
    k = len(parent[0::2])
    walked[:k], mirror[:k] = parent[0::2], parent[::-1][0::2]
    walked_bits, mirror_bits, single_bits = _packed(walked), _packed(mirror), _packed(walked)
    with pytest.MonkeyPatch.context() as mp, np.errstate(over="ignore"):
        mp.setattr(market, "_BLOCK_BITS", block_bits)
        got = market._census_level(j[1:], g, o, tol, walked_bits, start=-j[0],
                                   mirror=mirror_bits)
        half = market._census_level(j[1:], g, o, tol, single_bits, start=-j[0])
    walked, mirror = _unpacked(walked_bits, len(walked)), _unpacked(mirror_bits, len(mirror))
    single = _unpacked(single_bits, len(walked))
    assert got == (want_count, want_uncertain)
    assert np.array_equal(walked, want_alive[0::2])
    assert np.array_equal(mirror, want_alive[::-1][0::2])
    assert np.array_equal(single, walked)
    if o == 0:  # a complement fares as its word, so the walked half counts twice
        assert (2 * half[0], 2 * half[1]) == got


def _neighbours(x):
    return (math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf))


@given(w=st.one_of(_WEIGHTS, _WEIGHTS.map(lambda x: -x)), g=st.one_of(_WEIGHTS, st.just(np.inf)),
       o=st.floats(-1e308, 1e308), tol=st.one_of(st.floats(0.0, 1e3), st.just(np.inf)),
       others=st.lists(st.floats(allow_nan=False), max_size=20))
@settings(max_examples=300, deadline=None)
def test_child_cuts_split_a_sorted_block_exactly(w, g, o, tol, others):
    # every cut, the doubles next to it and both infinities: a one-ulp error
    # in any cut changes the classification of one of these sums
    cuts = market._child_cuts(w, g, o, tol)
    near = [x for c in cuts if np.isfinite(c) for x in _neighbours(c)]
    s = np.unique(np.array(near + others + [-np.inf, np.inf, 0.0]))
    k1, k2, hi1, hi2, lo1, lo2 = np.searchsorted(s, cuts).tolist()
    with np.errstate(over="ignore", invalid="ignore"):
        y = s + w
        arb = (y + g <= -o) | (y - g >= -o)
        z = y + o
        band = np.abs(np.abs(z) - g) <= tol
    rank = np.arange(len(s))
    assert np.array_equal(arb, (rank < k1) | (rank >= max(k1, k2)))
    assert np.array_equal(band & (z >= 0), (rank >= hi1) & (rank < hi2))
    assert np.array_equal(band & (z < 0), (rank >= lo1) & (rank < lo2))


@given(w=st.one_of(_WEIGHTS, _WEIGHTS.map(lambda x: -x)), g=st.one_of(_WEIGHTS, st.just(np.inf)),
       o=st.floats(-1e308, 1e308), tol=st.one_of(st.floats(0.0, 1e3), st.just(np.inf)),
       others=st.lists(st.floats(allow_nan=False), max_size=20))
@settings(max_examples=300, deadline=None)
def test_mirror_cuts_split_a_sorted_block_like_the_child_at_minus_o(w, g, o, tol, others):
    # the reflected cuts of the child by w at o classify every sum s as the
    # child by -w at -o does; the two band ranges hold its band as a whole
    cuts = market._mirror_cuts(market._child_cuts(w, g, o, tol))
    near = [x for c in cuts + market._child_cuts(-w, g, -o, tol) if np.isfinite(c)
            for x in _neighbours(c)]
    s = np.unique(np.array(near + others + [-np.inf, np.inf, 0.0]))
    k1, k2, hi1, hi2, lo1, lo2 = np.searchsorted(s, cuts).tolist()
    with np.errstate(over="ignore", invalid="ignore"):
        y = s - w
        arb = (y + g <= o) | (y - g >= o)
        band = np.abs(np.abs(y - o) - g) <= tol
    rank = np.arange(len(s))
    assert np.array_equal(arb, (rank < k1) | (rank >= max(k1, k2)))
    assert np.array_equal(band, ((rank >= hi1) & (rank < hi2)) | ((rank >= lo1) & (rank < lo2)))
    assert max(hi2 - hi1, 0) + max(lo2 - lo1, 0) == np.count_nonzero(band)


@given(shift=st.floats(-1e308, 1e308), t=st.floats(allow_nan=False),
       guess=st.one_of(st.floats(), st.just(-0.0)))
@settings(max_examples=300, deadline=None)
def test_first_true_is_the_first_double_where_an_up_set_holds(shift, t, guess):
    for up in (lambda x: x >= t, lambda x: x + shift > t, lambda x: not x - shift <= t):
        cut = market._first_true(up, guess)
        if cut != cut:  # NaN: nowhere
            assert not up(math.inf)
        else:
            assert up(cut)
            assert cut == -math.inf or not up(math.nextafter(cut, -math.inf))


def test_census_never_materialises_a_level(p075):
    spec = MarketSpec(N=22, params=p075)
    for n in range(1, spec.N + 1):
        coefficient_table(p075, n)
    tracemalloc.start()
    try:
        census(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # half of one float per last-level word (2^21 words)
    assert peak < 8 * 2**20


def test_census_path_masks_take_one_bit_per_leaf(p075):
    # at N = 26 one byte per leaf would be 2^25 bytes in two half masks; one
    # bit per leaf is an eighth of that, so with the walk's own block buffers
    # (about 1.7 MiB here) the peak stays under a quarter, which an unpacked
    # copy of either half mask (2^24 bytes) would break.  At N = 22 those
    # buffers alone pass a quarter of the 2^21 unpacked bytes.
    spec = MarketSpec(N=26, params=p075, drift=DriftSpec("constant", (0.3,)))
    coefficient_tables(p075, range(1, spec.N + 1))
    tracemalloc.start()
    try:
        got = census(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** (spec.N - 1) // 4
    assert got.path_count == 15141319  # the one-byte-per-leaf census's count


def test_monotone_reach_goldens(p075, p09, p06):
    assert monotone_reach(p075, (-1, -1, -1, -1), 1, 10**4) == 10
    assert monotone_reach(p09, (), 1, 10**4) == 1
    m6 = monotone_reach(p06, (), 1, 10**4)
    assert m6 == 335


def test_monotone_reach_consistency(p075):
    prefix = (-1, -1, -1, -1)
    m = monotone_reach(p075, prefix, 1, 10**4)
    level = len(prefix) + 1 + m
    node = NodeId.from_signs(prefix + (1,) * m)
    spec = MarketSpec(N=level, params=p075)
    assert is_arbitrage(spec, node, coefficient_table(p075, level))
    # one step earlier must not be an arbitrage point (minimality)
    node_prev = NodeId.from_signs(prefix + (1,) * (m - 1))
    spec_prev = MarketSpec(N=level - 1, params=p075)
    assert not is_arbitrage(spec_prev, node_prev, coefficient_table(p075, level - 1))


def test_monotone_reach_agrees_with_is_arbitrage_on_a_rounding_tie(p075, monkeypatch):
    # one weight of 1 then weights of 1e-16: the left-to-right sum stays at
    # exactly -1, while numpy's pairwise sum of 8 or more of them drops below
    # -1 - 2 ulp; with g = 1 + 2 ulp and o = 0 the two sums fall on opposite
    # sides of -o - g, and reach must see the node that is_arbitrage sees
    import dataclasses

    weights = np.array([1.0] + [1e-16] * 11)
    g = math.nextafter(math.nextafter(1.0, 2.0), 2.0)
    real = coefficient_table(p075, 3)

    def crafted(params, n, cfg=None):
        return dataclasses.replace(real, n=n, j=weights[:n - 1].copy(),
                                   j_err=np.zeros(n - 1), g=g)

    monkeypatch.setattr(market, "coefficient_table", crafted)
    monkeypatch.setattr(market, "weight_brackets", _undecided_brackets)
    left_to_right = 0.0
    for w in weights[:8]:
        left_to_right -= w
    assert -float(np.sum(weights[:8])) + g < 0.0 <= left_to_right + g
    n_max = len(weights) - 1
    want = next((m for m in range(1, n_max + 1)
                 if is_arbitrage(MarketSpec(N=1 + m, params=p075), NodeId.from_signs((-1,) * m),
                                 crafted(p075, 1 + m))), None)
    assert monotone_reach(p075, (), -1, n_max) == want


def test_monotone_reach_down_symmetry(p075):
    prefix = (1, -1, 1)
    flipped = tuple(-s for s in prefix)
    assert monotone_reach(p075, prefix, -1, 10**3) == monotone_reach(p075, flipped, 1, 10**3)


@pytest.mark.parametrize("H, prefix, steps", [
    (0.75, "---++-+-", 8), (0.75, "+", 3), (0.9, "+-+", 1), (0.9, "", 1), (0.61, "+", 175)])
def test_monotone_reach_builds_at_most_twice_the_levels_it_uses(H, prefix, steps):
    # a table is built for exactly the levels up to the hit that the bracket
    # screen leaves undecided
    from fracbin.coefficients import _TABLE_CACHE, clear_table_cache

    clear_table_cache()
    signs = tuple(1 if c == "+" else -1 for c in prefix)
    assert monotone_reach(HurstParams(H), signs, 1, 300) == steps
    built = {key[2] for key in _TABLE_CACHE}
    clear_table_cache()
    k = len(prefix) + 1
    levels = np.arange(k + 1, k + steps + 1)
    decided = market._reach_screen(HurstParams(H), np.array(signs, dtype=float), 1, levels,
                                   ZERO_DRIFT, DEFAULT_QUAD)
    assert built == set(levels[decided < 0].tolist())


def _undecided_brackets(params, levels, columns=0):
    """weight_brackets with NaN bounds: the reach screen decides no level."""
    rows = np.full((len(levels), columns), np.nan)
    return WeightBrackets(rows, rows, *[np.full(len(levels), np.nan)] * 4)


_WALKS = [(tuple(1 if c == "+" else -1 for c in word), direction)
          for length in range(9) for word in map("".join, itertools.product("+-", repeat=length))
          for direction in (1, -1)]


def _table_route_reach(params, drifts, n_max):
    """monotone_reach with a table at every level, for all of _WALKS at once.

    Each walk's canonical sum at level L is the left-to-right
    np.add.accumulate of its signs times j_L, as in _node_sum.
    """
    plen = np.array([len(word) for word, _ in _WALKS])
    width = n_max + max(plen)
    signs = np.array([word + (d,) * (width - len(word)) for word, d in _WALKS], dtype=float)
    first = {drift: np.zeros(len(_WALKS), dtype=int) for drift in drifts}
    for table in coefficient_tables(params, range(2, width + 2)):
        level = table.n
        y = np.add.accumulate(signs[:, :level - 1] * table.j, axis=1)[:, -1]
        m = level - 1 - plen
        for drift, found in first.items():
            o = drift.offset_scaled(level, level, params.H)
            hit = arbitrage_event(y, table.g, o) & (m >= 1) & (m <= n_max) & (found == 0)
            found[hit] = m[hit]
    return {drift: [int(m) or None for m in found] for drift, found in first.items()}


@pytest.mark.parametrize("H", [0.51, 0.6, 0.75, 0.9])
def test_screened_reach_equals_the_table_route(H):
    # every prefix of up to 8 signs, both directions, three drifts; at
    # H = 0.51 no walk hits, at H = 0.6 the constant drift keeps half of them
    # from hitting, so both None and hits near the boundary are covered
    p = HurstParams(H)
    drifts = (ZERO_DRIFT, DriftSpec("constant", (0.5,)), DriftSpec("polynomial", (0.3, -2.0, 1.0)))
    want = _table_route_reach(p, drifts, 400)
    for drift in drifts:
        got = [monotone_reach(p, word, d, 400, drift) for word, d in _WALKS]
        assert got == want[drift], (H, drift)
    # the reference is monotone_reach's own table route, on the walks of up to 2 signs
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(market, "weight_brackets", _undecided_brackets)
        for drift in drifts:
            forced = [monotone_reach(p, word, d, 400, drift) for word, d in _WALKS[:14]]
            assert forced == want[drift][:14], (H, drift)


@pytest.mark.parametrize("drift", [ZERO_DRIFT, DriftSpec("polynomial", (0.2, -0.1, 0.05))])
def test_reach_screen_evaluates_the_drift_once_per_block(monkeypatch, drift):
    # a walk to 10^4 levels screens them in about a dozen doubling blocks;
    # a(1) is evaluated once per block, not once per level
    values, screens = [], []
    real_value, real_screen = DriftSpec.value, market._reach_screen

    def value(self, t):
        values.append(t)
        return real_value(self, t)

    def screen(*args):
        screens.append(args)
        return real_screen(*args)

    monkeypatch.setattr(DriftSpec, "value", value)
    monkeypatch.setattr(market, "_reach_screen", screen)
    assert monotone_reach(HurstParams(0.505), (1, -1), 1, 10**4, drift) is None
    assert values == [1.0] * len(screens) and len(screens) < 20


def test_reach_to_ten_thousand_levels_builds_no_table(monkeypatch):
    # the CLI default n_max; a table per level would be 10^4 tables (about
    # 35 s and 0.8 GB)
    def no_table(*args, **kwargs):
        raise AssertionError("reach built a coefficient table")

    monkeypatch.setattr(market, "coefficient_table", no_table)
    assert monotone_reach(HurstParams(0.51), (1, -1) * 4, 1, 10**4) is None


def test_monotone_reach_validation(p075):
    with pytest.raises(ValueError):
        monotone_reach(p075, (1, 2), 1, 10)
    with pytest.raises(ValueError):
        monotone_reach(p075, (), 0, 10)


def test_step_drift_rejects_a_non_finite_offset():
    # a(t) = 1e308 (1 + t) overflows at t = 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite offset"):
            DriftSpec.parse("poly:1e308,1e308").step_drift(4, 4)


def test_tables_vanish_near_memoryless_boundary():
    # as H -> 1/2+ all past weights vanish: the walk forgets its moves
    params = HurstParams(0.5 + 1e-7, sigma=0.05)
    for t in coefficient_tables(params, range(1, 9)):
        assert float(np.sum(np.abs(t.j))) < 1e-5


def test_market_spec_validation(p075):
    with pytest.raises(ValueError):
        MarketSpec(N=0, params=p075)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_drift_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        DriftSpec("constant", (bad,))
    with pytest.raises(ValueError, match="finite"):
        DriftSpec("polynomial", (0.1, bad))
    with pytest.raises(ValueError, match="finite"):
        DriftSpec.parse(f"poly:0.2,{bad}")
