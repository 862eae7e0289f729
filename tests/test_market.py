"""Tree nodes, arbitrage classification, exact censuses, reach, stock paths."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
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
    node_values,
    stock_path,
)
from fracbin import market
from fracbin.cli import EXIT_CAP, main
from fracbin.market import ZERO_DRIFT, level_sign_values
from fracbin.verify import gray_level_counts, naive_level_values

# exact zero-drift census at H = 0.75, sigma = 1, N = 20 (frozen after the
# doubling / naive / Gray-walk routes agreed level by level)
CENSUS_075_20 = (0, 0, 0, 0, 2, 2, 2, 8, 14, 26, 64, 102, 246, 450, 936, 1868,
                 3730, 7504, 15110, 30172)
CENSUS_075_20_PATHS = 179714

# oracle-summed weights: 16^{-0.75} * (j1 + j2 - j3 + j4) at level 5
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
    sup = d.sup_norm()
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


def test_node_values_root(p075):
    spec = MarketSpec(N=16, params=p075)
    t1 = coefficient_table(p075, 1)
    y, u, d, a = node_values(spec, NodeId(1), t1)
    assert y == 0.0 and a == 0.0
    assert u == pytest.approx(16**-0.75 * t1.g)
    assert d == -u
    assert not is_arbitrage(spec, NodeId(1), t1)


def test_node_values_sign_flip(p075):
    spec = MarketSpec(N=16, params=p075)
    t5 = coefficient_table(p075, 5)
    node = NodeId.from_signs([1, 1, -1, 1])
    y, u, d, _ = node_values(spec, node, t5)
    yc, uc, dc, _ = node_values(spec, node.complement(), t5)
    assert yc == pytest.approx(-y, rel=1e-15)
    assert uc == pytest.approx(-d, rel=1e-15)
    assert dc == pytest.approx(-u, rel=1e-15)


def test_node_values_golden(p075):
    spec = MarketSpec(N=16, params=p075)
    t5 = coefficient_table(p075, 5)
    node = NodeId(level=5, signs=0b1011)
    y, _, _, _ = node_values(spec, node, t5)
    assert y == pytest.approx(16**-0.75 * NODE_GOLDEN_SCALED, rel=1e-11)


def test_node_table_mismatch(p075):
    spec = MarketSpec(N=16, params=p075)
    with pytest.raises(ValueError):
        node_values(spec, NodeId(3), coefficient_table(p075, 5))
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


def _doubling_census(spec):
    """The whole-level index-doubling census, kept as the oracle for census()."""
    counts, props, uncertain = [], [], []
    alive = np.ones(1, dtype=bool)
    for n in range(1, spec.N + 1):
        table = coefficient_table(spec.params, n)
        y = level_sign_values(table.j)
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


@pytest.mark.parametrize("block_bits", [3, 5, 14])
@given(level=_levels())
@settings(max_examples=150, deadline=None)
def test_census_level_equals_whole_level_doubling(block_bits, level):
    j, g, o, tol, alive = level
    want_count, want_uncertain, want_alive = _doubling_level(j, g, o, tol, alive)
    with pytest.MonkeyPatch.context() as mp, np.errstate(over="ignore"):
        mp.setattr(market, "_BLOCK_BITS", block_bits)
        got = market._census_level(j, g, o, tol, alive)
    assert got == (want_count, want_uncertain)
    assert np.array_equal(alive, want_alive)


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
    # tables are built in doubling blocks from level len(prefix) + 2 on, none
    # longer than one batch: the late hit's block is m = 128..191, not 128..255
    from fracbin.coefficients import _BATCH_LEVELS, _TABLE_CACHE, clear_table_cache

    clear_table_cache()
    signs = tuple(1 if c == "+" else -1 for c in prefix)
    assert monotone_reach(HurstParams(H), signs, 1, 300) == steps
    built = {key[2] for key in _TABLE_CACHE}
    clear_table_cache()
    k = len(prefix) + 1
    assert set(range(k + 1, k + steps + 1)) <= built
    assert len(built) < min(2 * steps, steps + _BATCH_LEVELS) and min(built) == k + 1


def test_monotone_reach_validation(p075):
    with pytest.raises(ValueError):
        monotone_reach(p075, (1, 2), 1, 10)
    with pytest.raises(ValueError):
        monotone_reach(p075, (), 0, 10)


def test_stock_path_golden():
    spec = MarketSpec(N=8, params=HurstParams(0.75, 0.1))
    sp = stock_path(spec, [1, -1, 1, -1, 1, -1, 1, -1])
    want = [1.0, 1.0199809849727706, 1.0106558212551529, 1.0270402777067635,
            1.0161355061374275, 1.031835502468911, 1.020318671351517,
            1.0357007461800445, 1.0238266009094685]
    np.testing.assert_allclose(sp.prices, want, rtol=1e-12)
    assert sp.violations == ()
    assert sp.prices[0] == spec.s0


def test_stock_path_recursion_independent():
    # spreadsheet-style recomputation from the same tables
    params = HurstParams(0.7, 0.3)
    drift = DriftSpec("constant", (0.8,))
    spec = MarketSpec(N=6, params=params, drift=drift, s0=2.0)
    signs = [1, 1, -1, 1, -1]
    sp = stock_path(spec, signs)
    s = 2.0
    scale = 6.0**-0.7
    for n in range(1, 6):
        t = coefficient_table(params, n)
        y = sum((1 if signs[i] == 1 else -1) * t.j[i] for i in range(n - 1))
        x = scale * (y + t.g * signs[n - 1])
        s *= 1.0 + 0.8 / 6.0 + x
        assert sp.prices[n] == pytest.approx(s, rel=1e-12)
    assert len(sp.prices) == 6  # length-5 word gives S_0..S_5


def test_stock_path_degenerates_near_memoryless_boundary():
    # as H -> 1/2+ all past weights vanish and the walk becomes a simple
    # binary product with step ~ sigma * N^{-1/2} * g-factor
    params = HurstParams(0.5 + 1e-7, sigma=0.05)
    N = 8
    spec = MarketSpec(N=N, params=params)
    signs = [1, -1, -1, 1, 1, -1, 1, -1]
    sp = stock_path(spec, signs)
    assert sp.violations == ()
    s = 1.0
    scale = float(N) ** -params.H
    for n in range(1, N + 1):
        t = coefficient_table(params, n)
        assert float(np.sum(np.abs(t.j))) < 1e-5  # memory is gone
        s *= 1.0 + scale * t.g * signs[n - 1]
    assert sp.prices[-1] == pytest.approx(s, abs=1e-6)


def test_stock_path_flags_positivity():
    spec = MarketSpec(N=2, params=HurstParams(0.75, sigma=60.0))
    sp = stock_path(spec, [-1, -1])
    assert sp.violations != ()
    assert np.any(sp.prices < 0)


def test_stock_path_rejects_an_overflowing_price_or_drift(p075):
    # a(t) = 1e308 (1 + t): the price overflows at step 2, the drift itself at t = 1
    spec = MarketSpec(N=4, params=p075, drift=DriftSpec.parse("poly:1e308,1e308"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="S_2 is not finite"):
            stock_path(spec, [1, 1, 1, 1])
        with pytest.raises(ValueError, match="non-finite offset"):
            spec.drift.step_drift(4, 4)


def test_stock_path_validation(p075):
    spec = MarketSpec(N=8, params=p075)
    with pytest.raises(ValueError):
        stock_path(spec, [1, 1])
    with pytest.raises(ValueError):
        stock_path(spec, [1, 1, 1, 1, 1, 1, 2])


def test_market_spec_validation(p075):
    with pytest.raises(ValueError):
        MarketSpec(N=0, params=p075)
    with pytest.raises(ValueError):
        MarketSpec(N=4, params=p075, s0=0.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_drift_and_s0_rejected(p075, bad):
    with pytest.raises(ValueError, match="finite"):
        DriftSpec("constant", (bad,))
    with pytest.raises(ValueError, match="finite"):
        DriftSpec("polynomial", (0.1, bad))
    with pytest.raises(ValueError, match="finite"):
        DriftSpec.parse(f"poly:0.2,{bad}")
    if bad > 0:  # nan and negative values already failed `s0 > 0`
        with pytest.raises(ValueError, match="finite"):
            MarketSpec(N=4, params=p075, s0=bad)
