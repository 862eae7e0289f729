"""Report writers: render_json against json.dumps, and the CSV float formatting."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracbin import HurstParams, coefficient_table
from fracbin.coefficients import write_tables_csv
from fracbin.reports import float_reprs, render_csv, render_json


def _dumps(doc) -> str:
    return json.dumps(doc, indent=2, allow_nan=True) + "\n"


# -0.0, non-finite values, subnormals and the values where repr switches
# between positional and exponent notation (1e16 and 1e-5 on either side)
_EDGE_FLOATS = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324,
                2.2250738585072009e-308, 1e16, 9999999999999998.0, -1e16, 1e-5,
                9.999999999999999e-06, 0.0001, 1e-7, 1.5e300, 0.1, 2.0 / 3.0]
_floats = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(allow_subnormal=True),
                    st.floats(width=32))
_scalars = st.one_of(
    _floats,
    _floats.map(np.float64),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.booleans(),
    st.none(),
    st.text(),
    st.sampled_from(['"quoted"', "back\\slash", "tab\tnew\nline\x00\x1f", "café",
                     "☃ \U0001f600", "\ud800 lone surrogate", "/slash", ""]),
)
_keys = st.one_of(st.text(max_size=8), st.integers(), _floats, st.booleans(), st.none())
# float lists go through the batched path, so they get their own strategy
_float_lists = st.lists(st.one_of(_floats, _floats.map(np.float64)), max_size=30)
_docs = st.recursive(
    st.one_of(_scalars, _float_lists, _float_lists.map(tuple)),
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.lists(children, max_size=6).map(tuple),
        st.dictionaries(_keys, children, max_size=6),
    ),
    max_leaves=25,
)


@settings(max_examples=200, deadline=None)
@given(_docs)
def test_render_json_matches_json_dumps(doc):
    assert render_json(doc) == _dumps(doc)


@pytest.mark.parametrize("doc", [{}, [], (), {"a": []}, {"a": {}}, [[], {}, ()],
                                 {"x": [[], [1.0], [-0.0, 0.0]]}, "top-level string", 2.5])
def test_render_json_empty_containers_and_bare_scalars(doc):
    assert render_json(doc) == _dumps(doc)


@pytest.mark.parametrize("bad", [np.int64(3), {1, 2}, b"bytes", np.bool_(True),
                                 [1.0, np.int64(2)], {"k": {1}}, {b"key": 1},
                                 {np.int64(1): 1.0}, {(1, 2): 0}])
def test_unsupported_types_raise_type_error(bad):
    with pytest.raises(TypeError):
        _dumps(bad)
    with pytest.raises(TypeError):
        render_json(bad)


def test_float_reprs_one_repr_per_bit_pattern():
    values = [0.1, -0.0, 0.0, 0.1, math.nan, math.inf, -math.inf, 1e16, 1e-5]
    assert float_reprs(values) == [repr(x) for x in values]
    assert float_reprs(np.array(values).reshape(3, 3)) == [repr(x) for x in values]
    assert float_reprs(values, {"nan": "NaN"})[4] == "NaN"
    assert float_reprs([]) == []


def test_csv_keeps_repr_names_for_non_finite_floats():
    rows = [(1, math.nan, math.inf), ("limit", -0.0, np.float64(1e16)), (None, True, 1e-5)]
    text = render_csv({"b": -math.inf, "a": 0.25, "c": "x"}, ("n", "p", "q"), rows)
    assert text == ("# a=0.25\n# b=-inf\n# c=x\nn,p,q\n"
                    "1,nan,inf\nlimit,-0.0,1e+16\nNone,True,1e-05\n")


def test_tables_csv_matches_per_entry_repr(tmp_path):
    tables = [coefficient_table(HurstParams(0.72), n) for n in (1, 2, 5, 9)]
    write_tables_csv(tables, tmp_path / "j.csv", tmp_path / "g.csv")
    want_j = ["n,i,j_value,err"] + [
        f"{t.n},{i + 1},{float(t.j[i])!r},{float(t.j_err[i])!r}"
        for t in tables for i in range(t.n - 1)]
    want_g = ["n,g_value,err"] + [f"{t.n},{float(t.g)!r},{float(t.g_err)!r}" for t in tables]
    assert (tmp_path / "j.csv").read_text() == "\n".join(want_j) + "\n"
    assert (tmp_path / "g.csv").read_text() == "\n".join(want_g) + "\n"
