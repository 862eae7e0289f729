"""Deterministic report writers: JSON and CSV, each headed by its command's
resolved options.

Formatting rules: shortest round-trip float representation, '.' decimal,
LF line endings, fixed column order, config keys sorted.  Identical configs
produce byte-identical files.

render_json writes exactly the bytes of
json.dumps(doc, indent=2, sort_keys=False, allow_nan=True) + "\\n": the
stdlib's rules for dicts, lists, tuples, str (ASCII-escaped), int, bool and
None, NaN/Infinity/-Infinity for non-finite floats, and TypeError for any
other type (a document that contains itself raises RecursionError, not
json's ValueError).  It is its own recursive renderer because json.dumps
falls back to its pure-Python encoder whenever indent is set, and a
coefficient report holds about 4e4 floats.  The walk leaves every float of
the document to one batch: float_reprs calls float.__repr__ (Gay's shortest
round-trip conversion) once per distinct float64 bit pattern, so -0.0 stays
apart from 0.0, and a list of floats is joined with one str.join.  The error
columns of a level table hold a few dozen distinct values among thousands.
CSV cells go through the same float_reprs, keeping repr's nan and inf.
"""

from __future__ import annotations

import sys
from itertools import chain, islice
from json.encoder import encode_basestring_ascii
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

# JSON's names for the floats whose repr is nan, inf and -inf
_JSON_SPECIAL = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def float_reprs(values, names: Optional[Mapping[str, str]] = None) -> list[str]:
    """float.__repr__ of each value as a float64, called once per distinct bit pattern.

    names renames reprs, as JSON renames nan and inf.
    """
    bits, inverse = np.unique(np.asarray(values, dtype=np.float64).view(np.uint64),
                              return_inverse=True)
    texts = list(map(float.__repr__, bits.view(np.float64).tolist()))
    if names:
        texts = list(map(names.get, texts, texts))
    return list(map(texts.__getitem__, inverse.ravel().tolist()))


def _fmt(cells: Sequence) -> list[str]:
    """repr of the float cells (through float_reprs), str of the others."""
    floats = iter(float_reprs([cell for cell in cells if isinstance(cell, float)]))
    return [next(floats) if isinstance(cell, float) else str(cell) for cell in cells]


def _json_scalar(o) -> str:
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def _json_key(key) -> str:
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if isinstance(key, float):
        return '"' + float_reprs([key], _JSON_SPECIAL)[0] + '"'
    if isinstance(key, int) or key is None:
        return '"' + _json_scalar(key) + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _json(o, indent: str, out: list) -> None:
    """Append the text of o to out; floats go in as (separator, floats) for render_json."""
    if isinstance(o, float):
        out.append(("", (o,)))
        return
    if isinstance(o, (list, tuple, dict)):
        if not o:
            out.append("{}" if isinstance(o, dict) else "[]")
            return
        inner = indent + "  "
        sep = ",\n" + inner
        if isinstance(o, dict):
            out.append("{\n" + inner)
            for i, (key, value) in enumerate(o.items()):
                out.append((sep if i else "") + _json_key(key) + ": ")
                _json(value, inner, out)
            out.append("\n" + indent + "}")
            return
        out.append("[\n" + inner)
        if all(issubclass(t, float) for t in set(map(type, o))):
            out.append((sep, o))
        else:
            for i, value in enumerate(o):
                if i:
                    out.append(sep)
                _json(value, inner, out)
        out.append("\n" + indent + "]")
        return
    out.append(_json_scalar(o))


def render_json(doc: Mapping) -> str:
    out: list = []
    _json(doc, "", out)
    # every float of the document in one batch, each distinct value formatted once
    floats = chain.from_iterable(part[1] for part in out if isinstance(part, tuple))
    texts = iter(float_reprs(list(floats), _JSON_SPECIAL))
    return "".join(part if isinstance(part, str) else part[0].join(islice(texts, len(part[1])))
                   for part in out) + "\n"


def render_csv(config: Mapping, columns: Sequence[str], rows: Iterable[Sequence]) -> str:
    keys = sorted(config)
    rows = [list(row) for row in rows]
    text = iter(_fmt([config[key] for key in keys] + [cell for row in rows for cell in row]))
    lines = [f"# {key}={next(text)}" for key in keys]
    lines.append(",".join(columns))
    lines += [",".join(next(text) for _ in row) for row in rows]
    return "\n".join(lines) + "\n"


def write_text(path: str, text: str) -> None:
    """Write to a file, or stdout when path is '-' (LF endings either way)."""
    if path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", newline="") as fh:
        fh.write(text)
