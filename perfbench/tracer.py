"""Span tracer that times fracbin's layers from outside the package.

Each traced function is replaced, in every loaded ``fracbin`` module that
binds it by name, by a wrapper that records one span per call: name, start,
end, parent span and operation id, plus a few counts taken from the call's
arguments and result.  Spans stay in memory until the run writes them out.
A span's self time is its duration minus the durations of its child spans;
the benchmark runs one operation at a time on one thread, so child spans
never overlap and self times add up to the time spent inside ``cli.main``.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict


def _kept(b, _result):
    # a sampler loop keeps cfg.samples values; the generated count comes
    # from its _chunk_values children, which always draw a full chunk
    return {"kept": b["cfg"].samples}


def _table_key(b, _result):
    return {"key": (b["params"].H, b["params"].sigma, b["n"], b["cfg"].key()), "n": b["n"]}


# (module, function, counter); a counter maps the bound call arguments and
# the result to the counts stored on the span
TARGETS = (
    ("cli", "main", lambda b, r: {"errors": int(r != 0)}),
    ("cli", "build_parser", None),
    ("reports", "render_json", None),
    ("reports", "write_text", lambda b, r: {"bytes": len(b["text"].encode())}),
    ("market", "census", None),
    ("market", "level_sign_values", lambda b, r: {"words": len(r)}),
    ("market", "monotone_reach", lambda b, r: {"levels": b["n_max"] if r is None else r}),
    ("coefficients", "coefficient_table", _table_key),
    ("coefficients", "table_fingerprint", None),
    ("asymptotics", "_block_tables", None),
    ("asymptotics", "_chunk_values",
     lambda b, r: {"samples": b["n"], "bytes": b["n"] * b["tables"].shape[0]}),
    ("asymptotics", "_sample_with_weights", _kept),
    ("asymptotics", "_level_estimate", _kept),
    ("asymptotics", "limit_proportion", _kept),
    ("asymptotics", "finite_level_proportion", None),
    ("asymptotics", "characteristic_function", None),
    ("asymptotics", "fit_cf_decay", None),
    ("hurst", "rho", None),
    ("hurst", "rho_pow_tail", None),
)

# sampler loops: each calls _chunk_values directly, none nests in another
SAMPLER_LOOPS = ("asymptotics._sample_with_weights", "asymptotics._level_estimate",
                 "asymptotics.limit_proportion")

NAME, START, END, PARENT, OP, COUNTS = range(6)


class Tracer:
    """Context manager that installs the wrappers and restores the originals.

    ``spans`` holds one list per call: [name, start, end, parent, op, counts],
    with parent the index of the enclosing span (-1 at the top) and op the
    value of ``self.op`` when the call began.
    """

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def __enter__(self) -> "Tracer":
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "fracbin" or name.startswith("fracbin."))]
        try:
            for module_name, func_name, counter in self.targets:
                original = getattr(sys.modules["fracbin." + module_name], func_name)
                wrapper = self._wrap(f"{module_name}.{func_name}", original, counter)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, attr, original))
                            setattr(module, attr, wrapper)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, name: str, fn, counter):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(record)
            record[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record[COUNTS] = {"raised": 1}
                raise
            finally:
                record[END] = clock()
                stack.pop()
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                record[COUNTS] = counter(bound.arguments, result)
            return result

        traced.perfbench_span = name
        return traced

    def write_jsonl(self, fh, **fields) -> None:
        """One JSON line per span, with the given fields added to each."""
        for name, start, end, parent, op, counts in self.spans:
            row = {**fields, "name": name, "start": start, "end": end, "parent": parent,
                   "op": op, "counts": counts}
            fh.write(json.dumps(row) + "\n")


def self_times(spans) -> list[float]:
    """Per span: its duration minus the durations of its direct children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def layer_metrics(spans) -> dict[str, float]:
    """The per-layer metrics of one traced pass over the operation list."""
    selfs = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    counts: dict[str, float] = defaultdict(float)
    seen_keys: dict[int, set] = defaultdict(set)
    table_hits = 0
    loops_with_chunks: set[int] = set()
    for span, own in zip(spans, selfs):
        name = span[NAME]
        calls[name] += 1
        self_s[name] += own
        for key, value in (span[COUNTS] or {}).items():
            if key != "key":
                counts[f"{name}.{key}"] += value
        if name == "coefficients.coefficient_table" and "key" in (span[COUNTS] or {}):
            # a repeat of a key requested earlier in the same operation is
            # served from the cache; the first request builds the table
            keys = seen_keys[span[OP]]
            if span[COUNTS]["key"] in keys:
                table_hits += 1
            else:
                keys.add(span[COUNTS]["key"])
                counts["coefficients.coefficient_table.entries_built"] += span[COUNTS]["n"]
        elif name == "asymptotics._chunk_values" and span[PARENT] >= 0:
            loops_with_chunks.add(span[PARENT])
    kept = sum(spans[i][COUNTS].get("kept", 0) for i in loops_with_chunks
               if spans[i][NAME] in SAMPLER_LOOPS)
    generated = counts["asymptotics._chunk_values.samples"]
    table_calls = calls["coefficients.coefficient_table"]

    m = {}
    for name in ("market.census", "market.level_sign_values", "coefficients.coefficient_table",
                 "asymptotics._chunk_values", "asymptotics.characteristic_function",
                 "hurst.rho", "hurst.rho_pow_tail"):
        m[f"{name}.calls"] = calls[name]
    for name in ("market.census", "market.level_sign_values", "market.monotone_reach",
                 "coefficients.coefficient_table", "coefficients.table_fingerprint",
                 "asymptotics._chunk_values", "asymptotics._block_tables",
                 "asymptotics.limit_proportion", "asymptotics.finite_level_proportion",
                 "asymptotics.characteristic_function", "asymptotics.fit_cf_decay",
                 "hurst.rho", "hurst.rho_pow_tail", "reports.render_json",
                 "reports.write_text", "cli.main", "cli.build_parser"):
        m[f"{name}.self_s"] = self_s[name]
    m["market.level_sign_values.words"] = counts["market.level_sign_values.words"]
    m["market.monotone_reach.levels"] = counts["market.monotone_reach.levels"]
    m["coefficients.coefficient_table.entries_built"] = \
        counts["coefficients.coefficient_table.entries_built"]
    m["coefficients.coefficient_table.hit_ratio"] = table_hits / table_calls if table_calls else 0.0
    m["asymptotics._chunk_values.bytes"] = counts["asymptotics._chunk_values.bytes"]
    m["asymptotics.sampler.useful_ratio"] = kept / generated if generated else 0.0
    m["reports.write_text.bytes"] = counts["reports.write_text.bytes"]
    m["cli.main.errors"] = counts["cli.main.errors"] + counts["cli.main.raised"]
    return m
