"""Output checks, run on the reports of the first pass outside the timed region.

Each check recomputes a property of one report through a second route and
returns None when it holds, or the reason it does not.
"""

from __future__ import annotations

import json
import math

import numpy as np

from fracbin import asymptotics as asym
from fracbin.coefficients import QuadratureConfig, coefficient_table, table_fingerprint
from fracbin.hurst import HurstParams
from fracbin.market import DriftSpec
from fracbin.verify import check_goldens, naive_level_values

# words of the low signs enumerated at once by naive_level_values
_NAIVE_BLOCK_BITS = 18


def naive_level_count(j: np.ndarray, g: float, offset: float) -> tuple[int, bool]:
    """(arbitrage count, complement symmetry) of one level from naive sums.

    The low signs are enumerated by verify.naive_level_values; each setting
    of the top signs (at least one) adds them left to right to a copy of that
    block, which keeps every word's canonical sequential sum and bounds
    memory to one block.  Word w and its complement mask ^ w sit in blocks t
    and T-1-t at mirrored positions.
    """
    m = len(j)
    top = max(1, m - _NAIVE_BLOCK_BITS)
    low = m - top
    base = naive_level_values(np.asarray(j[:low]))

    def arbitrage(t: int) -> np.ndarray:
        v = base.copy()
        for b in range(top):
            v += j[low + b] if (t >> b) & 1 else -j[low + b]
        return (v + g <= -offset) | (v - g >= -offset)

    blocks = 1 << top
    count, symmetric = 0, True
    for t in range(blocks // 2):
        a, b = arbitrage(t), arbitrage(blocks - 1 - t)
        count += int(np.count_nonzero(a)) + int(np.count_nonzero(b))
        symmetric &= bool(np.array_equal(a, b[::-1]))
    return count, symmetric


def _quad(cfg: dict) -> QuadratureConfig:
    return QuadratureConfig(abs_tol=cfg["quad_abs_tol"], rel_tol=cfg["quad_rel_tol"])


def _census(doc, _docs):
    spec, counts = doc["spec"], doc["per_level_counts"]
    N = spec["N"]
    if len(counts) != N:
        return f"{len(counts)} level counts for N={N}"
    params = HurstParams(spec["H"], spec["sigma"])
    drift = DriftSpec.parse(spec["drift"])
    table = coefficient_table(params, N, _quad(doc["config"]))
    count, symmetric = naive_level_count(table.j, table.g, drift.offset_scaled(N, N, params.H))
    if count != counts[-1]:
        return f"last level count {counts[-1]} != naive count {count}"
    if drift.kind == "zero" and not symmetric:
        return "zero-drift last level is not complement symmetric"
    return None


def _paths(doc, docs):
    census = [d for d in docs
              if d and d["config"]["command"] == "census" and d["spec"] == doc["spec"]]
    if not census:
        return "no census report for the same market"
    counts = census[0]["per_level_counts"]
    first = next((i + 1 for i, c in enumerate(counts) if c), None)
    if doc["path_count"] != census[0]["path_count"]:
        return f"path count {doc['path_count']} != census path count {census[0]['path_count']}"
    if doc["first_nonempty_level"] != first:
        return f"first nonempty level {doc['first_nonempty_level']} != {first}"
    if doc["leaf_count"] != 2 ** (doc["spec"]["N"] - 1):
        return "wrong leaf count"
    return None


def _mc_limit(doc, _docs):
    cfg = doc["config"]
    params = HurstParams(cfg["H"], cfg["sigma"])
    mc = asym.McConfig(samples=cfg["samples"], seed=cfg["seed"], truncation_k=cfg["trunc_k"],
                       confidence=cfg["confidence"])
    y = asym.sample_limit_variable(params, mc)
    hits = int(np.count_nonzero(np.abs(y) > params.g_H))
    if abs(doc["p_hat"] * cfg["samples"] - hits) > 1e-6 * cfg["samples"]:
        return (f"p_hat * samples = {doc['p_hat'] * cfg['samples']} "
                f"but the sampler route counts {hits}")
    if doc["K"] != cfg["trunc_k"]:
        return f"K={doc['K']} != trunc_k={cfg['trunc_k']}"
    return None


def _mc_level(doc, _docs):
    cfg = doc["config"]
    params = HurstParams(cfg["H"], cfg["sigma"])
    table = coefficient_table(params, cfg["n"], _quad(cfg))
    var_bar, var_hat = asym.split_variances(params, cfg["n"], table)
    if not math.isclose(var_bar + var_hat, table.var_total(), rel_tol=1e-12):
        return f"var_bar + var_hat = {var_bar + var_hat} != var_total {table.var_total()}"
    if doc["coeff_cache_hash"] != table_fingerprint([table]):
        return "coefficient hash differs from the rebuilt table"
    if not 0.0 <= doc["p_hat"] <= 1.0 or doc["samples"] != cfg["samples"]:
        return "estimate out of range"
    return None


def _coeffs(doc, _docs):
    n = doc["config"]["n"]
    if [t["n"] for t in doc["j"]] != list(range(1, n + 1)) or len(doc["g"]) != n:
        return "levels missing from the dump"
    if any(len(t["values"]) != t["n"] - 1 or len(t["err"]) != t["n"] - 1 for t in doc["j"]):
        return "a level table has the wrong length"
    return None


def _reach(doc, _docs):
    cfg = doc["config"]
    steps = doc["steps"]
    if steps is None:
        return None if doc["level"] is None else "level set without steps"
    if not 1 <= steps <= cfg["n_max"] or doc["level"] != len(cfg["prefix"]) + 1 + steps:
        return f"steps {steps} / level {doc['level']} inconsistent"
    return None


def _charfn(doc, _docs):
    cfg = doc["config"]
    if len(doc["points"]) != cfg["points"]:
        return "wrong number of points"
    if cfg["v_min"] == 0.0 and doc["points"][0] != [0.0, 1.0]:
        return f"F(0) = {doc['points'][0][1]}"
    fit = doc.get("fit")
    # the same +-15% exponent criterion as verify.check_cf
    if cfg["fit"] and abs(fit["exponent"] / fit["target_exponent"] - 1.0) > 0.15:
        return f"decay exponent {fit['exponent']} vs target {fit['target_exponent']}"
    return None


def _hc(doc, _docs):
    if not (doc["residual"] <= doc["tol"] and 0.5 < doc["H_c"] < 1.0):
        return f"critical point {doc['H_c']} with residual {doc['residual']}"
    return None


_CHECKS = {
    "census": _census, "paths": _paths, "mc-limit": _mc_limit, "mc-level": _mc_level,
    "coeffs": _coeffs, "reach": _reach, "charfn": _charfn, "hc": _hc,
}


def check_reports(ops: list[list[str]], reports: list) -> list:
    """Per operation: None if its report passes its check, else the reason."""
    docs = []
    for raw in reports:
        try:
            docs.append(json.loads(raw) if raw is not None else None)
        except ValueError:
            docs.append(None)
    out = []
    for argv, doc in zip(ops, docs):
        if doc is None:
            out.append("no parsable report")
            continue
        try:
            out.append(_CHECKS[argv[0]](doc, docs))
        except Exception as exc:  # a check that crashes fails its operation
            out.append(f"check raised {type(exc).__name__}: {exc}")
    return out


def workload_checks(workload: str) -> list[str]:
    """Checks of a workload as a whole; the reasons of those that fail."""
    if workload == "levels":
        golden = check_goldens()
        if not golden["passed"]:
            return [f"stored goldens off by {golden['measured']}"]
    return []
