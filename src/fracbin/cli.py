"""Command-line front end: deterministic reports for every operation.

_COMMANDS lists each command's help text, options and handler, and _OPTIONS
each option's type, default and help; the parser, the dispatch and every
report's config block are read from them, and the parsed namespace is the
run config.  A report embeds its command's resolved options (defaults and
seed included) plus a content hash of the coefficient tables the run
consumed, so artifacts are reproducible byte for byte.  A valued option
takes its default from FRACBIN_<NAME> (dashes as underscores) when set,
checked as the flag's value is, which is how CI pins sizes; flags win.

Exit codes: 0 success; 1 verify-check failure; 2 invalid configuration;
3 numeric nonconvergence; 4 enumeration/series cap exceeded.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import sys

import numpy as np

from . import asymptotics as asym
from . import verify as verify_mod
from .coefficients import (
    DEFAULT_QUAD,
    QuadratureConfig,
    coefficient_table,
    coefficient_tables,
    table_fingerprint,
    write_tables_csv,
)
from .errors import CapExceededError, NonconvergenceError, TruncationError
from .hurst import HurstParams, rho_sq_total, solve_critical_hurst
from .market import (
    DEFAULT_ENUM_CAP,
    DriftSpec,
    MarketSpec,
    _finite_tolerance,
    census,
    monotone_reach,
)
from .reports import render_csv, render_json, write_text

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_VALIDATION = 2
EXIT_NONCONVERGENCE = 3
EXIT_CAP = 4

# coeffs holds the j and j_err of levels 1..n, 8 n(n-1) bytes, and its JSON
# report several times that; n = 4096 is the largest that fits
_COEFFS_BUDGET_BYTES = 1 << 27

# charfn evaluates F once per grid point, up to 0.6 s each near the series cap
_CHARFN_POINTS_CAP = 10_000

# byte-table lookups one command may sample: samples * ceil(K/8) for each
# sampled law of K weights.  A 4096-sample chunk at K=8192 makes 4.2e6
# lookups in about 11.5 ms, so the cap is about five minutes of sampling
_SAMPLE_LOOKUP_CAP = 10**11

_ENV_PREFIX = "FRACBIN_"


def _env_default(name: str, kw: dict):
    """FRACBIN_<NAME>, checked as the flag's value is, if set; else kw's default."""
    var = _ENV_PREFIX + name.upper().replace("-", "_")
    raw = os.environ.get(var)
    if raw is None:
        return kw["default"]
    try:
        value = kw["type"](raw)
    except ValueError:
        raise ValueError(f"{var}={raw!r} is not a valid {kw['type'].__name__}") from None
    if "choices" in kw and value not in kw["choices"]:
        raise ValueError(f"{var}={raw!r} is not one of {', '.join(kw['choices'])}")
    return value


# every option a command can list, the one home of its type, default and
# help; format and out end every command's list
_OPTIONS = {
    "H": dict(type=float, default=0.75, help="memory exponent in (1/2,1)"),
    "sigma": dict(type=float, default=1.0, help="volatility > 0"),
    "N": dict(type=int, default=16, help="number of periods"),
    "n": dict(type=int, default=16, help="tree level"),
    "drift": dict(type=str, default="zero", help="zero | const:c | poly:c0,c1,..."),
    "seed": dict(type=int, default=asym.McConfig.seed, help="64-bit RNG seed"),
    "samples": dict(type=int, default=asym.McConfig.samples, help="MC sample count"),
    "quad-abs-tol": dict(type=float, default=DEFAULT_QUAD.abs_tol),
    "quad-rel-tol": dict(type=float, default=DEFAULT_QUAD.rel_tol),
    "tail-sd-tol": dict(type=float, default=None,
                        help="target sd of the discarded series tail (may be infeasible; see docs)"),
    "trunc-k": dict(type=int, default=None, help="explicit series truncation index "
                    f"(default {asym.DEFAULT_TRUNCATION_K} when tail-sd-tol unset)"),
    "confidence": dict(type=float, default=asym.McConfig.confidence),
    "tol": dict(type=float, default=1e-8),
    "threads": dict(type=int, default=None, help="ignored; sampling always runs on one thread"),
    "n-list": dict(type=str, default="10,14,18"),
    "offset": dict(type=float, default=0.0, help="scaled drift offset added to the level sum"),
    "prefix": dict(type=str, default="", help="sign word like '+-+' or '' for the root"),
    "direction": dict(type=str, default="up", choices=("up", "down")),
    "n-max": dict(type=int, default=10_000),
    "v-min": dict(type=float, default=0.0),
    "v-max": dict(type=float, default=4.0),
    "points": dict(type=int, default=21),
    "cap": dict(type=int, default=DEFAULT_ENUM_CAP, help="enumeration cap on N"),
    "fit": dict(action="store_true", help="also fit the decay exponent"),
    "full": dict(action="store_true", help="acceptance-grade sizes"),
    "format": dict(type=str, default="json", choices=("json", "csv"), dest="output_format"),
    "out": dict(type=str, default="-", dest="output_path", help="output file or - for stdout"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracbin",
        description="Binary-market arbitrage censuses and their large-depth asymptotics.",
        epilog="Exit codes: 0 ok, 1 verify failure, 2 bad config, 3 nonconvergence, "
               "4 cap exceeded. Defaults can be pinned via FRACBIN_<OPTION> env vars.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, options, _) in _COMMANDS.items():
        sp = sub.add_parser(command, help=help_text)
        for name in (*options, "format", "out"):
            kw = _OPTIONS[name]
            if "type" in kw:  # flags take no value from the environment
                kw = {**kw, "default": _env_default(name, kw)}
            sp.add_argument("--" + name, **kw)
    return parser


def _resolved(rc: argparse.Namespace) -> argparse.Namespace:
    # where the command has trunc_k, an unset one takes its default unless tail_sd_tol chooses K
    if "trunc_k" in vars(rc) and rc.trunc_k is None and rc.tail_sd_tol is None:
        rc.trunc_k = asym.DEFAULT_TRUNCATION_K
    return rc


def _mc_config(rc: argparse.Namespace) -> asym.McConfig:
    return asym.McConfig(samples=rc.samples, seed=rc.seed, truncation_k=rc.trunc_k,
                         tail_sd_tol=rc.tail_sd_tol, confidence=rc.confidence)


def _quad(rc: argparse.Namespace) -> QuadratureConfig:
    return QuadratureConfig(abs_tol=rc.quad_abs_tol, rel_tol=rc.quad_rel_tol)


def _emit(rc: argparse.Namespace, payload: dict, csv_spec=None) -> None:
    # every parsed option but threads (never read) and the output path, so a
    # report stays byte-identical across destinations
    doc = {"config": {k: v for k, v in sorted(vars(rc).items())
                      if k not in ("output_path", "threads")}}
    doc.update(payload)
    if rc.output_format == "csv" and csv_spec is not None:
        columns, rows = csv_spec
        # scalar payload fields join the header, and so do the scalar entries
        # of dict-valued ones as field.key; lists are the rows' business
        flat_cfg = dict(doc["config"])
        for k, v in payload.items():
            items = [(f"{k}.{sub}", x) for sub, x in v.items()] if isinstance(v, dict) else [(k, v)]
            for name, x in items:
                if isinstance(x, (int, float, str)):
                    flat_cfg[name] = x
        write_text(rc.output_path, render_csv(flat_cfg, columns, rows))
    else:
        write_text(rc.output_path, render_json(doc))


def _check_level(n: int) -> None:
    """Every command's cap on a level n: its n - 1 weights fit the sampler's K cap.

    Checked before any table is built; a sweep to level n costs time and
    memory that grow as n^2.
    """
    if n - 1 > asym._SAMPLER_K_CAP:
        raise ValueError(f"n must be at most {asym._SAMPLER_K_CAP + 1}, got {n}")


def _check_samples(samples: int, weights: list[int]) -> None:
    """Refuse a run that would make more than _SAMPLE_LOOKUP_CAP table lookups.

    weights lists the weight count K of every law the run samples; a level
    of at most asym._EXACT_LEVEL_MAX weights is enumerated, not sampled, and
    callers leave it out.  Checked before any table or stream is built.
    """
    lookups = samples * sum(-(-K // 8) for K in weights)
    if lookups > _SAMPLE_LOOKUP_CAP:
        raise CapExceededError(f"{samples} samples of {weights} weights need {lookups} table "
                               f"lookups, above the cap {_SAMPLE_LOOKUP_CAP}")


def _sampled_levels(levels: list[int]) -> list[int]:
    """Weights of the levels an estimate samples rather than enumerates."""
    return [n - 1 for n in levels if n - 1 > asym._EXACT_LEVEL_MAX]


def _limit_law(params: HurstParams, cfg: asym.McConfig, sampled: list[int]) -> asym.SignSum:
    """SignSum.limit(params, cfg), its truncation resolved once.

    The run's sample budget, K plus the weight counts sampled of its other
    laws, is checked by _check_samples before any weight is built.
    """
    K, tail_sd = asym.resolve_truncation(params, cfg)
    _check_samples(cfg.samples, [*sampled, K])
    return asym.SignSum(asym.limit_weights(params, K), tail_sd)


def _cmd_coeffs(rc: argparse.Namespace) -> int:
    if rc.n < 1:
        raise ValueError(f"n must be >= 1, got {rc.n}")
    _check_level(rc.n)
    if 8 * rc.n * (rc.n - 1) > _COEFFS_BUDGET_BYTES:
        raise CapExceededError(f"coeffs n={rc.n} needs {8 * rc.n * (rc.n - 1)} bytes of tables, "
                               f"above the {_COEFFS_BUDGET_BYTES}-byte budget")
    params = HurstParams(rc.H, rc.sigma)
    quad = _quad(rc)
    tables = coefficient_tables(params, range(1, rc.n + 1), quad)
    # an overflowed entry would be written as Infinity or NaN, which strict JSON rejects
    entries = [a for t in tables for a in (t.j, t.j_err, (t.g, t.g_err))]
    if entries and not np.isfinite(np.concatenate(entries)).all():
        raise ValueError(f"sigma={rc.sigma!r} gives a non-finite table value (too large)")
    if rc.output_format == "csv":
        base = rc.output_path if rc.output_path != "-" else "coeffs"
        write_tables_csv(tables, f"{base}_j.csv", f"{base}_g.csv")
        return EXIT_OK
    payload = {
        "coeff_cache_hash": table_fingerprint(tables),
        "j": [{"n": t.n, "values": t.j.tolist(), "err": t.j_err.tolist()} for t in tables],
        "g": [{"n": t.n, "value": t.g, "err": t.g_err} for t in tables],
    }
    _emit(rc, payload)
    return EXIT_OK


def _census_common(rc: argparse.Namespace):
    params = HurstParams(rc.H, rc.sigma)
    quad = _quad(rc)
    spec = MarketSpec(N=rc.N, params=params, drift=DriftSpec.parse(rc.drift))
    result = census(spec, quad, cap=rc.cap)
    tables = coefficient_tables(params, range(1, rc.N + 1), quad)
    return spec, result, table_fingerprint(tables)


def _cmd_census(rc: argparse.Namespace) -> int:
    spec, result, fp = _census_common(rc)
    payload = {"coeff_cache_hash": fp}
    payload.update(result.to_dict(spec))
    rows = [(n + 1, result.per_level_counts[n], result.per_level_proportions[n])
            for n in range(rc.N)]
    _emit(rc, payload, csv_spec=(("n", "count", "proportion"), rows))
    return EXIT_OK


def _cmd_paths(rc: argparse.Namespace) -> int:
    spec, result, fp = _census_common(rc)
    first = next((i + 1 for i, c in enumerate(result.per_level_counts) if c), None)
    payload = {
        "coeff_cache_hash": fp,
        "spec": spec.to_dict(),
        "path_count": result.path_count,
        "path_proportion": result.path_proportion,
        "leaf_count": 2 ** (rc.N - 1),
        "first_nonempty_level": first,
    }
    _emit(rc, payload, csv_spec=(("path_count", "path_proportion"),
                                 [(result.path_count, result.path_proportion)]))
    return EXIT_OK


def _cmd_mc_limit(rc: argparse.Namespace) -> int:
    import hashlib

    params = HurstParams(rc.H, rc.sigma)
    cfg = _mc_config(rc)
    law = _limit_law(params, cfg, [])
    est = asym.limit_proportion(params, cfg, law=law)
    payload = {"coeff_cache_hash": hashlib.sha256(law.head.tobytes()).hexdigest()}
    payload.update(est.to_dict())
    _emit(rc, payload, csv_spec=(("p_hat", "stderr", "ci_low", "ci_high", "samples", "K"),
                                 [(est.p_hat, est.stderr, est.ci_low, est.ci_high,
                                   est.samples, est.K)]))
    return EXIT_OK


def _cmd_mc_level(rc: argparse.Namespace) -> int:
    params = HurstParams(rc.H, rc.sigma)
    _check_level(rc.n)
    _check_samples(rc.samples, _sampled_levels([rc.n]))
    cfg = asym.McConfig(samples=rc.samples, seed=rc.seed, confidence=rc.confidence)
    table = coefficient_table(params, rc.n, _quad(rc))
    est = asym.finite_level_proportion(params, rc.n, rc.offset, table, cfg)
    payload = {"coeff_cache_hash": table_fingerprint([table])}
    payload.update(est.to_dict())
    _emit(rc, payload, csv_spec=(("p_hat", "stderr", "ci_low", "ci_high", "samples"),
                                 [(est.p_hat, est.stderr, est.ci_low, est.ci_high, est.samples)]))
    return EXIT_OK


def _cmd_hc(rc: argparse.Namespace) -> int:
    h_c, H_c = solve_critical_hurst(rc.tol)
    payload = {
        "h_c": h_c,
        "H_c": H_c,
        "residual": abs(rho_sq_total(h_c) - 0.25),
        "tol": rc.tol,
    }
    _emit(rc, payload, csv_spec=(("h_c", "H_c", "residual"), [(h_c, H_c, payload["residual"])]))
    return EXIT_OK


def _cmd_charfn(rc: argparse.Namespace) -> int:
    if not 1 <= rc.points <= _CHARFN_POINTS_CAP:
        raise ValueError(f"points must be >= 1 and at most {_CHARFN_POINTS_CAP}, got {rc.points}")
    if rc.v_min > rc.v_max:
        raise ValueError(f"v-min {rc.v_min} exceeds v-max {rc.v_max}")
    params = HurstParams(rc.H, rc.sigma)
    vs = np.linspace(rc.v_min, rc.v_max, rc.points)
    values = asym.characteristic_function(params, vs, rc.tol).tolist()
    payload: dict = {"points": [[float(v), f] for v, f in zip(vs, values)]}
    if rc.fit:
        theta, expo, used = asym.fit_cf_decay(params)
        payload["fit"] = {"theta": theta, "exponent": expo, "points_used": used,
                          "target_exponent": 1.0 / (2.0 - 2.0 * params.h)}
    _emit(rc, payload, csv_spec=(("v", "F"), list(zip(map(float, vs), values))))
    return EXIT_OK


def _parse_prefix(text: str) -> tuple[int, ...]:
    signs = []
    for ch in text:
        if ch in "+u1":
            signs.append(1)
        elif ch in "-d0":
            signs.append(-1)
        else:
            raise ValueError(f"bad prefix character {ch!r} (use + and -)")
    return tuple(signs)


def _cmd_reach(rc: argparse.Namespace) -> int:
    params = HurstParams(rc.H, rc.sigma)
    prefix = _parse_prefix(rc.prefix)
    _check_level(len(prefix) + 1 + rc.n_max)
    direction = 1 if rc.direction == "up" else -1
    steps = monotone_reach(params, prefix, direction, rc.n_max,
                           drift=DriftSpec.parse(rc.drift), cfg=_quad(rc))
    payload = {
        "prefix": rc.prefix,
        "direction": rc.direction,
        "steps": steps,
        "level": None if steps is None else len(prefix) + 1 + steps,
    }
    _emit(rc, payload, csv_spec=(("steps", "level"), [(steps, payload["level"])]))
    return EXIT_OK


def _cmd_convergence(rc: argparse.Namespace) -> int:
    """Per-level time series: arbitrage-set proportion (non-strict), the
    strict exceedance diagnostic, and the variance split, plus the limit."""
    params = HurstParams(rc.H, rc.sigma)
    quad = _quad(rc)
    cfg = _mc_config(rc)
    levels = [int(x) for x in rc.n_list.split(",") if x]
    for n in levels:
        _check_level(n)
    law = _limit_law(params, cfg, _sampled_levels(levels))
    tables = coefficient_tables(params, levels, quad)
    # every number that a large sigma can overflow is checked before anything is sampled
    with np.errstate(over="ignore"):
        variances = []
        for n, table in zip(levels, tables):
            _finite_tolerance(table, 0.0)
            variances.append(asym.split_variances(params, n, table))
    try:
        var_hat_limit = 4.0 * params.g_H**2 * rho_sq_total(params.h)
    except OverflowError:
        var_hat_limit = math.inf
    if not all(map(math.isfinite, [var_hat_limit, *itertools.chain(*variances)])):
        raise ValueError(f"sigma={rc.sigma!r} gives a non-finite variance (too large)")
    rows = []
    for n, table, (var_bar, var_hat) in zip(levels, tables, variances):
        est, strict = asym._level_estimate(table, 0.0, cfg)
        rows.append((n, est.p_hat, est.stderr, est.ci_low, est.ci_high,
                     strict.p_hat, var_bar, var_hat))
    lim = asym.limit_proportion(params, cfg, law=law)
    payload = {
        "levels": [
            {"n": r[0], "p_hat": r[1], "stderr": r[2], "ci": [r[3], r[4]],
             "p_strict": r[5], "var_bar": r[6], "var_hat": r[7]}
            for r in rows
        ],
        "limit": lim.to_dict(),
        "var_hat_limit": var_hat_limit,
        "regime": asym.regime_constants(params),
    }
    rows_csv = rows + [("limit", lim.p_hat, lim.stderr, lim.ci_low, lim.ci_high,
                        lim.p_hat, 0.0, payload["var_hat_limit"])]
    _emit(rc, payload, csv_spec=(
        ("n", "p_hat", "stderr", "ci_low", "ci_high", "p_strict", "var_bar", "var_hat"),
        rows_csv))
    return EXIT_OK


def _cmd_verify(rc: argparse.Namespace) -> int:
    report = verify_mod.run_checks(full=rc.full)
    _emit(rc, report, csv_spec=(("check", "passed"),
                                [(c["name"], c["passed"]) for c in report["checks"]]))
    return EXIT_OK if report["all_passed"] else EXIT_CHECK_FAILED


_QUAD = ("quad-abs-tol", "quad-rel-tol")
_MARKET = ("H", "sigma", "N", "drift", *_QUAD, "cap")

# command -> (help text, option names, handler)
_COMMANDS = {
    "coeffs": ("dump level tables (j and g) as CSV/JSON",
               ("H", "sigma", "n", *_QUAD), _cmd_coeffs),
    "census": ("exact arbitrage census of an N-period market", _MARKET, _cmd_census),
    "paths": ("arbitrage-path view of the census", _MARKET, _cmd_paths),
    "mc-limit": ("Monte Carlo estimate of the limiting proportion",
                 ("H", "sigma", "samples", "seed", "trunc-k", "tail-sd-tol", "confidence",
                  "threads"), _cmd_mc_limit),
    "mc-level": ("finite-level exceedance estimate (exact for small n)",
                 ("H", "sigma", "n", "samples", "seed", "offset", "confidence", "threads",
                  *_QUAD), _cmd_mc_level),
    "hc": ("critical exponent where the squared series crosses 1/4", ("tol",), _cmd_hc),
    "charfn": ("characteristic function of the limit variable",
               ("H", "sigma", "v-min", "v-max", "points", "tol", "fit"), _cmd_charfn),
    "reach": ("steps of repeated moves until an arbitrage point",
              ("H", "sigma", "prefix", "direction", "n-max", "drift", *_QUAD), _cmd_reach),
    "convergence": ("finite-level estimates against the limit",
                    ("H", "sigma", "n-list", "samples", "seed", "trunc-k", "tail-sd-tol",
                     "confidence", "threads", *_QUAD), _cmd_convergence),
    "verify": ("run the property battery", ("full",), _cmd_verify),
}


# the last parser built and the sorted FRACBIN_* environment it was built
# from; the environment only sets argparse defaults, so an unchanged one
# reuses the parser
_PARSER: tuple = (None, None)


def main(argv=None) -> int:
    global _PARSER
    env = tuple(sorted((k, v) for k, v in os.environ.items() if k.startswith(_ENV_PREFIX)))
    try:
        if _PARSER[0] != env:
            _PARSER = (env, build_parser())
        rc = _resolved(_PARSER[1].parse_args(argv))
        return _COMMANDS[rc.command][2](rc)
    except (CapExceededError, TruncationError) as exc:
        print(f"fracbin: cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except NonconvergenceError as exc:
        print(f"fracbin: nonconvergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except (ValueError, OSError) as exc:
        print(f"fracbin: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
