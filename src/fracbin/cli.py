"""Command-line front end: deterministic reports for every operation.

Every output embeds the fully resolved configuration (defaults and seed
included) plus a content hash of the coefficient tables the run consumed,
so artifacts are reproducible byte for byte.  Any long option can take its
default from the environment as FRACBIN_<NAME> (dashes as underscores),
which is how CI pins sizes; explicit flags win.

Exit codes: 0 success; 1 verify-check failure; 2 invalid configuration;
3 numeric nonconvergence; 4 enumeration/series cap exceeded.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict, dataclass
from typing import Optional

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
from .errors import CapExceededError, QuadratureError, TruncationError
from .hurst import HurstParams, rho_sq_total, solve_critical_hurst
from .market import DEFAULT_ENUM_CAP, DriftSpec, MarketSpec, census, monotone_reach
from .reports import render_csv, render_json, write_text

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_VALIDATION = 2
EXIT_NONCONVERGENCE = 3
EXIT_CAP = 4

_ENV_PREFIX = "FRACBIN_"


def _env_default(name: str, fallback, cast):
    var = _ENV_PREFIX + name.upper().replace("-", "_")
    raw = os.environ.get(var)
    if raw is None:
        return fallback
    try:
        return cast(raw)
    except ValueError:
        raise ValueError(f"{var}={raw!r} is not a valid {cast.__name__}") from None


@dataclass(frozen=True)
class RunConfig:
    """Everything a run depends on; embedded verbatim in every report."""

    command: str
    H: float = 0.75
    sigma: float = 1.0
    N: int = 16
    n: int = 16
    drift: str = "zero"
    s0: float = 1.0
    seed: int = asym.McConfig.seed
    samples: int = asym.McConfig.samples
    quad_abs_tol: float = DEFAULT_QUAD.abs_tol
    quad_rel_tol: float = DEFAULT_QUAD.rel_tol
    tail_sd_tol: Optional[float] = None
    trunc_k: Optional[int] = asym.DEFAULT_TRUNCATION_K
    confidence: float = asym.McConfig.confidence
    tol: float = 1e-8
    n_list: str = ""
    offset: float = 0.0
    prefix: str = ""
    direction: str = "up"
    n_max: int = 10_000
    v_min: float = 0.0
    v_max: float = 4.0
    points: int = 21
    fit: bool = False
    cap: int = DEFAULT_ENUM_CAP
    full: bool = False
    output_format: str = "json"
    output_path: str = "-"


# argparse fallbacks that differ from the RunConfig field default
_CLI_FALLBACKS = {
    "n-list": "10,14,18",  # RunConfig's "" is what the other commands' reports embed
    "trunc-k": None,  # left unset so --tail-sd-tol can choose K; _resolved fills it in
    "threads": 1,  # accepted and ignored; not a RunConfig field
}


def _fallback(name: str):
    if name in _CLI_FALLBACKS:
        return _CLI_FALLBACKS[name]
    return RunConfig.__dataclass_fields__[name.replace("-", "_")].default


def _add_common(sp: argparse.ArgumentParser, *names: str) -> None:
    opt = {
        "H": dict(type=float, help="memory exponent in (1/2,1)"),
        "sigma": dict(type=float, help="volatility > 0"),
        "N": dict(type=int, help="number of periods"),
        "n": dict(type=int, help="tree level"),
        "drift": dict(type=str, help="zero | const:c | poly:c0,c1,..."),
        "s0": dict(type=float, help="initial price"),
        "seed": dict(type=int, help="64-bit RNG seed"),
        "samples": dict(type=int, help="MC sample count"),
        "quad-abs-tol": dict(type=float),
        "quad-rel-tol": dict(type=float),
        "tail-sd-tol": dict(type=float,
                            help="target sd of the discarded series tail (may be infeasible; see docs)"),
        "trunc-k": dict(type=int, help="explicit series truncation index "
                                       f"(default {asym.DEFAULT_TRUNCATION_K} when tail-sd-tol unset)"),
        "confidence": dict(type=float),
        "tol": dict(type=float),
        "threads": dict(type=int, help="ignored; sampling always runs on one thread"),
        "n-list": dict(type=str),
        "offset": dict(type=float, help="scaled drift offset added to the level sum"),
        "prefix": dict(type=str, help="sign word like '+-+' or '' for the root"),
        "direction": dict(type=str, choices=("up", "down")),
        "n-max": dict(type=int),
        "v-min": dict(type=float),
        "v-max": dict(type=float),
        "points": dict(type=int),
        "cap": dict(type=int, help="enumeration cap on N"),
    }
    for name in names:
        kw = opt[name]
        sp.add_argument("--" + name, default=_env_default(name, _fallback(name), kw["type"]), **kw)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracbin",
        description="Binary-market arbitrage censuses and their large-depth asymptotics.",
        epilog="Exit codes: 0 ok, 1 verify failure, 2 bad config, 3 nonconvergence, "
               "4 cap exceeded. Defaults can be pinned via FRACBIN_<OPTION> env vars.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("coeffs", help="dump level tables (j and g) as CSV/JSON")
    _add_common(sp, "H", "sigma", "n", "quad-abs-tol", "quad-rel-tol")

    sp = sub.add_parser("census", help="exact arbitrage census of an N-period market")
    _add_common(sp, "H", "sigma", "N", "drift", "s0", "quad-abs-tol", "quad-rel-tol", "cap")

    sp = sub.add_parser("paths", help="arbitrage-path view of the census")
    _add_common(sp, "H", "sigma", "N", "drift", "s0", "quad-abs-tol", "quad-rel-tol", "cap")

    sp = sub.add_parser("mc-limit", help="Monte Carlo estimate of the limiting proportion")
    _add_common(sp, "H", "sigma", "samples", "seed", "trunc-k", "tail-sd-tol",
                "confidence", "threads")

    sp = sub.add_parser("mc-level", help="finite-level exceedance estimate (exact for small n)")
    _add_common(sp, "H", "sigma", "n", "samples", "seed", "offset", "confidence",
                "threads", "quad-abs-tol", "quad-rel-tol")

    sp = sub.add_parser("hc", help="critical exponent where the squared series crosses 1/4")
    _add_common(sp, "tol")

    sp = sub.add_parser("charfn", help="characteristic function of the limit variable")
    _add_common(sp, "H", "sigma", "v-min", "v-max", "points", "tol")
    sp.add_argument("--fit", action="store_true", help="also fit the decay exponent")

    sp = sub.add_parser("reach", help="steps of repeated moves until an arbitrage point")
    _add_common(sp, "H", "sigma", "prefix", "direction", "n-max", "drift",
                "quad-abs-tol", "quad-rel-tol")

    sp = sub.add_parser("convergence", help="finite-level estimates against the limit")
    _add_common(sp, "H", "sigma", "n-list", "samples", "seed", "trunc-k",
                "tail-sd-tol", "confidence", "threads", "quad-abs-tol", "quad-rel-tol")

    sp = sub.add_parser("verify", help="run the property battery")
    sp.add_argument("--full", action="store_true", help="acceptance-grade sizes")

    for name, p in sub.choices.items():
        p.add_argument("--format", dest="output_format", choices=("json", "csv"),
                       default=_env_default("format", _fallback("output_format"), str))
        p.add_argument("--out", dest="output_path",
                       default=_env_default("out", _fallback("output_path"), str),
                       help="output file or - for stdout")
    return parser


def _resolved(args: argparse.Namespace) -> RunConfig:
    fields = {k.replace("-", "_"): v for k, v in vars(args).items()}
    known = {f for f in RunConfig.__dataclass_fields__}
    cfg = {k: v for k, v in fields.items() if k in known}
    rc = RunConfig(**cfg)
    if rc.command in ("mc-limit", "convergence") and rc.trunc_k is None and rc.tail_sd_tol is None:
        rc = RunConfig(**{**asdict(rc), "trunc_k": asym.DEFAULT_TRUNCATION_K})
    return rc


def _mc_config(rc: RunConfig) -> asym.McConfig:
    return asym.McConfig(samples=rc.samples, seed=rc.seed, truncation_k=rc.trunc_k,
                         tail_sd_tol=rc.tail_sd_tol, confidence=rc.confidence)


def _quad(rc: RunConfig) -> QuadratureConfig:
    return QuadratureConfig(abs_tol=rc.quad_abs_tol, rel_tol=rc.quad_rel_tol)


def _emit(rc: RunConfig, payload: dict, csv_spec=None) -> None:
    # the output path never influences the numbers, so it is left out of the
    # embedded config and reports stay byte-identical across destinations
    cfg_fields = {k: v for k, v in asdict(rc).items() if k != "output_path"}
    doc = {"config": {k: v for k, v in sorted(cfg_fields.items())}}
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


def _weights_hash(params: HurstParams, K: int) -> str:
    import hashlib

    return hashlib.sha256(asym.limit_weights(params, K).tobytes()).hexdigest()


def _cmd_coeffs(rc: RunConfig) -> int:
    if rc.n < 1:
        raise ValueError(f"n must be >= 1, got {rc.n}")
    params = HurstParams(rc.H, rc.sigma)
    quad = _quad(rc)
    tables = coefficient_tables(params, range(1, rc.n + 1), quad)
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


def _census_common(rc: RunConfig):
    params = HurstParams(rc.H, rc.sigma)
    quad = _quad(rc)
    spec = MarketSpec(N=rc.N, params=params, drift=DriftSpec.parse(rc.drift), s0=rc.s0)
    result = census(spec, quad, cap=rc.cap)
    tables = coefficient_tables(params, range(1, rc.N + 1), quad)
    return spec, result, table_fingerprint(tables)


def _cmd_census(rc: RunConfig) -> int:
    spec, result, fp = _census_common(rc)
    payload = {"coeff_cache_hash": fp}
    payload.update(result.to_dict(spec))
    rows = [(n + 1, result.per_level_counts[n], result.per_level_proportions[n])
            for n in range(rc.N)]
    _emit(rc, payload, csv_spec=(("n", "count", "proportion"), rows))
    return EXIT_OK


def _cmd_paths(rc: RunConfig) -> int:
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


def _cmd_mc_limit(rc: RunConfig) -> int:
    params = HurstParams(rc.H, rc.sigma)
    cfg = _mc_config(rc)
    est = asym.limit_proportion(params, cfg)
    payload = {"coeff_cache_hash": _weights_hash(params, est.K)}
    payload.update(est.to_dict())
    _emit(rc, payload, csv_spec=(("p_hat", "stderr", "ci_low", "ci_high", "samples", "K"),
                                 [(est.p_hat, est.stderr, est.ci_low, est.ci_high,
                                   est.samples, est.K)]))
    return EXIT_OK


def _cmd_mc_level(rc: RunConfig) -> int:
    params = HurstParams(rc.H, rc.sigma)
    # validated before the table build, whose cost grows as n^2
    if rc.n - 1 > asym._SAMPLER_K_CAP:
        raise ValueError(f"n must be at most {asym._SAMPLER_K_CAP + 1}, got {rc.n}")
    cfg = asym.McConfig(samples=rc.samples, seed=rc.seed, confidence=rc.confidence)
    table = coefficient_table(params, rc.n, _quad(rc))
    est = asym.finite_level_proportion(params, rc.n, rc.offset, table, cfg)
    payload = {"coeff_cache_hash": table_fingerprint([table])}
    payload.update(est.to_dict())
    _emit(rc, payload, csv_spec=(("p_hat", "stderr", "ci_low", "ci_high", "samples"),
                                 [(est.p_hat, est.stderr, est.ci_low, est.ci_high, est.samples)]))
    return EXIT_OK


def _cmd_hc(rc: RunConfig) -> int:
    h_c, H_c = solve_critical_hurst(rc.tol)
    payload = {
        "h_c": h_c,
        "H_c": H_c,
        "residual": abs(rho_sq_total(h_c) - 0.25),
        "tol": rc.tol,
    }
    _emit(rc, payload, csv_spec=(("h_c", "H_c", "residual"), [(h_c, H_c, payload["residual"])]))
    return EXIT_OK


def _cmd_charfn(rc: RunConfig) -> int:
    if rc.v_min > rc.v_max:
        raise ValueError(f"v-min {rc.v_min} exceeds v-max {rc.v_max}")
    params = HurstParams(rc.H, rc.sigma)
    vs = np.linspace(rc.v_min, rc.v_max, rc.points)
    values = [asym.characteristic_function(params, float(v), rc.tol) for v in vs]
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


def _cmd_reach(rc: RunConfig) -> int:
    params = HurstParams(rc.H, rc.sigma)
    prefix = _parse_prefix(rc.prefix)
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


def _cmd_convergence(rc: RunConfig) -> int:
    """Per-level time series: arbitrage-set proportion (non-strict), the
    strict exceedance diagnostic, and the variance split, plus the limit."""
    params = HurstParams(rc.H, rc.sigma)
    quad = _quad(rc)
    cfg = _mc_config(rc)
    levels = [int(x) for x in rc.n_list.split(",") if x]
    rows = []
    for n, table in zip(levels, coefficient_tables(params, levels, quad)):
        est, strict = asym._level_estimate(table, 0.0, cfg)
        var_bar, var_hat = asym.split_variances(params, n, table)
        rows.append((n, est.p_hat, est.stderr, est.ci_low, est.ci_high,
                     strict.p_hat, var_bar, var_hat))
    lim = asym.limit_proportion(params, cfg)
    payload = {
        "levels": [
            {"n": r[0], "p_hat": r[1], "stderr": r[2], "ci": [r[3], r[4]],
             "p_strict": r[5], "var_bar": r[6], "var_hat": r[7]}
            for r in rows
        ],
        "limit": lim.to_dict(),
        "var_hat_limit": 4.0 * params.g_H**2 * rho_sq_total(params.h),
        "regime": asym.regime_constants(params),
    }
    rows_csv = rows + [("limit", lim.p_hat, lim.stderr, lim.ci_low, lim.ci_high,
                        lim.p_hat, 0.0, payload["var_hat_limit"])]
    _emit(rc, payload, csv_spec=(
        ("n", "p_hat", "stderr", "ci_low", "ci_high", "p_strict", "var_bar", "var_hat"),
        rows_csv))
    return EXIT_OK


def _cmd_verify(rc: RunConfig) -> int:
    report = verify_mod.run_checks(full=rc.full)
    _emit(rc, report, csv_spec=(("check", "passed"),
                                [(c["name"], c["passed"]) for c in report["checks"]]))
    return EXIT_OK if report["all_passed"] else EXIT_CHECK_FAILED


_COMMANDS = {
    "coeffs": _cmd_coeffs,
    "census": _cmd_census,
    "paths": _cmd_paths,
    "mc-limit": _cmd_mc_limit,
    "mc-level": _cmd_mc_level,
    "hc": _cmd_hc,
    "charfn": _cmd_charfn,
    "reach": _cmd_reach,
    "convergence": _cmd_convergence,
    "verify": _cmd_verify,
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
        return _COMMANDS[rc.command](rc)
    except (CapExceededError, TruncationError) as exc:
        print(f"fracbin: cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except QuadratureError as exc:
        print(f"fracbin: nonconvergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except (ValueError, OSError) as exc:
        print(f"fracbin: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
