"""Package and CLI surface: exports, determinism of reports, exit codes, env overrides, verify."""

import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import fracbin
from fracbin import HurstParams, coefficient_table, solve_critical_hurst
from fracbin.cli import EXIT_CAP, EXIT_NONCONVERGENCE, EXIT_OK, EXIT_VALIDATION, main
from fracbin.coefficients import _TABLE_CACHE
from fracbin.hurst import SCALE_MAX
from fracbin.reports import render_json
from fracbin import verify as verify_mod


def run(args, tmp_path, name="out.json", fmt=None):
    out = tmp_path / name
    argv = list(args) + ["--out", str(out)]
    if fmt:
        argv += ["--format", fmt]
    rc = main(argv)
    return rc, out


def test_census_json_document(tmp_path):
    rc, out = run(["census", "--H", "0.75", "--N", "10"], tmp_path)
    assert rc == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["config"]["command"] == "census"
    assert doc["config"]["H"] == 0.75
    assert len(doc["coeff_cache_hash"]) == 64
    assert doc["spec"]["N"] == 10
    assert len(doc["per_level_counts"]) == 10
    assert doc["total"] == sum(doc["per_level_counts"])
    assert list(doc)[:2] == ["config", "coeff_cache_hash"]


def test_census_byte_identical(tmp_path):
    rc1, a = run(["census", "--H", "0.8", "--N", "12"], tmp_path, "a.json")
    first = a.read_bytes()
    rc2, b = run(["census", "--H", "0.8", "--N", "12"], tmp_path, "b.json")
    assert rc1 == rc2 == EXIT_OK
    assert first == b.read_bytes()  # output path is execution-only metadata
    rc3, c = run(["census", "--H", "0.8", "--N", "12"], tmp_path, "c.csv", fmt="csv")
    assert rc3 == EXIT_OK
    text = c.read_text()
    assert text.splitlines()[0].startswith("# ")
    assert "n,count,proportion" in text


def test_mc_level_exact(tmp_path):
    rc, out = run(["mc-level", "--H", "0.8", "--n", "14", "--samples", "50"], tmp_path)
    assert rc == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["exact"] is True
    assert doc["samples"] == 2**13


def test_hc_command(tmp_path):
    rc, out = run(["hc", "--tol", "1e-8"], tmp_path)
    assert rc == EXIT_OK
    doc = json.loads(out.read_text())
    h_c, H_c = solve_critical_hurst(1e-8)
    assert doc["h_c"] == h_c and doc["H_c"] == H_c
    assert doc["residual"] <= 1e-8


def test_hc_meets_a_tight_tol_or_exits_nonconvergent(tmp_path, capsys):
    rc, out = run(["hc", "--tol", "1e-12"], tmp_path)
    assert rc == EXIT_OK
    assert json.loads(out.read_text())["residual"] <= 1e-12
    rc, out = run(["hc", "--tol", "1e-300"], tmp_path, "tiny.json")
    assert rc == EXIT_NONCONVERGENCE
    assert not out.exists()
    assert "nonconvergence" in capsys.readouterr().err


def test_coeffs_csv(tmp_path):
    base = tmp_path / "tbl"
    rc = main(["coeffs", "--H", "0.7", "--n", "5", "--format", "csv", "--out", str(base)])
    assert rc == EXIT_OK
    jl = (tmp_path / "tbl_j.csv").read_text().splitlines()
    gl = (tmp_path / "tbl_g.csv").read_text().splitlines()
    assert jl[0] == "n,i,j_value,err" and gl[0] == "n,g_value,err"
    assert len(jl) == 1 + sum(n - 1 for n in range(1, 6))
    assert len(gl) == 1 + 5
    # every field is a plain float literal carrying the table entry's exact bits
    tables = {n: coefficient_table(HurstParams(0.7), n) for n in range(1, 6)}
    for line in jl[1:]:
        n, i, val, err = line.split(",")
        t = tables[int(n)]
        assert float(val).hex() == float(t.j[int(i) - 1]).hex()
        assert float(err).hex() == float(t.j_err[int(i) - 1]).hex()
    for line in gl[1:]:
        n, val, err = line.split(",")
        t = tables[int(n)]
        assert float(val).hex() == float(t.g).hex()
        assert float(err).hex() == float(t.g_err).hex()


def test_reach_command(tmp_path):
    rc, out = run(["reach", "--H", "0.75", "--prefix=----", "--direction", "up"], tmp_path)
    assert rc == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["steps"] == 10 and doc["level"] == 15


def test_reach_prefix_takes_only_plus_and_minus(tmp_path, capsys):
    rc, out = run(["reach", "--prefix=ud"], tmp_path)
    assert rc == EXIT_VALIDATION and not out.exists()
    assert capsys.readouterr().err == \
        "fracbin: invalid configuration: bad prefix character 'u' (use + and -)\n"


def test_charfn_command(tmp_path):
    rc, out = run(["charfn", "--H", "0.8", "--v-max", "2.0", "--points", "5", "--fit"], tmp_path)
    assert rc == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["points"][0] == [0.0, 1.0]
    assert abs(doc["fit"]["exponent"] - doc["fit"]["target_exponent"]) <= 0.2


def test_convergence_command(tmp_path):
    rc, out = run(
        ["convergence", "--H", "0.8", "--n-list", "10,14", "--samples", "20000", "--seed", "3"],
        tmp_path,
    )
    assert rc == EXIT_OK
    doc = json.loads(out.read_text())
    assert [lev["n"] for lev in doc["levels"]] == [10, 14]
    assert 0 <= doc["limit"]["p_hat"] <= 1


def test_convergence_draws_each_level_once(tmp_path, monkeypatch):
    # one pass per level counts both events: the sampled level and the limit
    # take two 4096-sample chunks each, so 4 chunks, not 6
    from fracbin import asymptotics as asym

    calls = []
    real = asym._chunk_values

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(asym, "_chunk_values", counted)
    rc, _ = run(["convergence", "--n-list", "30", "--samples", "5000"], tmp_path, "one.json")
    assert rc == EXIT_OK and len(calls) == 4
    # level 14 is enumerated, level 30 sampled; both agree bit for bit with
    # the library's non-strict and strict estimates
    rc, out = run(["convergence", "--n-list", "14,30", "--samples", "5000"], tmp_path)
    assert rc == EXIT_OK
    doc = json.loads(out.read_text())
    params = HurstParams(doc["config"]["H"])
    cfg = asym.McConfig(samples=5000, seed=doc["config"]["seed"])
    routes = []
    for level in doc["levels"]:
        n = level["n"]
        est = asym.finite_level_proportion(params, n, 0.0, coefficient_table(params, n), cfg)
        [(_, strict)] = asym.exceedance_frequency(params, [n], cfg)
        assert [level["p_hat"], level["stderr"], level["ci"]] == \
            [est.p_hat, est.stderr, [est.ci_low, est.ci_high]]
        assert level["p_strict"] == strict.p_hat
        routes.append((est.exact, strict.exact))
    assert routes == [(True, True), (False, False)]


def _csv_header(path):
    lines = path.read_text().splitlines()
    return dict(line[2:].split("=", 1) for line in lines if line.startswith("# "))


def test_csv_header_carries_dict_fields(tmp_path):
    args = ["charfn", "--H", "0.75", "--fit", "--points", "3"]
    _, js = run(args, tmp_path, "cf.json")
    _, cs = run(args, tmp_path, "cf.csv", fmt="csv")
    fit = json.loads(js.read_text())["fit"]
    head = _csv_header(cs)
    assert {k: head[f"fit.{k}"] for k in fit} == {k: repr(v) if isinstance(v, float) else str(v)
                                                  for k, v in fit.items()}
    args = ["convergence", "--H", "0.8", "--n-list", "10", "--samples", "2000"]
    _, js = run(args, tmp_path, "conv.json")
    _, cs = run(args, tmp_path, "conv.csv", fmt="csv")
    doc = json.loads(js.read_text())
    head = _csv_header(cs)
    assert {k for k in head if k.startswith("regime.")} == {f"regime.{k}" for k in doc["regime"]}
    assert head["limit.p_hat"] == repr(doc["limit"]["p_hat"])
    assert "limit.ci" not in head  # lists stay out of the header


def test_exit_codes(tmp_path):
    assert main(["census", "--H", "1.2", "--N", "5"]) == EXIT_VALIDATION
    assert main(["census", "--H", "0.75", "--N", "40"]) == EXIT_CAP
    assert main(["charfn", "--v-min", "1e6", "--v-max", "1e6", "--points", "1"]) == EXIT_CAP
    with pytest.raises(SystemExit) as exc:
        main(["not-a-command"])
    assert exc.value.code == EXIT_VALIDATION


def test_nonconvergence_exit_code(tmp_path):
    # j_2(1) carries a 16 eps rounding allowance, so no rule can meet 1e-15
    rc, out = run(["coeffs", "--n", "3", "--quad-abs-tol", "1e-15", "--quad-rel-tol", "1e-15"],
                  tmp_path)
    assert rc == EXIT_NONCONVERGENCE
    assert not out.exists()


def test_quadpack_flag_exits_without_a_warning(tmp_path, capsys):
    # g_2 exhausts the order ladder at 5e-15; no warning leaks
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, out = run(["coeffs", "--n", "3", "--quad-abs-tol", "5e-15", "--quad-rel-tol", "5e-15"],
                      tmp_path)
    assert rc == EXIT_NONCONVERGENCE
    assert not out.exists()
    err = capsys.readouterr().err
    assert "g_2: order ladder exhausted" in err and "Warning" not in err
    assert not caught


def test_zero_quadrature_tolerance_exits_2(tmp_path, capsys):
    rc, out = run(["coeffs", "--n", "3", "--quad-abs-tol", "0"], tmp_path)
    assert rc == EXIT_VALIDATION
    assert not out.exists()
    assert capsys.readouterr().err == \
        "fracbin: invalid configuration: quadrature tolerances must be positive\n"


def _loaded_modules(tmp_path, code, *argv):
    """Run code (which sets rc) with argv in a fresh interpreter; return rc
    and the sorted list of modules scipy and scipy.* it loaded, as printed.

    A fresh interpreter, because the test modules that compare against
    scipy import it into this process.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("FRACBIN_")}
    env["PYTHONPATH"] = str(Path(fracbin.__file__).resolve().parent.parent)
    script = (f"import sys\n{code}\n"
              "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", script, *argv],
                          env=env, cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().split(maxsplit=1)


@pytest.mark.parametrize("argv", [
    ["mc-limit", "--samples", "2000"],
    ["mc-level", "--n", "30", "--samples", "200"],
    ["charfn", "--fit"],
    ["hc"],
    ["reach", "--prefix=+-"],
    ["coeffs", "--n", "3"],
    ["census", "--N", "6"],
    ["paths", "--N", "6"],
    ["mc-level", "--n", "2", "--samples", "200"],
    ["convergence", "--n-list", "2", "--samples", "200"],
    ["reach", "--prefix=", "--H", "0.9"],  # the bracket screen leaves level 2 undecided
], ids=["mc-limit", "mc-level", "charfn", "hc", "reach", "coeffs", "census", "paths", "mc-level-2",
        "convergence-2", "reach-root"])
def test_table_free_commands_never_load_quadpack(tmp_path, argv):
    # every table, level 2 included, is built on the order ladder, and every
    # special function comes from fracbin.special: no scipy module loads
    code = "from fracbin.cli import main\nrc = main(sys.argv[1:])"
    argv = [*argv, "--out", str(tmp_path / "r.json")]
    assert _loaded_modules(tmp_path, code, *argv) == ["0", "[]"]


def test_unscaled_route_loads_no_scipy(tmp_path):
    # the N-dependent originals, verify's independent route, run on numpy too
    code = ("from fracbin import HurstParams, J_unscaled, g_unscaled\n"
            "p = HurstParams(0.75)\n"
            "rc = int(J_unscaled(p, 10, 5, 2) <= 0 or g_unscaled(p, 10, 5) <= 0)")
    assert _loaded_modules(tmp_path, code) == ["0", "[]"]


def test_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("FRACBIN_SAMPLES", "321")
    rc, out = run(["mc-limit", "--H", "0.7", "--seed", "1"], tmp_path)
    assert rc == EXIT_OK
    assert json.loads(out.read_text())["samples"] == 321


def test_stdout_output(capsys):
    rc = main(["hc", "--tol", "1e-6"])
    assert rc == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert 0.5 < doc["h_c"] < 0.75


def test_verify_fast_battery(tmp_path):
    rc, out = run(["verify"], tmp_path)
    doc = json.loads(out.read_text())
    assert [c["name"] for c in doc["checks"] if not c["passed"]] == []
    assert [c["name"] for c in doc["checks"]] == [
        "stored_goldens", "scaling_law", "coefficient_brackets", "weight_brackets",
        "turning_point", "census_agreement", "monotone_reach", "variance_limit",
        "limit_proportion_bounds", "characteristic_function", "mc_determinism",
        "critical_point"]
    assert rc == EXIT_OK and doc["all_passed"] is True


def test_verify_detects_corrupted_table():
    # perturbing a stored golden coefficient by 1e-6 must fail verify; the
    # golden comparison is the check sensitive at that scale (the bracket
    # inequalities are ~j*alpha/n wide, orders larger than 1e-6)
    params = HurstParams(0.75)
    table = coefficient_table(params, 5)
    key = next(k for k, v in _TABLE_CACHE.items() if v is table)
    j_bad = table.j.copy()
    j_bad[1] += 1e-6
    j_bad.setflags(write=False)
    import dataclasses

    _TABLE_CACHE[key] = dataclasses.replace(table, j=j_bad)
    try:
        assert not verify_mod.check_goldens()["passed"]
    finally:
        _TABLE_CACHE[key] = table
        assert verify_mod.check_goldens()["passed"]


def test_verify_full_passes_each_check_its_acceptance_sizes(monkeypatch):
    # a misspelled _FULL_SIZES key would run a check at fast sizes under
    # --full, and a misspelled keyword would only fail there; the checks are
    # replaced by recorders, so nothing is computed
    checks = {fn.__name__.removeprefix("check_"): fn for fn in verify_mod._FAST_CHECKS}
    assert set(verify_mod._FULL_SIZES) <= set(checks)
    for name, sizes in verify_mod._FULL_SIZES.items():
        inspect.signature(checks[name]).bind(**sizes)
    calls = []

    def recorder(name):
        def check(**sizes):
            calls.append((name, sizes))
            return {"name": name, "passed": True, "measured": None, "bound": None}
        check.__name__ = "check_" + name
        return check

    monkeypatch.setattr(verify_mod, "_FAST_CHECKS", tuple(map(recorder, checks)))
    assert verify_mod.run_checks(full=True)["all_passed"]
    assert calls == [(name, verify_mod._FULL_SIZES.get(name, {})) for name in checks]
    calls.clear()
    verify_mod.run_checks()
    assert calls == [(name, {}) for name in checks]


@pytest.mark.parametrize("argv", [
    ["mc-limit", "--H", "0.8", "--samples", "40000", "--seed", "7"],
    ["mc-level", "--H", "0.8", "--n", "30", "--samples", "3000", "--seed", "4"],
    ["convergence", "--H", "0.8", "--n-list", "10,24", "--samples", "5000", "--seed", "4",
     "--trunc-k", "512"],
], ids=["mc-limit", "mc-level", "convergence"])
def test_threads_option_is_ignored(tmp_path, monkeypatch, argv):
    rc, plain = run(argv, tmp_path, "plain.json")
    assert rc == EXIT_OK
    rc, flag = run(argv + ["--threads", "8"], tmp_path, "flag.json")
    assert rc == EXIT_OK
    monkeypatch.setenv("FRACBIN_THREADS", "8")
    rc, env = run(argv, tmp_path, "env.json")
    assert rc == EXIT_OK
    assert plain.read_bytes() == flag.read_bytes() == env.read_bytes()
    if argv[0] == "mc-limit":  # the default truncation and the generator it reports
        doc = json.loads(plain.read_text())
        assert doc["samples"] == 40000 and doc["K"] == 8192
        assert doc["generator"].startswith("philox4x64")


@pytest.mark.parametrize("argv", [
    ["census", "--H", "0.9", "--N", "12", "--drift", "const:nan"],
    ["census", "--H", "0.9", "--N", "12", "--drift", "poly:0.1,inf"],
    ["census", "--H", "0.9", "--N", "12", "--sigma", "inf"],
    ["mc-level", "--n", "30", "--samples", "100", "--offset", "nan"],
    ["charfn", "--v-max", "nan"],
    ["convergence", "--n-list", "30", "--sigma", "1e300"],
], ids=["drift-nan", "poly-inf", "sigma-inf", "offset-nan", "v-max-nan",
        "convergence-sigma"])
def test_non_finite_options_exit_2(tmp_path, capsys, argv):
    rc, out = run(argv, tmp_path)
    assert rc == EXIT_VALIDATION
    assert not out.exists()
    assert "finite" in capsys.readouterr().err


def _refused_before_any_table(argv, tmp_path, capsys, monkeypatch):
    """A sigma or drift above SCALE_MAX exits 2 naming the bound, before any
    table is built or sample drawn: no file under tmp_path, no numpy warning."""
    from fracbin import asymptotics, cli, market

    def no_work(*args, **kwargs):
        raise AssertionError(f"{argv[0]} built a table or sampled before refusing its scale")

    for module in (market, cli):
        monkeypatch.setattr(module, "coefficient_table", no_work)
        monkeypatch.setattr(module, "coefficient_tables", no_work)
    monkeypatch.setattr(asymptotics.SignSum, "estimates", no_work)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, _ = run(argv, tmp_path)
    assert rc == EXIT_VALIDATION
    assert not any(tmp_path.iterdir())
    assert caught == []
    assert f"at most {SCALE_MAX:g}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["census", "--N", "5", "--drift", "poly:1e308,1e308"],
    ["paths", "--N", "5", "--drift", "poly:1e308,1e308"],
    ["reach", "--prefix=+-", "--drift", "poly:1e308,1e308"],
], ids=["census", "paths", "reach"])
def test_overflowing_drift_exits_2(tmp_path, capsys, monkeypatch, argv):
    _refused_before_any_table(argv, tmp_path, capsys, monkeypatch)


@pytest.mark.parametrize("command", ["census", "paths"])
@pytest.mark.parametrize("sigma", ["1e308", "1.7e308"])
def test_census_with_a_non_finite_tolerance_exits_2(tmp_path, capsys, monkeypatch, command,
                                                    sigma):
    argv = [command, "--sigma", sigma, "--N", "12", "--drift", "const:0.5"]
    _refused_before_any_table(argv, tmp_path, capsys, monkeypatch)


@pytest.mark.parametrize("argv", [
    ["reach", "--sigma", "1e308", "--prefix=+-", "--n-max", "20"],
    ["mc-level", "--sigma", "1.7e308", "--n", "12", "--samples", "100"],
    ["mc-level", "--sigma", "1.7e308", "--n", "40", "--samples", "100"],
    ["coeffs", "--n", "3", "--sigma", "1.7e308"],
    ["coeffs", "--n", "3", "--sigma", "1.7e308", "--format", "csv"],
    ["mc-limit", "--sigma", "1.7e308", "--trunc-k", "65", "--samples", "100"],
    ["census", "--N", "8", "--sigma", "1.1e100"],
    ["census", "--N", "8", "--drift", "const:1.1e100"],
    ["mc-limit", "--sigma", "1e300", "--samples", "100"],
], ids=["reach", "mc-level-exact", "mc-level-sampled", "coeffs-json", "coeffs-csv", "mc-limit",
        "sigma-just-above", "drift-just-above", "mc-limit-1e300"])
def test_overflowing_sigma_exits_2(tmp_path, capsys, monkeypatch, argv):
    _refused_before_any_table(argv, tmp_path, capsys, monkeypatch)


def test_parser_is_rebuilt_only_when_the_environment_changes(tmp_path, monkeypatch):
    from fracbin import cli

    builds = []
    real_build = cli.build_parser

    def counting_build():
        builds.append(1)
        return real_build()

    monkeypatch.setattr(cli, "build_parser", counting_build)
    monkeypatch.setattr(cli, "_PARSER", (None, None))
    assert run(["hc"], tmp_path, "a.json")[0] == EXIT_OK
    assert run(["hc"], tmp_path, "b.json")[0] == EXIT_OK
    assert len(builds) == 1
    monkeypatch.setenv("FRACBIN_TOL", "1e-6")
    rc, out = run(["hc"], tmp_path, "c.json")
    assert rc == EXIT_OK and len(builds) == 2
    doc = json.loads(out.read_text())
    assert doc["tol"] == 1e-6 and doc["config"]["tol"] == 1e-6


@pytest.mark.parametrize("var, raw, argv", [
    ("FRACBIN_SAMPLES", "abc", ["hc"]),
    ("FRACBIN_H", "0.7x", ["census", "--N", "5"]),
    # a value outside the flag's choices, on its own command or another
    ("FRACBIN_DIRECTION", "sideways", ["reach", "--prefix=---"]),
    ("FRACBIN_DIRECTION", "sideways", ["hc"]),
    ("FRACBIN_FORMAT", "xml", ["hc"]),
    ("FRACBIN_TRUNC_K", "4.5", ["mc-limit", "--samples", "100"]),
], ids=["samples", "H", "direction", "direction-hc", "format", "trunc-k"])
def test_malformed_env_value_exits_2(tmp_path, capsys, monkeypatch, var, raw, argv):
    monkeypatch.setenv(var, raw)
    rc, out = run(argv, tmp_path)
    assert rc == EXIT_VALIDATION
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("fracbin: invalid configuration:") and var in err
    monkeypatch.delenv(var)
    assert run(argv, tmp_path)[0] == EXIT_OK


def test_flags_beat_the_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("FRACBIN_SAMPLES", "1500")
    monkeypatch.setenv("FRACBIN_DIRECTION", "down")
    monkeypatch.setenv("FRACBIN_FORMAT", "csv")
    monkeypatch.setenv("FRACBIN_TRUNC_K", "64")
    rc, out = run(["mc-limit", "--samples", "1000", "--format", "json"], tmp_path, "mc.json")
    assert rc == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["config"]["samples"] == doc["samples"] == 1000
    assert doc["config"]["trunc_k"] == doc["K"] == 64
    rc, out = run(["reach", "--prefix=+-", "--direction", "up"], tmp_path, "reach.csv")
    assert rc == EXIT_OK
    assert "# direction=up" in out.read_text().splitlines()
    rc, out = run(["reach", "--prefix=+-"], tmp_path, "env.csv")
    assert rc == EXIT_OK
    assert "# direction=down" in out.read_text().splitlines()


def test_charfn_keeps_a_negative_v_min(tmp_path):
    # F is even, so the grid is evaluated as given rather than clamped at 0
    rc, out = run(["charfn", "--v-min", "-3", "--v-max", "1", "--points", "3"], tmp_path)
    assert rc == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["config"]["v_min"] == -3.0
    assert [v for v, _ in doc["points"]] == [-3.0, -1.0, 1.0]
    assert doc["points"][1][1] == doc["points"][2][1]


def test_charfn_rejects_a_descending_grid(tmp_path, capsys):
    rc, out = run(["charfn", "--v-min", "2", "--v-max", "1"], tmp_path)
    assert rc == EXIT_VALIDATION
    assert not out.exists()
    assert "v-min" in capsys.readouterr().err


def test_mc_level_validates_before_building_the_table(tmp_path, monkeypatch, capsys):
    from fracbin import cli

    builds = []

    def no_build(*args, **kwargs):
        builds.append(args)
        raise AssertionError("coefficient_table built before validation")

    monkeypatch.setattr(cli, "coefficient_table", no_build)
    rc, out = run(["mc-level", "--n", "70000"], tmp_path)
    assert rc == EXIT_VALIDATION
    assert not out.exists() and builds == []
    assert "n must be at most 65537, got 70000" in capsys.readouterr().err


@pytest.mark.parametrize("argv, level", [
    (["coeffs", "--n", "65538"], 65538),
    (["coeffs", "--n", "1000000"], 1000000),
    (["convergence", "--n-list", "10,1000000,20"], 1000000),
    (["convergence", "--n-list", "65538"], 65538),
    (["reach", "--n-max", "65537"], 65538),
    (["reach", "--prefix=+-", "--n-max", "10000000"], 10000003),
], ids=["coeffs-edge", "coeffs-large", "convergence-gapped", "convergence-edge", "reach-edge",
        "reach-large"])
def test_level_cap_is_checked_before_building_any_table(tmp_path, monkeypatch, capsys, argv, level):
    # the cap of mc-level holds for every command that takes a level; without
    # it coeffs --n 1000000 starts a build whose first buffer is about 3 GB,
    # and reach's walk to a level screens and stores every level up to it
    from fracbin import cli

    builds = []

    def no_build(*args, **kwargs):
        builds.append(args)
        raise AssertionError("coefficient_tables built before validation")

    monkeypatch.setattr(cli, "coefficient_tables", no_build)
    monkeypatch.setattr(cli, "monotone_reach", no_build)
    rc, out = run(argv, tmp_path)
    assert rc == EXIT_VALIDATION
    assert not out.exists() and builds == []
    assert f"n must be at most 65537, got {level}" in capsys.readouterr().err


@pytest.mark.parametrize("sigma", ["1e154", "1e300", "1.7e308"])
def test_convergence_with_an_overflowing_variance_exits_2_before_sampling(
        tmp_path, capsys, monkeypatch, sigma):
    argv = ["convergence", "--n-list", "30,10", "--sigma", sigma]
    _refused_before_any_table(argv, tmp_path, capsys, monkeypatch)


@pytest.mark.parametrize("sigma, prefix, direction", [
    ("1.7e308", "", "up"), ("1.7e308", "+-", "down"), ("1e308", "----", "up"),
    ("1e308", "+-+-+-+-", "down"),
])
def test_reach_near_overflow_sigma_exits_2(tmp_path, capsys, monkeypatch, sigma, prefix,
                                           direction):
    argv = ["reach", "--sigma", sigma, f"--prefix={prefix}", "--direction", direction]
    _refused_before_any_table(argv, tmp_path, capsys, monkeypatch)


@pytest.mark.parametrize("n, budget, built", [
    (4097, None, False), (65537, None, False), (4096, None, True), (201, 8 * 200 * 199, False),
    (200, 8 * 200 * 199, True),
], ids=["above", "level-cap", "edge", "patched-above", "patched-edge"])
def test_coeffs_byte_budget(tmp_path, capsys, monkeypatch, n, budget, built):
    # levels 1..n hold 8 n(n-1) bytes of j and j_err; past the budget coeffs
    # exits 4 before any table is built
    from fracbin import cli

    if budget is not None:
        monkeypatch.setattr(cli, "_COEFFS_BUDGET_BYTES", budget)
    else:
        assert 8 * 4096 * 4095 <= cli._COEFFS_BUDGET_BYTES < 8 * 4097 * 4096
    builds = []
    real = cli.coefficient_tables

    def recording(params, levels, cfg):
        builds.append(list(levels))
        return real(params, levels, cfg) if budget is not None else []

    monkeypatch.setattr(cli, "coefficient_tables", recording)
    rc, out = run(["coeffs", "--n", str(n)], tmp_path)
    if built:
        assert rc == EXIT_OK and builds == [list(range(1, n + 1))]
    else:
        assert rc == EXIT_CAP and builds == [] and not out.exists()
        assert f"coeffs n={n} needs {8 * n * (n - 1)} bytes" in capsys.readouterr().err


@pytest.mark.parametrize("above", [True, False], ids=["above", "edge"])
def test_charfn_points_cap(tmp_path, capsys, monkeypatch, above):
    # past the cap charfn exits 2 before its grid is built or F evaluated
    from fracbin import cli

    points = cli._CHARFN_POINTS_CAP + above
    evaluated = []

    def stub(params, v, tol):
        assert not above, "F evaluated past the points cap"
        evaluated.append(len(v))
        return np.zeros(len(v))

    def no_grid(*args, **kwargs):
        raise AssertionError("grid built past the points cap")

    monkeypatch.setattr(cli.asym, "characteristic_function", stub)
    if above:
        monkeypatch.setattr(np, "linspace", no_grid)
    rc, out = run(["charfn", "--points", str(points)], tmp_path)
    if above:
        assert rc == EXIT_VALIDATION and not out.exists()
        assert f"at most {cli._CHARFN_POINTS_CAP}, got {points}" in capsys.readouterr().err
    else:
        assert rc == EXIT_OK and evaluated == [points]
        assert len(json.loads(out.read_text())["points"]) == points


@pytest.mark.parametrize("argv, lookups_per_sample", [
    (["mc-limit"], 1024),  # K = 8192
    (["mc-limit", "--trunc-k", "100"], 13),
    (["mc-level", "--n", "2000"], 250),  # 1999 weights
    (["convergence", "--n-list", "10,30,100"], 4 + 13 + 1024),  # level 10 is enumerated
], ids=["mc-limit", "mc-limit-K100", "mc-level", "convergence"])
@pytest.mark.parametrize("above", [True, False], ids=["above", "edge"])
def test_sample_budget(tmp_path, capsys, monkeypatch, argv, lookups_per_sample, above):
    # past the lookup cap a sampling command exits 4 before any table or
    # stream is built; at the cap it goes on to build them (stubbed out here)
    from fracbin import cli

    class Started(Exception):
        pass

    def refuse(*args, **kwargs):
        raise Started

    for module, name in ((cli, "coefficient_table"), (cli, "coefficient_tables"),
                         (cli.asym, "limit_weights"), (cli.asym, "_chunks")):
        monkeypatch.setattr(module, name, refuse)
    samples = cli._SAMPLE_LOOKUP_CAP // lookups_per_sample + above
    argv = [*argv, "--samples", str(samples)]
    if above:
        rc, out = run(argv, tmp_path)
        assert rc == EXIT_CAP and not out.exists()
        err = capsys.readouterr().err
        assert f"need {samples * lookups_per_sample} table lookups" in err
    else:
        with pytest.raises(Started):
            run(argv, tmp_path)


@pytest.mark.parametrize("argv", [
    ["coeffs", "--n", "-3"],
    ["coeffs", "--n", "0"],
    ["reach", "--n-max", "-5"],
    ["reach", "--n-max", "0"],
    ["charfn", "--points", "-1"],
    ["charfn", "--points", "0"],
], ids=["coeffs-negative", "coeffs-zero", "reach-negative", "reach-zero", "charfn-negative",
        "charfn-zero"])
def test_sizes_below_one_exit_2(tmp_path, capsys, argv):
    rc, out = run(argv, tmp_path)
    assert rc == EXIT_VALIDATION
    assert not out.exists()
    assert "must be >= 1" in capsys.readouterr().err


def test_convergence_without_levels_reports_the_mc_limit(tmp_path):
    # `convergence --n-list=` is the per-H row of the proportion sweep
    common = ["--H", "0.9", "--samples", "8000", "--seed", "1", "--trunc-k", "2048"]
    rc, conv = run(["convergence", "--n-list="] + common, tmp_path, "conv.json")
    assert rc == EXIT_OK
    rc, lim = run(["mc-limit"] + common, tmp_path, "lim.json")
    assert rc == EXIT_OK
    doc, ref = json.loads(conv.read_text()), json.loads(lim.read_text())
    assert doc["levels"] == []
    assert {"rho_sq_sum", "floor"} <= set(doc["regime"])
    for key in ("p_hat", "ci", "tail_sd"):
        assert doc["limit"][key] == ref[key]


@pytest.mark.parametrize("argv", [
    ["coeffs", "--H", "0.7", "--n", "40"],
    ["census", "--H", "0.75", "--N", "12", "--drift", "const:0.1"],
    ["paths", "--H", "0.9", "--N", "10"],
    ["mc-limit", "--H", "0.8", "--samples", "3000"],
    ["mc-level", "--H", "0.8", "--n", "12"],
    ["mc-level", "--H", "0.8", "--n", "40", "--samples", "3000"],
    ["hc"],
    ["charfn", "--H", "0.77", "--v-min", "-3"],
    ["charfn", "--H", "0.77", "--fit"],
    ["reach", "--H", "0.7", "--prefix=+-"],
    ["reach", "--H", "0.505", "--n-max", "25"],
    ["convergence", "--H", "0.8", "--samples", "3000"],
    ["verify"],
], ids="-".join)
def test_report_bytes_equal_json_dumps(argv, tmp_path, monkeypatch):
    # every command's document, as handed to the renderer
    docs = []

    def capture(doc):
        docs.append(doc)
        return render_json(doc)

    monkeypatch.setattr(fracbin.cli, "render_json", capture)
    rc, out = run(argv, tmp_path)
    assert rc == EXIT_OK and len(docs) == 1
    assert out.read_text() == json.dumps(docs[0], indent=2, allow_nan=True) + "\n"


_QUAD_KEYS = {"quad_abs_tol", "quad_rel_tol"}
_MARKET_KEYS = {"H", "sigma", "N", "drift", "cap"} | _QUAD_KEYS


@pytest.mark.parametrize("argv, keys", [
    (["coeffs", "--n", "3"], {"H", "sigma", "n"} | _QUAD_KEYS),
    (["census", "--N", "8"], _MARKET_KEYS),
    (["paths", "--N", "8"], _MARKET_KEYS),
    (["mc-limit", "--samples", "500", "--threads", "8"],
     {"H", "sigma", "samples", "seed", "trunc_k", "confidence"}),
    (["mc-level", "--n", "12", "--threads", "8"],
     {"H", "sigma", "n", "samples", "seed", "offset", "confidence"} | _QUAD_KEYS),
    (["hc"], {"tol"}),
    (["charfn", "--points", "2"], {"H", "sigma", "v_min", "v_max", "points", "tol", "fit"}),
    (["reach", "--prefix=+-"], {"H", "sigma", "prefix", "direction", "n_max", "drift"} | _QUAD_KEYS),
    (["convergence", "--n-list", "10", "--samples", "500"],
     {"H", "sigma", "n_list", "samples", "seed", "trunc_k", "confidence"} | _QUAD_KEYS),
    (["verify"], {"full"}),
], ids=["coeffs", "census", "paths", "mc-limit", "mc-level", "hc", "charfn", "reach",
        "convergence", "verify"])
def test_config_block_holds_only_the_command_options(tmp_path, monkeypatch, argv, keys):
    # a report embeds its command, its format and its own options, so an
    # option of one command never changes another command's bytes
    monkeypatch.setattr(verify_mod, "run_checks",
                        lambda full: {"checks": [], "all_passed": True})
    rc, out = run(argv, tmp_path)
    assert rc == EXIT_OK
    doc = json.loads(out.read_text())
    assert set(doc["config"]) == {"command", "output_format"} | keys
    if argv[0] != "census":
        return
    rc, csv = run(argv, tmp_path, "census.csv", fmt="csv")
    assert rc == EXIT_OK
    header = [line for line in csv.read_text().splitlines() if line.startswith("# ")]
    assert header == [
        "# H=0.75", "# N=8", "# cap=26", f"# coeff_cache_hash={doc['coeff_cache_hash']}",
        "# command=census", "# drift=zero", "# output_format=csv",
        f"# path_count={doc['path_count']}", "# quad_abs_tol=1e-10", "# quad_rel_tol=1e-09",
        "# sigma=1.0", "# spec.H=0.75", "# spec.N=8", "# spec.drift=zero",
        "# spec.sigma=1.0", f"# total={doc['total']}",
    ]


def test_every_option_and_field_has_a_user():
    # no option outlives the last command that reads it (format and out end
    # every command's list), and every valued option, the ones FRACBIN_* can
    # set, declares its default field in _OPTIONS; flags default to False
    from fracbin import cli

    used = {name for _, options, _ in cli._COMMANDS.values() for name in options}
    assert used | {"format", "out"} == set(cli._OPTIONS)
    valued = {name for name, kw in cli._OPTIONS.items() if "type" in kw}
    assert valued == {name for name, kw in cli._OPTIONS.items() if "default" in kw}
    assert set(cli._OPTIONS) - valued == {"fit", "full"}


@pytest.mark.parametrize("command", ["census", "paths"])
def test_market_commands_take_no_initial_price(command):
    # the arbitrage test is scale-free in S_0, so no census number reads it
    with pytest.raises(SystemExit) as exc:
        main([command, "--N", "5", "--s0", "1"])
    assert exc.value.code == EXIT_VALIDATION


_QUAD_DEFAULTS = {"quad_abs_tol": 1e-10, "quad_rel_tol": 1e-9}
_MC_DEFAULTS = {"H": 0.75, "sigma": 1.0, "samples": 100_000, "seed": 0, "confidence": 0.99}
_MARKET_DEFAULTS = {"H": 0.75, "sigma": 1.0, "N": 16, "drift": "zero", "cap": 26,
                    **_QUAD_DEFAULTS}


@pytest.mark.parametrize("argv, config", [
    (["coeffs"], {"H": 0.75, "sigma": 1.0, "n": 16, **_QUAD_DEFAULTS}),
    (["census"], _MARKET_DEFAULTS),
    (["paths"], _MARKET_DEFAULTS),
    (["mc-limit"], {**_MC_DEFAULTS, "trunc_k": 8192}),
    (["mc-level"], {**_MC_DEFAULTS, "n": 16, "offset": 0.0, **_QUAD_DEFAULTS}),
    (["hc"], {"tol": 1e-8}),
    (["charfn"], {"H": 0.75, "sigma": 1.0, "v_min": 0.0, "v_max": 4.0, "points": 21, "tol": 1e-8,
                  "fit": False}),
    (["reach"], {"H": 0.75, "sigma": 1.0, "prefix": "", "direction": "up", "n_max": 10_000,
                 "drift": "zero", **_QUAD_DEFAULTS}),
    (["convergence"], {**_MC_DEFAULTS, "n_list": "10,14,18", "trunc_k": 8192, **_QUAD_DEFAULTS}),
    (["verify"], {"full": False}),
], ids=["coeffs", "census", "paths", "mc-limit", "mc-level", "hc", "charfn", "reach",
        "convergence", "verify"])
def test_default_config_values(tmp_path, monkeypatch, argv, config):
    # every command's config block at its defaults, value and type, so a
    # default moved or retyped changes a report only with this test; each
    # handler is replaced by one that emits the config block alone
    from fracbin import cli

    def emit_config(rc):
        cli._emit(rc, {})
        return EXIT_OK

    help_text, options, _ = cli._COMMANDS[argv[0]]
    monkeypatch.setitem(cli._COMMANDS, argv[0], (help_text, options, emit_config))
    rc, out = run(argv, tmp_path)
    assert rc == EXIT_OK
    expected = {"command": argv[0], "output_format": "json", **config}
    assert out.read_text() == render_json({"config": dict(sorted(expected.items()))})


def test_export_lists_name_bound_attributes():
    # a stale __all__ entry breaks only `from fracbin import *`
    modules = [fracbin] + [importlib.import_module(f"fracbin.{m.name}")
                           for m in pkgutil.iter_modules(fracbin.__path__)]
    assert sum(hasattr(mod, "__all__") for mod in modules) >= 5  # the package and four modules
    assert [f"{mod.__name__}.{name}" for mod in modules for name in getattr(mod, "__all__", ())
            if not hasattr(mod, name)] == []
