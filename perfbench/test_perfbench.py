"""Self-tests of the benchmark: tracer patching, self times, checks, smoke runs.

Run from the repository root with ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import fracbin  # noqa: E402
import fracbin.cli  # noqa: E402
from fracbin import asymptotics as asym  # noqa: E402
from fracbin.coefficients import coefficient_table  # noqa: E402
from fracbin.market import level_sign_values  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
from tracer import TARGETS, Tracer, layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS, make_ops  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _bindings() -> dict:
    """(module, attribute) -> object for every attribute of every fracbin module."""
    return {(name, attr): value for name, module in list(sys.modules.items())
            if name == "fracbin" or name.startswith("fracbin.")
            for attr, value in vars(module).items()}


def _wrapped() -> list:
    return [key for key, value in _bindings().items() if hasattr(value, "perfbench_span")]


def test_wrapper_patches_every_module_that_binds_a_name():
    with Tracer() as tracer:
        for module in ("coefficients", "market", "cli", "verify"):
            fn = getattr(sys.modules["fracbin." + module], "coefficient_table")
            assert fn.perfbench_span == "coefficients.coefficient_table", module
        for module in ("market", "asymptotics", "verify"):
            fn = getattr(sys.modules["fracbin." + module], "level_sign_values")
            assert fn.perfbench_span == "market.level_sign_values", module
        # exceedance_frequency imports coefficient_table from coefficients at
        # call time; its exact route reaches level_sign_values via asymptotics
        asym.exceedance_frequency(fracbin.HurstParams(0.75), [8],
                                  asym.McConfig(samples=100, seed=1))
    names = {span[0] for span in tracer.spans}
    assert {"coefficients.coefficient_table", "market.level_sign_values"} <= names
    assert len(_wrapped()) == 0


def test_every_wrapped_function_is_restored():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with Tracer():
            assert len(_wrapped()) >= len(TARGETS)
            raise RuntimeError("leave the block early")
    after = _bindings()
    assert all(after[key] is value for key, value in before.items())
    assert coefficient_table is fracbin.coefficients.coefficient_table
    assert level_sign_values is fracbin.asymptotics.level_sign_values


def test_untraced_run_installs_no_wrapper(monkeypatch):
    seen = []
    real_main = fracbin.cli.main

    def spy(argv):
        seen.append(_wrapped())
        return real_main(argv)

    monkeypatch.setattr(fracbin.cli, "main", spy)
    ops = make_ops("levels", 0, smoke=True)
    with tempfile.TemporaryDirectory() as tmp:
        untraced, traced = run.run_passes(ops, tmp, count=0, trace=False, cap_s=60.0)
    assert traced == [] and len(untraced) == run.MIN_PASSES
    assert len(seen) == run.MIN_PASSES * len(ops) and not any(seen)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_self_times_add_up_to_the_traced_wall(workload):
    ops = make_ops(workload, 1, smoke=True)
    with tempfile.TemporaryDirectory() as tmp, Tracer() as tracer:
        traced = run.Pass(ops, tmp, tracer=tracer)
    total = sum(self_times(tracer.spans))
    roots = [s for s in tracer.spans if s[3] == -1]
    assert [s[0] for s in roots] == ["cli.main"] * len(ops)
    assert total == pytest.approx(sum(s[2] - s[1] for s in roots), rel=1e-9)
    assert 0.9 * traced.wall <= total <= traced.wall


def test_layer_metrics_from_synthetic_spans():
    key = {"key": (0.7, 1.0, 5, fracbin.QuadratureConfig().key()), "n": 5}
    spans = [
        ["cli.main", 0.0, 10.0, -1, 0, {"errors": 0}],
        ["coefficients.coefficient_table", 1.0, 3.0, 0, 0, key],
        ["coefficients.coefficient_table", 3.0, 3.5, 0, 0, key],
        ["asymptotics.limit_proportion", 4.0, 9.0, 0, 0, {"kept": 6000}],
        ["asymptotics._chunk_values", 4.5, 6.5, 3, 0, {"samples": 4096, "bytes": 4096 * 1024}],
        ["asymptotics._chunk_values", 6.5, 8.5, 3, 0, {"samples": 4096, "bytes": 4096 * 1024}],
        ["cli.main", 10.0, 11.0, -1, 1, {"errors": 1}],
        ["coefficients.coefficient_table", 10.2, 10.4, 6, 1, key],
    ]
    m = layer_metrics(spans)
    assert m["cli.main.self_s"] == pytest.approx(10.0 - 2.0 - 0.5 - 5.0 + 1.0 - 0.2)
    assert m["asymptotics.limit_proportion.self_s"] == pytest.approx(1.0)
    assert m["coefficients.coefficient_table.calls"] == 3
    # the repeat inside op 0 is a hit; op 1 builds its own table again
    assert m["coefficients.coefficient_table.hit_ratio"] == pytest.approx(1 / 3)
    assert m["coefficients.coefficient_table.entries_built"] == 10
    assert m["asymptotics.sampler.useful_ratio"] == pytest.approx(6000 / 8192)
    assert m["asymptotics._chunk_values.bytes"] == 2 * 4096 * 1024
    assert m["cli.main.errors"] == 1


@pytest.mark.parametrize("offset", [0.0, 0.3])
def test_naive_level_count_matches_the_doubling_census(offset):
    table = coefficient_table(fracbin.HurstParams(0.8), 13)
    y = level_sign_values(table.j)
    arb = (y + table.g <= -offset) | (y - table.g >= -offset)
    count, symmetric = checks.naive_level_count(table.j, table.g, offset)
    assert count == int(np.count_nonzero(arb))
    assert symmetric == bool(np.array_equal(arb, arb[::-1]))
    assert symmetric == (offset == 0.0)


def test_tail_percentile_leaves_ten_operations_beyond():
    assert run.tail_percentile(30) == 66
    assert run.tail_percentile(100) == 90
    values = list(range(1, 31))
    assert run.percentile(values, 66) == 20 and run.percentile(values, 50) == 15


def _sizes(ops) -> list:
    flags = ("--N", "--n", "--samples", "--n-max")
    return sorted((o[0], *(v for f, v in zip(o, o[1:]) if f in flags)) for o in ops)


def test_inputs_depend_on_the_seed_but_sizes_do_not():
    for workload in WORKLOADS:
        a, b = make_ops(workload, 5), make_ops(workload, 6)
        assert a == make_ops(workload, 5) and a != b
        assert _sizes(a) == _sizes(b) and len(a) == 30


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_metric(workload, trace):
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "2", "--seconds", "0",
                         "--trace", str(trace), "--smoke"])
    assert code == 0 and time.perf_counter() - start < 60
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 12
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {name: v["unit"] for name, v in result["metrics"].items()}
