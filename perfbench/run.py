#!/usr/bin/env python3
"""fracbin benchmark: drives ``fracbin.cli.main`` in-process, one call at a time.

Run from the repository root:

    python3 perfbench/run.py --workload census --seed 1 --seconds 25 --trace 0

The load is a closed loop: one process, one operation at a time, every
sampling command at ``--threads 1``.  Before each operation the coefficient
table cache is cleared, so each operation pays the cold cache of a fresh
CLI process; reports go to a temporary directory.  The run makes as many
passes over the fixed operation list as fit in ``--seconds`` at the
workload's nominal pass time, at least three.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics.  The last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics.  Details (per-operation latencies, report digests, machine
facts, spans of traced passes) go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 5
MIN_PASSES = 3

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms",
             "peak_rss_mb": "MB"}
_LAYER_UNITS = {"calls": "count", "self_s": "s", "words": "count", "levels": "count",
                "entries_built": "count", "hit_ratio": "ratio", "bytes": "B",
                "useful_ratio": "ratio", "errors": "count", "overhead_s": "s"}


def layer_unit(name: str) -> str:
    return _LAYER_UNITS[name.rsplit(".", 1)[1]]


def parse_args(argv):
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-tests")
    ap.add_argument("--probe-setup", action="store_true",
                    help="import and generate the inputs, then exit (timed by setup_s)")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    return args


def import_fracbin():
    """Import fracbin from this checkout's src/, or exit with an error message."""
    if not (SRC / "fracbin" / "__init__.py").is_file():
        sys.exit(f"perfbench: fracbin sources not found under {SRC}")
    for key in [k for k in os.environ if k.startswith("FRACBIN_")]:
        del os.environ[key]
    sys.path.insert(0, str(SRC))
    import fracbin.cli

    if Path(fracbin.__file__).resolve().parent != (SRC / "fracbin").resolve():
        sys.exit(f"perfbench: imported fracbin from {fracbin.__file__}, not from {SRC}")


def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(math.ceil(p * len(sorted_values) / 100) - 1, 0)]


def op_best(passes) -> list[float]:
    """Per operation, its lowest latency in seconds over the passes."""
    return [min(p.latencies[i] for p in passes) for i in range(len(passes[0].latencies))]


def tail_percentile(n: int) -> int:
    """Highest whole percentile whose nearest rank has at least ten values above it."""
    return next((p for p in range(99, 0, -1) if n - math.ceil(p * n / 100) >= 10), 100)


class Pass:
    """One timed pass over the operation list.

    Operation i of pass k runs on CPU (i + k) mod the allowed CPUs: the
    vCPUs of a shared machine run at speeds that differ by up to 15 %
    for minutes at a time, and alternating spreads every operation over
    all of them instead of leaving a whole run on whichever CPU it started.
    """

    def __init__(self, ops, tmp, index=0, tracer=None):
        from fracbin import cli
        from fracbin.coefficients import clear_table_cache

        paths = [os.path.join(tmp, f"op{i:03d}.json") for i in range(len(ops))]
        cpus = sorted(os.sched_getaffinity(0))
        self.latencies, self.codes = [], []
        start = time.perf_counter()
        try:
            for i, argv in enumerate(ops):
                os.sched_setaffinity(0, {cpus[(i + index) % len(cpus)]})
                clear_table_cache()
                if tracer is not None:
                    tracer.op = i
                t0 = time.perf_counter()
                try:
                    code = cli.main([*argv, "--out", paths[i]])
                except SystemExit as exc:
                    code = exc.code
                except Exception as exc:  # any exception fails the operation
                    code = f"{type(exc).__name__}: {exc}"
                self.latencies.append(time.perf_counter() - t0)
                self.codes.append(code)
            self.wall = time.perf_counter() - start
        finally:
            os.sched_setaffinity(0, cpus)
        self.reports = []
        for i, path in enumerate(paths):
            ok = self.codes[i] == 0 and os.path.exists(path)
            self.reports.append(Path(path).read_bytes() if ok else None)
            if ok:
                os.remove(path)
        self.digests = [hashlib.sha256(r).hexdigest() if r is not None else None
                        for r in self.reports]


def measure_setup(workload: str, seed: int, smoke: bool) -> list[float]:
    """Wall seconds of fresh interpreters that import fracbin and build the inputs.

    Like the operations of a pass, the probes alternate between the CPUs.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--probe-setup"] + (["--smoke"] if smoke else [])
    cpus = sorted(os.sched_getaffinity(0))
    times = []
    try:
        for k in range(SETUP_PROBES):
            os.sched_setaffinity(0, {cpus[k % len(cpus)]})
            t0 = time.perf_counter()
            subprocess.run(cmd, check=True, timeout=120, cwd=ROOT,
                           stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            times.append(time.perf_counter() - t0)
    finally:
        os.sched_setaffinity(0, cpus)
    return times


def run_passes(ops, tmp, count: int, trace: bool, cap_s: float):
    """(untraced passes, traced passes with their tracers).

    ``count`` passes (pairs of an untraced and a traced pass when tracing), so
    both commits of a comparison take the best of equally many; no pass
    starts after ``cap_s`` seconds once the minimum is reached, which bounds
    the run on a much slower machine.
    """
    from tracer import Tracer

    untraced, traced = [], []
    least = 1 if trace else MIN_PASSES
    start = time.perf_counter()
    for k in range(max(count, least)):
        if k >= least and time.perf_counter() - start > cap_s:
            break
        untraced.append(Pass(ops, tmp, k))
        if trace:
            with Tracer() as tracer:
                traced.append((Pass(ops, tmp, k, tracer), tracer))
    return untraced, traced


def machine_facts() -> dict:
    import numpy
    import scipy

    blas_threads = None
    for lib in glob.glob(os.path.join(os.path.dirname(numpy.__path__[0]), "numpy.libs",
                                      "libscipy_openblas*")):
        fn = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            blas_threads = fn()
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": blas_threads, "machine": platform.machine()}


def find_failures(ops, passes) -> list[tuple]:
    """(pass, operation, reason) of every failed execution.

    The output checks run on the reports of the first pass; every later
    execution of an operation must repeat the bytes of its first report.
    """
    from checks import check_reports

    reasons = check_reports(ops, passes[0].reports)
    first = passes[0].digests
    failures = []
    for k, p in enumerate(passes):
        for i, code in enumerate(p.codes):
            if code != 0:
                failures.append((k, i, f"exit {code}"))
            elif reasons[i] is not None:
                failures.append((k, i, reasons[i]))
            elif p.digests[i] != first[i]:
                failures.append((k, i, "report bytes differ from the first pass"))
    return failures


def end_to_end(untraced, setup_times, peak_rss_mb) -> dict:
    # other tenants of a shared machine only ever add time, so the best of an
    # operation's passes estimates its own cost (see DESIGN.md)
    best = op_best(untraced)
    op_ms = sorted(t * 1e3 for t in best)
    return {
        "wall_s": sum(best),
        "setup_s": statistics.median(setup_times) if setup_times else None,
        "op_p50_ms": percentile(op_ms, 50),
        "op_tail_ms": percentile(op_ms, tail_percentile(len(best))),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(untraced, traced) -> dict:
    """Medians over the traced passes, and the tracing overhead."""
    from tracer import layer_metrics

    per_pass = [layer_metrics(tracer.spans) for _, tracer in traced]
    layers = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    layers["trace.overhead_s"] = sum(op_best([p for p, _ in traced])) - sum(op_best(untraced))
    return layers


def main(argv=None) -> int:
    args = parse_args(argv)
    import_fracbin()
    from workloads import PASS_SECONDS, make_ops

    ops = make_ops(args.workload, args.seed, smoke=args.smoke)
    if args.probe_setup:
        return 0
    from checks import workload_checks

    setup_times = [] if args.trace else measure_setup(args.workload, args.seed, args.smoke)
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    # --seconds over the workload's nominal pass time fixes the number of passes
    count = round(args.seconds / (PASS_SECONDS[args.workload] * (2 if args.trace else 1)))
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        untraced, traced = run_passes(ops, tmp, count, bool(args.trace), 2 * args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checks_start = time.perf_counter()
    passes = untraced + [p for p, _ in traced]
    failures = find_failures(ops, passes)
    workload_failures = workload_checks(args.workload)
    checks_s = time.perf_counter() - checks_start
    attempted = sum(len(p.codes) for p in passes)
    digest = hashlib.sha256("".join(d or "-" for d in passes[0].digests).encode()).hexdigest()

    e2e = end_to_end(untraced, setup_times, peak_rss_mb)
    layers = per_layer(untraced, traced) if traced else {}
    if traced:
        with open(f"{stem}-spans.jsonl", "w") as fh:
            for k, (_, tracer) in enumerate(traced):
                tracer.write_jsonl(fh, traced_pass=k)
    tail_p = tail_percentile(len(ops))
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "operations": len(ops), "ops": ops, "machine": machine_facts(),
        "end_to_end": e2e, "fail_frac": len(failures) / attempted,
        "op_tail_percentile": tail_p, "per_layer": layers,
        "report_digest": digest, "op_report_digests": passes[0].digests,
        "failures": failures, "workload_failures": workload_failures, "checks_s": checks_s,
        "setup_probes_s": setup_times,
        "pass_walls_s": [p.wall for p in untraced],
        "traced_pass_walls_s": [p.wall for p, _ in traced],
        "op_latency_ms": [[p.latencies[i] * 1e3 for p in untraced] for i in range(len(ops))],
    }
    stem.with_suffix(".json").write_text(json.dumps(detail, indent=1) + "\n")

    print(f"workload {args.workload} seed {args.seed}: {len(ops)} operations, "
          f"{len(untraced)} untraced and {len(traced)} traced passes")
    if args.trace:
        metrics = {name: {"value": v, "unit": layer_unit(name)} for name, v in layers.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in E2E_UNITS.items()}
        print(f"  wall_s, op_p50_ms and op_tail_ms (p{tail_p}) from the best of "
              f"{len(untraced)} passes of each operation; setup_s is the median of "
              f"{len(setup_times)} fresh interpreters")
    for name, m in metrics.items():
        print(f"  {name:<48} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_frac':<48} {len(failures) / attempted:.6g} "
          f"({len(failures)} of {attempted} operations)")
    print(f"  report digest sha256:{digest}")
    for k, i, why in failures[:10]:
        print(f"  FAILED pass {k} op {i} {' '.join(ops[i])}: {why}")
    for why in workload_failures:
        print(f"  FAILED workload check: {why}")

    result = {"correct": not failures and not workload_failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
