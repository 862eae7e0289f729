"""The benchmark's span tracer still finds the sampler loops it times.

perfbench/tracer.py wraps fracbin functions by name and counts a sampler
loop's kept samples against the samples its _chunk_values children drew.
A rename of a traced function, or a chunk loop moved out from under a traced
sampler loop, must fail here and not only in the benchmark.
"""

import importlib.util
from pathlib import Path

import fracbin.cli
from fracbin.cli import EXIT_OK

_TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sampler_spans_nest_under_traced_loops(tmp_path):
    tracer = _tracer_module()
    runs = (["mc-limit", "--H", "0.8", "--samples", "5000", "--trunc-k", "256"],
            ["mc-level", "--H", "0.8", "--n", "30", "--samples", "5000"])
    with tracer.Tracer() as t:
        for i, argv in enumerate(runs):
            t.op = i
            assert fracbin.cli.main(argv + ["--out", str(tmp_path / f"{i}.json")]) == EXIT_OK
    spans = t.spans
    assert not [s for s in spans if (s[tracer.COUNTS] or {}).get("raised")]
    chunk_parents = {spans[s[tracer.PARENT]][tracer.NAME] if s[tracer.PARENT] >= 0 else None
                     for s in spans if s[tracer.NAME] == "asymptotics._chunk_values"}
    assert chunk_parents == {"asymptotics.limit_proportion", "asymptotics._level_estimate"}
    assert tracer.layer_metrics(spans)["asymptotics.sampler.useful_ratio"] == 1.0


def test_one_chunk_span_per_chunk_of_a_run(tmp_path):
    # 5000 samples at the default K = 8192: a full chunk and a short one, each
    # one span, whose bytes add up to every sample's 1024 bytes
    tracer = _tracer_module()
    with tracer.Tracer() as t:
        t.op = 0
        assert fracbin.cli.main(["mc-limit", "--samples", "5000",
                                 "--out", str(tmp_path / "out.json")]) == EXIT_OK
    chunks = [s[tracer.COUNTS] for s in t.spans if s[tracer.NAME] == "asymptotics._chunk_values"]
    assert [c["samples"] for c in chunks] == [4096, 904]
    assert sum(c["bytes"] for c in chunks) == 5000 * 1024
    assert tracer.layer_metrics(t.spans)["asymptotics._chunk_values.bytes"] == 5000 * 1024
