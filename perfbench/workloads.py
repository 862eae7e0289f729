"""Operation lists of the benchmark workloads, drawn from the workload seed.

An operation is the argv of one ``fracbin`` command, without ``--out``.
Sizes (N, samples, K, n, n_max) are fixed per slot, so the length of a list
and its cost do not depend on the seed.  The seed draws H, drift constants,
Philox seeds, reach prefixes and the order of the list.  H is drawn
stratified within each size class (one draw per equal-width stratum), so
costs that depend on H add up to nearly the same total for every seed.

The mixes put the median and the tail rank (15 and 20 of 30 operations)
inside a class of operations of like cost, never on the edge between two
classes: in the N = 23 class of ``census``, in the 10000 and 20000 sample
classes of ``mc-limit``, and in the ``reach`` and ``coeffs`` classes of
``levels``, whose costs barely depend on H.  (The cost of ``charfn --fit``
jumps with H, so it stays below the median.)
"""

from __future__ import annotations

import numpy as np

WORKLOADS = ("census", "mc-limit", "levels")

# seconds of one untraced pass over the full list on the machine the
# benchmark was built on (see DESIGN.md); --seconds divided by these fixes
# the number of passes, so two commits measured at the same --seconds take
# the best of equally many passes
PASS_SECONDS = {"census": 5.8, "mc-limit": 5.4, "levels": 4.5}

# census: (N, census ops, paths ops); paths op i shares its market with census op i
_CENSUS = {
    False: ((21, 3, 3), (22, 3, 3), (23, 6, 5), (24, 3, 2), (25, 1, 1)),
    True: ((10, 2, 2), (12, 2, 2), (14, 2, 2)),
}
# mc-limit: (samples, ops) at the default K = 8192; chunks hold 4096 samples
_MC_LIMIT = {
    False: ((6000, 11), (10000, 6), (20000, 13)),
    True: ((500, 6), (1000, 6)),
}
# levels: counts of each command and their sizes
_LEVELS = {
    False: dict(coeffs=(13, 200), reach=(5, 200), charfn=2, hc=2, mc_level_samples=20000,
                mc_level_n=(30, 60, 120, 250, 500, 1000, 1500, 2000)),
    True: dict(coeffs=(2, 20), reach=(2, 20), charfn=2, hc=2, mc_level_samples=2000,
               mc_level_n=(30, 60, 120, 250)),
}


def _strata(rng: np.random.Generator, k: int, lo: float, hi: float) -> list[float]:
    """k values, one uniform draw in each of k equal strata of (lo, hi), shuffled."""
    u = (np.arange(k) + rng.random(k)) / k
    return [float(lo + (hi - lo) * x) for x in rng.permutation(u)]


def _philox_seed(rng: np.random.Generator) -> str:
    return str(int(rng.integers(0, 2**63)))


def _census_ops(rng, smoke):
    ops = []
    for N, n_census, n_paths in _CENSUS[smoke]:
        for i, H in enumerate(_strata(rng, n_census, 0.55, 0.95)):
            drift = "zero" if rng.random() < 0.5 else f"const:{float(rng.uniform(-0.5, 0.5))!r}"
            market = ["--H", repr(H), "--N", str(N), "--drift", drift]
            ops.append(["census", *market])
            if i < n_paths:
                ops.append(["paths", *market])
    return ops


def _mc_limit_ops(rng, smoke):
    ops = []
    for samples, count in _MC_LIMIT[smoke]:
        for H in _strata(rng, count, 0.55, 0.95):
            ops.append(["mc-limit", "--H", repr(H), "--samples", str(samples),
                        "--seed", _philox_seed(rng), "--threads", "1"])
    return ops


def _levels_ops(rng, smoke):
    mix = _LEVELS[smoke]
    ops = []
    count, n = mix["coeffs"]
    for H in _strata(rng, count, 0.6, 0.9):
        ops.append(["coeffs", "--H", repr(H), "--n", str(n)])
    # just above H = 1/2 no arbitrage point is met, so reach walks to n_max
    count, n_max = mix["reach"]
    for H in _strata(rng, count, 0.501, 0.53):
        prefix = "".join("+-"[b] for b in rng.integers(0, 2, 8))
        direction = ("up", "down")[int(rng.integers(0, 2))]
        ops.append(["reach", "--H", repr(H), f"--prefix={prefix}", "--direction", direction,
                    "--n-max", str(n_max)])
    for n, H in zip(mix["mc_level_n"], _strata(rng, len(mix["mc_level_n"]), 0.55, 0.95)):
        ops.append(["mc-level", "--H", repr(H), "--n", str(n),
                    "--samples", str(mix["mc_level_samples"]),
                    "--seed", _philox_seed(rng), "--threads", "1"])
    # the decay fit costs grow steeply with H and fail to fit above H ~ 0.85
    for H in _strata(rng, mix["charfn"], 0.74, 0.78):
        ops.append(["charfn", "--H", repr(H), "--fit"])
    ops.extend(["hc"] for _ in range(mix["hc"]))
    return ops


_OP_LISTS = {"census": _census_ops, "mc-limit": _mc_limit_ops, "levels": _levels_ops}


def make_ops(workload: str, seed: int, smoke: bool = False) -> list[list[str]]:
    """The operation list of a workload; the same seed gives the same list."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    ops = _OP_LISTS[workload](rng, smoke)
    return [ops[i] for i in rng.permutation(len(ops))]
