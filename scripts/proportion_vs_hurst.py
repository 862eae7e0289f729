#!/usr/bin/env python3
"""Sweep the limiting arbitrage-point proportion across the memory exponent.

Writes a CSV with the Monte Carlo estimate, its confidence interval, the
Tchebysheff ceiling 4*sum(rho^2) and, where defined, the Paley-Zygmund floor.
Plot-ready: p_hat against H with ci_low/ci_high as an error band.
"""

import argparse

from fracbin import HurstParams, McConfig, limit_proportion, rho_sq_total
from fracbin.asymptotics import DEFAULT_TRUNCATION_K, regime_constants
from fracbin.reports import render_csv, write_text


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--samples", type=int, default=200_000)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--trunc-k", type=int, default=DEFAULT_TRUNCATION_K)
    ap.add_argument("--h-min", type=float, default=0.55)
    ap.add_argument("--h-max", type=float, default=0.95)
    ap.add_argument("--steps", type=int, default=9)
    ap.add_argument("--out", default="proportion_vs_hurst.csv")
    args = ap.parse_args()

    rows = []
    for k in range(args.steps):
        H = args.h_min + (args.h_max - args.h_min) * k / (args.steps - 1)
        p = HurstParams(H)
        est = limit_proportion(p, McConfig(samples=args.samples, seed=args.seed,
                                           truncation_k=args.trunc_k))
        rc = regime_constants(p)
        rows.append((H, est.p_hat, est.ci_low, est.ci_high,
                     4.0 * rho_sq_total(p.h), rc.get("floor", 0.0), est.tail_sd))
    cfg = {"samples": args.samples, "seed": args.seed, "trunc_k": args.trunc_k}
    write_text(args.out, render_csv(
        cfg, ("H", "p_hat", "ci_low", "ci_high", "tchebysheff", "pz_floor", "tail_sd"), rows))
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
