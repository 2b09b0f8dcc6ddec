#!/usr/bin/env python3
"""Benchmark the maximum-likelihood density estimator against itself.

Builds a coherence library over a (thickness, density) grid, then
bootstrap-resamples datasets of N dephasing rates from interior cells
and measures the relative error of the recovered density as a function
of N, together with the fitted power-law exponent of the mean squared
error.
"""

import argparse
import sys

from spinbath.mle import benchmark_error, build_library, write_library

THICKNESSES = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)
DENSITIES = (1.0, 2.0, 3.0, 5.0, 8.0, 12.0)


def run(args):
    library = build_library(THICKNESSES, DENSITIES, args.nsamples, args.seed)
    if args.library_out:
        with open(args.library_out, "w") as fh:
            write_library(library, fh)

    bench = benchmark_error(library, args.counts, args.trials,
                            fixed_thickness=args.thickness,
                            seed=args.benchmark_seed)
    print(f"power-law exponent p = {bench.exponent:.3f} "
          f"(fit residual {bench.fit_residual:.3f})")
    for n, err in zip(bench.sample_counts, bench.mean_relative_error):
        print(f"  N = {n:3d}   rms relative error = {err:.3f}")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--nsamples", type=int, default=500,
                    help="T2* samples per library cell (default 500)")
    ap.add_argument("--trials", type=int, default=200,
                    help="bootstrap trials per (N, density) (default 200)")
    ap.add_argument("--thickness", type=float, default=4.0,
                    help="fixed layer thickness for the linecut (nm)")
    ap.add_argument("--counts", type=int, nargs="+",
                    default=[2, 4, 8, 16, 32])
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--benchmark-seed", type=int, default=1)
    ap.add_argument("--library-out", default=None,
                    help="optionally save the library to this file")
    args = ap.parse_args(argv)
    try:
        return run(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
