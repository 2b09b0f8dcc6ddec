#!/usr/bin/env python3
"""Sweep strong-coupling yield vs layer thickness and dump the report.

Slices the same master baths at every thickness, counts the fraction of
configurations whose greedy partition yields at least one strongly
coupled bath spin, and reports the thin/thick yield ratio and the
crossover thickness against the mean nearest-neighbor distance.
"""

import argparse
import sys

import numpy as np

from spinbath.bath import mean_nn_distance_formula
from spinbath.yields import write_yield_report, yield_sweep

DEFAULT_THICKNESSES = (0.5, 1.0, 2.0, 3.0, 4.5, 7.0, 10.0, 15.0, 25.0, 50.0)


def run(args):
    report = yield_sweep([args.density], args.thicknesses,
                         args.nconfigs, seed=args.seed)
    rnn = mean_nn_distance_formula(args.density)
    print(f"density            {args.density:g} ppm", file=sys.stderr)
    print(f"<r_nn>             {rnn:.3f} nm", file=sys.stderr)
    print(f"thin/thick ratio   {report.thin_thick_ratio():.3f}",
          file=sys.stderr)
    print(f"crossover          {report.crossover_thickness():.2f} nm",
          file=sys.stderr)
    for t, y, s in zip(report.thicknesses, report.yield_fraction[0],
                       report.yield_stderr[0]):
        print(f"  t = {t:6.2f} nm   yield = {y:.4f} +- {s:.4f}",
              file=sys.stderr)

    if args.out:
        with open(args.out, "w") as fh:
            write_yield_report(report, fh)
    else:
        write_yield_report(report, sys.stdout)
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--density", type=float, default=3.0,
                    help="nitrogen density in ppm (default 3)")
    ap.add_argument("--thicknesses", type=float, nargs="+",
                    default=list(DEFAULT_THICKNESSES),
                    help="layer thicknesses in nm")
    ap.add_argument("--nconfigs", type=int, default=10_000)
    ap.add_argument("--seed", type=int, default=700)
    ap.add_argument("--out", default=None,
                    help="report file (default: stdout)")
    args = ap.parse_args(argv)
    try:
        return run(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
