#!/usr/bin/env python3
"""Ensemble Hahn-echo study: stretched exponent and T2 density scaling.

Simulates Hahn-echo coherence for many random bulk nitrogen baths at two
densities, fits a stretched exponential with a plateau baseline to each
configuration, and reports the mean stretching exponent and the
median-T2 ratio between the densities (expected ~2 for a density
doubling, since the echo T2 scales inversely with density).
"""

import argparse
import sys

import numpy as np

from spinbath.validation import ensemble_echo_fit


def run(args):
    results = {}
    for ppm in args.densities:
        t2_med, n_mean, fits = ensemble_echo_fit(
            ppm, args.nconfigs, args.seed, n_spins=args.nspins)
        ns = np.array([f.n_exponent for f in fits])
        results[ppm] = (t2_med, n_mean)
        print(f"{ppm:g} ppm: {len(fits)} fits, mean n = {n_mean:.3f}, "
              f"median T2 = {t2_med * 1e3:.3f} us, "
              f"n quartiles = {np.percentile(ns, [25, 50, 75]).round(3)}")

    lo, hi = sorted(args.densities)
    ratio = results[lo][0] / results[hi][0]
    print(f"median-T2 ratio ({lo:g} ppm / {hi:g} ppm) = {ratio:.3f} "
          f"(density ratio {hi / lo:g})")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--densities", type=float, nargs=2, default=[25.0, 50.0],
                    help="two bulk densities in ppm (default 25 50)")
    ap.add_argument("--nconfigs", type=int, default=200)
    ap.add_argument("--nspins", type=int, default=100)
    ap.add_argument("--seed", type=int, default=1000)
    args = ap.parse_args(argv)
    try:
        return run(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
