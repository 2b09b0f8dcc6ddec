"""Maximum-likelihood bath-density estimation from dephasing-rate datasets.

A coherence library holds, per (thickness, density) grid cell, raw samples
of the inhomogeneous dephasing rate 1/T2* (ms^-1).  Each cell is turned
into an interpolated probability density P(1/T2*); the joint likelihood of
a measured rate dataset is the product of per-measurement densities, and
the bath density is estimated from the likelihood linecut at fixed
thickness.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from . import __version__
from .cce import spawn_seed
from .fitting import SweepGrid, run_sweep
from .textio import LineReader

LOG10 = np.log(10.0)
DEFAULT_N_BINS = 200
REFINE_STEP_PPM = 0.25
LINECUT_FLAT_TOL = 1e-12


class RatePDF:
    """Histogram density of log10(rate) with linear interpolation.

    Binning is uniform in log10(1/T2*): dephasing rates are heavy-tailed
    (near-neighbor configurations reach rates orders of magnitude above
    the bulk), so linear-rate binning collapses the bulk into one or two
    bins.  The density is expressed per unit rate, normalized to integrate
    to 1 over the sample support, then floored at
    P_min = 1 / (10 * n_samples * support_width) so that a single outlier
    measurement cannot zero a likelihood product.
    """

    def __init__(self, samples, n_bins=DEFAULT_N_BINS):
        samples = np.asarray(samples, dtype=float)
        if samples.size == 0:
            raise ValueError("empty cell: cannot build a rate PDF")
        if not np.all(np.isfinite(samples)) or np.any(samples <= 0):
            raise ValueError("rate samples must be finite and positive")
        self.samples = np.sort(samples)
        self.n_samples = int(samples.size)
        x = np.log10(self.samples)
        lo, hi = float(x.min()), float(x.max())
        if hi - lo < 1e-12:  # degenerate cell: single-bin spike
            lo, hi = lo - 1e-6, hi + 1e-6
        self.log_edges = np.linspace(lo, hi, n_bins + 1)
        counts, _ = np.histogram(x, bins=self.log_edges)
        self.log_centers = 0.5 * (self.log_edges[:-1] + self.log_edges[1:])
        dens = counts / (self.n_samples * np.diff(self.log_edges))
        # renormalize the piecewise-linear interpolant (not the step
        # histogram) so the integral over the support is exactly 1
        fine = np.linspace(lo, hi, 4 * n_bins + 1)
        vals = np.interp(fine, self.log_centers, dens)
        norm = np.trapezoid(vals, fine)
        self.log_density = dens / norm
        self.support = (float(self.samples[0]), float(self.samples[-1]))
        width = max(self.support[1] - self.support[0],
                    self.support[0] * 1e-9)
        self.floor = 1.0 / (10.0 * self.n_samples * width)

    def raw(self, rates):
        """Un-floored density per unit rate (0 outside support)."""
        rates = np.asarray(rates, dtype=float)
        out = np.zeros(rates.shape)
        ok = rates > 0
        u = np.log10(np.where(ok, rates, 1.0))
        p_log = np.interp(u, self.log_centers, self.log_density,
                          left=0.0, right=0.0)
        out[ok] = p_log[ok] / (rates[ok] * LOG10)
        return out

    def __call__(self, rates):
        return np.maximum(self.raw(rates), self.floor)


@dataclass(frozen=True)
class CoherenceLibrary:
    thicknesses: np.ndarray  # nm
    densities: np.ndarray  # ppm
    cells: dict  # (i_thickness, j_density) -> sorted rates (ms^-1)
    n_bins: int = DEFAULT_N_BINS
    provenance: dict = dataclass_field(default_factory=dict)
    # (i, j) -> RatePDF, built on first use
    _pdf_cache: dict = dataclass_field(default_factory=dict, init=False,
                                       compare=False, repr=False)

    def __post_init__(self):
        for key, samples in self.cells.items():
            samples = np.asarray(samples)
            if samples.size == 0:
                raise ValueError(f"empty library cell {key}")
            if not np.all(np.isfinite(samples)) or np.any(samples <= 0):
                raise ValueError(f"invalid rate samples in cell {key}")

    def pdf(self, i, j) -> RatePDF:
        if (i, j) not in self._pdf_cache:
            self._pdf_cache[(i, j)] = RatePDF(self.cells[(i, j)],
                                              n_bins=self.n_bins)
        return self._pdf_cache[(i, j)]


@dataclass(frozen=True)
class LikelihoodSurface:
    thicknesses: np.ndarray  # nm (grid rows)
    densities: np.ndarray  # ppm (refined axis)
    log_likelihood: np.ndarray  # (n_thickness, n_density)
    argmax: tuple  # (i_thickness, i_density)

    def __post_init__(self):
        if not np.all(np.isfinite(self.log_likelihood)):
            raise ValueError("log-likelihood values must be finite")
        flat = int(np.argmax(self.log_likelihood))
        expect = np.unravel_index(flat, self.log_likelihood.shape)
        if tuple(expect) != tuple(self.argmax):
            raise ValueError("stored argmax inconsistent with values")


@dataclass(frozen=True)
class DensityEstimate:
    rho_mle: float  # ppm
    rho_sigma: float  # ppm
    fixed_thickness: float  # nm

    def __post_init__(self):
        if self.rho_sigma <= 0:
            raise ValueError("rho_sigma must be positive")


@dataclass(frozen=True)
class ErrorBenchmark:
    sample_counts: np.ndarray
    mean_relative_error: np.ndarray  # sqrt(<eps^2>) per N
    mean_squared_error: np.ndarray  # <eps^2> per N
    amplitude: float  # A of A * N^-p fitted to <eps^2>
    exponent: float  # p
    fit_residual: float


def build_library(thicknesses, densities, n_samples, seed,
                  placement_mode="continuum-poisson",
                  n_bins=DEFAULT_N_BINS) -> CoherenceLibrary:
    """Populate the grid with 1/T2* samples via the analytic dephasing route
    (a T2* sweep turned into a library by library_from_sweep)."""
    grid = run_sweep(thicknesses, densities, n_samples, seed,
                     placement_mode=placement_mode)
    return library_from_sweep(grid, n_bins=n_bins)


def library_from_sweep(grid: SweepGrid, n_bins=DEFAULT_N_BINS) -> CoherenceLibrary:
    """Library of the sorted rates 1/T2* of each cell of a T2* sweep.

    T2* per configuration comes from the strong/weak partition formula;
    configurations whose weak bath is empty (infinite T2*) are excluded,
    matching the sweep-statistics convention, and a cell left without
    samples raises ValueError.
    """
    cells = {}
    for key, t2s in grid.cells.items():
        finite = t2s[np.isfinite(t2s) & (t2s > 0)]
        if finite.size == 0:
            raise ValueError(f"library cell {key} has no finite samples")
        cells[key] = np.sort(1.0 / finite)
    meta = grid.metadata
    return CoherenceLibrary(
        thicknesses=grid.thicknesses, densities=grid.densities,
        cells=cells, n_bins=n_bins,
        provenance={"seed": meta["seed"], "n_samples": meta["n_configs"],
                    "placement_mode": meta.get("placement_mode"),
                    "engine_version": __version__,
                    "schema": "spinbath-library-1"})


def _interpolation(densities):
    """The density axis refined to about REFINE_STEP_PPM, with the grid
    index j and weight w of each refined density: its cell PDFs mix as
    (1-w) P_j + w P_{j+1}."""
    grid_d = np.asarray(densities, dtype=float)
    lo, hi = float(grid_d[0]), float(grid_d[-1])
    axis = np.linspace(lo, hi,
                       max(2, int(round((hi - lo) / REFINE_STEP_PPM)) + 1))
    j = np.clip(np.searchsorted(grid_d, axis, side="right") - 1,
                0, len(grid_d) - 2)
    w = np.clip((axis - grid_d[j]) / (grid_d[j + 1] - grid_d[j]), 0.0, 1.0)
    return axis, j, w


def _mix(values, j, w):
    """One row (1-w) values[j] + w values[j+1] per refined density, from
    per-grid-density rows of values."""
    return (1.0 - w)[:, None] * values[j] + w[:, None] * values[j + 1]


def likelihood_surface(measured_rates,
                       library: CoherenceLibrary) -> LikelihoodSurface:
    """Log-likelihood of the rate dataset over (thickness, density).

    The density axis is refined below the grid pitch; between neighboring
    grid densities the cell PDFs are combined as a linear mixture
    (1-w) P_j + w P_{j+1} evaluated after flooring, so the product in the
    joint likelihood never vanishes.  Invariant under permutation of the
    measurements.
    """
    rates = np.asarray(measured_rates, dtype=float)
    if rates.size == 0:
        raise ValueError("need at least one measurement")
    if not np.all(np.isfinite(rates)) or np.any(rates <= 0):
        raise ValueError("measured rates must be finite and positive")
    rates = np.sort(rates)  # exact permutation invariance of the sums
    dens_axis, j, w = _interpolation(library.densities)
    nd = len(library.densities)
    nt = len(library.thicknesses)
    ll = np.empty((nt, len(dens_axis)))
    any_unfloored = False
    for i in range(nt):
        evals = np.stack([library.pdf(i, c)(rates)
                          for c in range(nd)])  # (nd, n_meas)
        raws = np.stack([library.pdf(i, c).raw(rates) for c in range(nd)])
        any_unfloored |= bool(np.any(_mix(raws, j, w) > 0))
        ll[i] = np.log(_mix(evals, j, w)).sum(-1)
    if not any_unfloored:
        raise ValueError("data outside library support: "
                         "every cell evaluation hit the probability floor")
    flat = int(np.argmax(ll))
    return LikelihoodSurface(
        thicknesses=np.asarray(library.thicknesses, dtype=float),
        densities=dens_axis, log_likelihood=ll,
        argmax=tuple(np.unravel_index(flat, ll.shape)))


def _gauss(x, amp, mu, sigma):
    return amp * np.exp(-0.5 * ((x - mu) / sigma) ** 2)


def estimate_density(surface: LikelihoodSurface,
                     fixed_thickness) -> DensityEstimate:
    """Normal-distribution fit to the exponentiated likelihood linecut
    at the grid thickness nearest fixed_thickness."""
    from scipy.optimize import curve_fit

    i = int(np.argmin(np.abs(surface.thicknesses - fixed_thickness)))
    line = surface.log_likelihood[i]
    if np.ptp(line) < LINECUT_FLAT_TOL:
        raise ValueError("uninformative likelihood: linecut is flat")
    x = surface.densities
    y = np.exp(line - line.max())
    y = y / np.trapezoid(y, x)
    k = int(np.argmax(y))
    sigma0 = max((x[-1] - x[0]) / 10.0, np.diff(x).min())
    try:
        popt, _ = curve_fit(_gauss, x, y, p0=[y.max(), x[k], sigma0],
                            maxfev=10000)
        mu, sigma = float(popt[1]), abs(float(popt[2]))
        resid = float(np.linalg.norm(y - _gauss(x, *popt)) /
                      max(np.linalg.norm(y), 1e-300))
    except RuntimeError:
        mu, sigma, resid = float(x[k]), sigma0, np.inf
    if resid > 0.5 or not (x[0] <= mu <= x[-1]) or sigma <= 0:
        # degenerate (e.g. multimodal) linecut: fall back to the argmax
        # and a width from the second moment, flagged by the caller via
        # the residual-free fallback values
        mu = float(x[k])
        var = np.trapezoid(y * (x - mu) ** 2, x)
        sigma = float(np.sqrt(max(var, np.diff(x).min() ** 2)))
    return DensityEstimate(rho_mle=mu, rho_sigma=sigma,
                           fixed_thickness=float(surface.thicknesses[i]))


def _mle_argmax_density(rates, library, i_thickness):
    """Refined-axis argmax of the fixed-thickness likelihood linecut
    (the first of equal maxima)."""
    dens_axis, j, w = _interpolation(library.densities)
    evals = np.stack([library.pdf(i_thickness, c)(rates)
                      for c in range(len(library.densities))])
    return float(dens_axis[np.argmax(np.log(_mix(evals, j, w)).sum(-1))])


def benchmark_error(library: CoherenceLibrary, sample_counts, trials,
                    fixed_thickness, seed) -> ErrorBenchmark:
    """Self-consistency benchmark of the density estimator.

    For each N in sample_counts and each tested density (grid densities
    with one edge cell excluded on each side, avoiding boundary-clipped
    argmax bias), `trials` datasets of N rates are bootstrap-resampled
    from the cell samples and the squared relative error
    eps^2 = (rho_mle - rho0)^2 / rho0^2 is averaged.  The reported
    per-N relative error is sqrt(<eps^2>); the power law A * N^-p is
    fitted to <eps^2>(N) in log-log coordinates.
    """
    if trials < 100:
        raise ValueError("need >= 100 trials for stable means")
    sample_counts = np.asarray(sample_counts, dtype=int)
    i = int(np.argmin(np.abs(library.thicknesses - fixed_thickness)))
    grid_d = np.asarray(library.densities, dtype=float)
    if len(grid_d) < 4:
        raise ValueError("need >= 4 grid densities (interior test range)")
    tested = list(range(1, len(grid_d) - 1))
    mean_sq = np.empty(len(sample_counts))
    for a, n in enumerate(sample_counts):
        eps_sq = []
        for jt, j in enumerate(tested):
            cell = library.cells[(i, j)]
            rng = np.random.default_rng(spawn_seed(seed, a, jt))
            for _ in range(trials):
                rates = rng.choice(cell, size=int(n), replace=True)
                rho = _mle_argmax_density(rates, library, i)
                eps_sq.append((rho - grid_d[j]) ** 2 / grid_d[j] ** 2)
        mean_sq[a] = np.mean(eps_sq)
    logn = np.log(sample_counts.astype(float))
    loge = np.log(mean_sq)
    slope, intercept = np.polyfit(logn, loge, 1)
    resid = float(np.linalg.norm(loge - (slope * logn + intercept)))
    return ErrorBenchmark(
        sample_counts=sample_counts,
        mean_relative_error=np.sqrt(mean_sq),
        mean_squared_error=mean_sq,
        amplitude=float(np.exp(intercept)),
        exponent=float(-slope),
        fit_residual=resid)


# --- serialization ------------------------------------------------------

def write_library(library: CoherenceLibrary, fh):
    fh.write("# spinbath library v1\n")
    prov = library.provenance
    fh.write(f"schema {prov.get('schema', 'spinbath-library-1')}\n")
    fh.write(f"engine {prov.get('engine_version', __version__)}\n")
    fh.write(f"seed {prov.get('seed', 0)} n_samples {prov.get('n_samples', 0)} "
             f"n_bins {library.n_bins}\n")
    fh.write("thicknesses " + " ".join(repr(float(v)) for v in library.thicknesses) + "\n")
    fh.write("densities " + " ".join(repr(float(v)) for v in library.densities) + "\n")
    for (i, j), samples in sorted(library.cells.items()):
        fh.write(f"cell {i} {j} " + " ".join(repr(float(v)) for v in samples) + "\n")


def read_library(fh) -> CoherenceLibrary:
    """Inverse of write_library.  A short file, a malformed line or a
    missing cell raises ValueError naming the line.  The format holds no
    per-cell sample count, so a cut inside the last cell's samples still
    parses."""
    rd = LineReader(fh, "library v1", "library")
    (schema,) = rd.record("schema", str)
    (engine,) = rd.record("engine", str)
    seed, n_samples, n_bins = rd.record("seed", int, "n_samples", int,
                                        "n_bins", int)
    thicknesses = np.array(rd.record("thicknesses", [float])[0])
    densities = np.array(rd.record("densities", [float])[0])
    cells = rd.cells((len(thicknesses), len(densities)))
    return CoherenceLibrary(
        thicknesses=thicknesses, densities=densities, cells=cells,
        n_bins=n_bins,
        provenance={"schema": schema, "engine_version": engine,
                    "seed": seed, "n_samples": n_samples})
