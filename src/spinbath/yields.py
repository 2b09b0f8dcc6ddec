"""Nearest-neighbor statistics and strong-coupling yield vs bath dimensionality.

Closed-form nearest-neighbor distance distributions for 2D and 3D baths,
the visibility nu = |A_0| / (sqrt(2) A_bath) of the nearest bath spin, and
Monte-Carlo estimates of the fraction of bath configurations containing at
least one strongly coupled spin as a function of slab thickness.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .bath import (BathConfiguration, BathGeometry, default_lateral_radius,
                   mean_nn_distance_formula, nearest_neighbor_distance,
                   slice_bath)
from .cce import (STRONG_THRESHOLD, _configurations, _couplings,
                  partition_strong_weak)
from .constants import ppm_to_number_density
from .textio import LineReader

MASTER_THICKNESS_NM = 50.0
MASTER_TARGET_SPINS = 300


@dataclass(frozen=True)
class NNDistribution:
    """Closed-form nearest-neighbor distance pdf g(r_nn).

    2D: g(r) = exp(-pi r^2 sigma2d) sigma2d 2 pi r with areal density
    sigma2d = rho * t; 3D: g(r) = exp(-4 pi r^3 rho / 3) rho 4 pi r^2.
    Distances in nm, densities per nm^2 / nm^3.
    """

    dimensionality: str  # "2D" or "3D"
    density: float  # sigma2d (nm^-2) for 2D, rho (nm^-3) for 3D

    def __post_init__(self):
        if self.dimensionality not in ("2D", "3D"):
            raise ValueError("dimensionality must be '2D' or '3D'")
        if self.density <= 0:
            raise ValueError("density must be positive")

    def pdf(self, r):
        r = np.asarray(r, dtype=float)
        if self.dimensionality == "2D":
            s = self.density
            return np.exp(-np.pi * r**2 * s) * s * 2.0 * np.pi * r
        rho = self.density
        return np.exp(-4.0 * np.pi * r**3 * rho / 3.0) * rho * 4.0 * np.pi * r**2

    def cdf(self, r):
        r = np.asarray(r, dtype=float)
        if self.dimensionality == "2D":
            return 1.0 - np.exp(-np.pi * r**2 * self.density)
        return 1.0 - np.exp(-4.0 * np.pi * r**3 * self.density / 3.0)

    def mean(self):
        from math import gamma as gamma_fn
        if self.dimensionality == "2D":
            return 0.5 / np.sqrt(self.density)
        return gamma_fn(4.0 / 3.0) * (4.0 * np.pi * self.density / 3.0) ** (-1.0 / 3.0)


def nn_pdf(dimensionality, density_ppm=None, thickness=None,
           areal_density=None, number_density=None) -> NNDistribution:
    """Construct the nearest-neighbor distribution for a bath.

    For 2D pass (density_ppm, thickness) or areal_density (nm^-2); for 3D
    pass density_ppm or number_density (nm^-3).
    """
    if dimensionality == "2D":
        if areal_density is None:
            if density_ppm is None or thickness is None:
                raise ValueError("2D needs areal_density or (density_ppm, thickness)")
            areal_density = ppm_to_number_density(density_ppm) * thickness
        return NNDistribution("2D", float(areal_density))
    if dimensionality == "3D":
        if number_density is None:
            if density_ppm is None:
                raise ValueError("3D needs number_density or density_ppm")
            number_density = ppm_to_number_density(density_ppm)
        return NNDistribution("3D", float(number_density))
    raise ValueError("dimensionality must be '2D' or '3D'")


def bath_rate_scale(dimensionality, density, cutoff):
    """Dephasing-rate scale Gamma_kD = sqrt(sum_r |1/r^3|^2) with a lower
    distance cutoff (nm^-3 units).

    The continuum sums diverge at r -> 0, so the integral starts at
    `cutoff`; with cutoff = r_nn this captures the bath beyond the nearest
    spin.  2D: Gamma^2 = pi sigma2d / (2 cutoff^4); 3D: Gamma^2 =
    4 pi rho / (3 cutoff^3).
    """
    if np.any(np.asarray(cutoff) <= 0):
        raise ValueError("cutoff must be positive")
    if dimensionality == "2D":
        return np.sqrt(np.pi * density / (2.0 * cutoff**4))
    if dimensionality == "3D":
        return np.sqrt(4.0 * np.pi * density / (3.0 * cutoff**3))
    raise ValueError("dimensionality must be '2D' or '3D'")


def peaked_gamma_visibility(r_nn, dimensionality, density):
    """Visibility estimate r_nn^-3 / (sqrt(2) Gamma_kD(cutoff=r_nn)).

    Treats the rest-of-bath dephasing rate as sharply peaked at its
    continuum scale evaluated outside the nearest-neighbor distance.
    """
    r_nn = np.asarray(r_nn, dtype=float)
    return r_nn**-3 / (np.sqrt(2.0)
                       * bath_rate_scale(dimensionality, density, r_nn))


@dataclass(frozen=True)
class VisibilitySample:
    nu: float
    a0: float  # rad/ms, secular coupling of the nearest spin
    a_bath: float  # rad/ms

    def __post_init__(self):
        if self.a_bath > 0:
            expect = abs(self.a0) / (np.sqrt(2.0) * self.a_bath)
            if not np.isclose(self.nu, expect, rtol=1e-12):
                raise ValueError("nu inconsistent with a0 and a_bath")


def visibility(config: BathConfiguration) -> VisibilitySample:
    """nu = |A_0| / (sqrt(2) A_bath): the nearest spin's secular coupling
    against the dephasing of all the other spins, A_bath^2 = sum A_z^2/4."""
    if len(config) < 2:
        raise ValueError("visibility undefined: need >= 2 bath spins")
    az = _couplings(config)
    d = np.linalg.norm(config.positions - config.central_position, axis=1)
    k = int(np.argmin(d))
    a0 = float(az[k])
    rest = np.delete(az, k)
    a_bath = float(np.sqrt(np.sum(rest**2) / 4.0))
    if a_bath == 0:
        return VisibilitySample(nu=np.inf, a0=a0, a_bath=0.0)
    return VisibilitySample(nu=abs(a0) / (np.sqrt(2.0) * a_bath),
                            a0=a0, a_bath=a_bath)


@dataclass(frozen=True)
class YieldReport:
    densities: np.ndarray  # ppm
    thicknesses: np.ndarray  # nm
    yield_fraction: np.ndarray  # (n_density, n_thickness), P(>=1 strong spin)
    yield_stderr: np.ndarray
    mean_rnn: np.ndarray  # nm, per density (3D formula marker)
    metadata: dict = dataclass_field(default_factory=dict)

    def __post_init__(self):
        if np.any(self.yield_fraction < 0) or np.any(self.yield_fraction > 1):
            raise ValueError("yield fractions must lie in [0, 1]")

    def thin_thick_ratio(self, i_density=0):
        row = self.yield_fraction[i_density]
        return float(row[np.argmin(self.thicknesses)] /
                     row[np.argmax(self.thicknesses)])

    def crossover_thickness(self, i_density=0):
        """2D-to-3D crossover thickness of the yield curve.

        The thin-limit plateau is the maximum yield over slices of the
        yield_sweep master slab thick enough to hold >= 20 expected spins
        (thinner slices are noise-dominated); the crossover is where the
        curve drops to 10% above the thick-limit value, interpolated in
        ln(thickness).
        """
        order = np.argsort(self.thicknesses)
        t = self.thicknesses[order]
        y = self.yield_fraction[i_density][order]
        y_3d = y[-1]
        expected = MASTER_TARGET_SPINS * t / MASTER_THICKNESS_NM
        eligible = y[expected >= 20]
        plateau = float(eligible.max()) if eligible.size else float(y.max())
        thr = y_3d + 0.9 * (plateau - y_3d)
        # scan from the thick side: the plateau region can graze the
        # threshold within Monte-Carlo noise, so the physical crossing is
        # the one closest to the 3D limit
        for k in reversed(range(len(t) - 1)):
            y0, y1 = y[k], y[k + 1]
            if (y0 - thr) * (y1 - thr) <= 0 and y0 != y1:
                u = (y0 - thr) / (y0 - y1)
                return float(np.exp(np.log(t[k]) +
                                    u * (np.log(t[k + 1]) - np.log(t[k]))))
        return float(t[-1])


def yield_sweep(densities, thicknesses, n_configs, seed,
                placement_mode="lattice-site") -> YieldReport:
    """Fraction of configurations with a non-empty strong-spin partition.

    For each density, n_configs master slabs MASTER_THICKNESS_NM thick,
    holding MASTER_TARGET_SPINS spins on average, are generated once and
    sliced to every requested thickness, so the thin and thick cells see
    the same in-plane realizations.  A single-spin bath counts as strong
    (it is trivially distinguishable from an empty background); empty
    slices count as no yield.
    """
    densities = np.asarray(densities, dtype=float)
    thicknesses = np.asarray(thicknesses, dtype=float)
    if np.any(thicknesses > MASTER_THICKNESS_NM):
        raise ValueError("slice thickness exceeds master slab thickness")
    if np.any(densities <= 0):
        raise ValueError("density must be positive")
    frac = np.zeros((len(densities), len(thicknesses)))
    stderr = np.zeros_like(frac)
    for i, rho in enumerate(densities):
        geom = BathGeometry(density_ppm=float(rho),
                            thickness=MASTER_THICKNESS_NM,
                            lateral_radius=default_lateral_radius(
                                rho, MASTER_THICKNESS_NM, MASTER_TARGET_SPINS),
                            placement_mode=placement_mode)
        hits = np.zeros(len(thicknesses))
        for _, master in _configurations(geom, n_configs, seed, i):
            for j, t in enumerate(thicknesses):
                sl = slice_bath(master, float(t))
                if len(sl) == 0:
                    continue
                part = partition_strong_weak(sl)
                if len(part.strong) > 0:
                    hits[j] += 1
        p = hits / n_configs
        frac[i] = p
        stderr[i] = np.sqrt(p * (1 - p) / n_configs)
    return YieldReport(
        densities=densities, thicknesses=thicknesses,
        yield_fraction=frac, yield_stderr=stderr,
        mean_rnn=np.array([mean_nn_distance_formula(d) for d in densities]),
        metadata={"seed": seed, "n_configs": n_configs,
                  "master_thickness": MASTER_THICKNESS_NM,
                  "target_spins": MASTER_TARGET_SPINS,
                  "placement_mode": placement_mode,
                  "strong_threshold": STRONG_THRESHOLD})


def visibility_ratio_2d3d(density_ppm, thin_thickness, thick_thickness,
                          n_configs, seed):
    """Monte-Carlo <nu_2D> / <nu_3D> between a thin and a thick slab.

    Draws the nearest-neighbor distance from random bath configurations
    and evaluates nu = r_nn^-3 / (sqrt(2) Gamma_kD) with the continuum
    rate cutoff at r_nn (the rest-of-bath rate treated as sharply peaked,
    method "peaked-gamma" in the details).  Returns (ratio, details dict).
    """
    rnn_mean = mean_nn_distance_formula(density_ppm)
    if thin_thickness > rnn_mean or thick_thickness < 3 * rnn_mean:
        warnings.warn("regime condition thin << <r_nn> << thick violated; "
                      "ratio may not be dimension-limited", stacklevel=2)
    rho = ppm_to_number_density(density_ppm)
    means = {}
    for cell, (tag, t) in enumerate((("2D", thin_thickness),
                                     ("3D", thick_thickness))):
        geom = BathGeometry(density_ppm=float(density_ppm), thickness=float(t),
                            lateral_radius=default_lateral_radius(
                                density_ppm, t, MASTER_TARGET_SPINS),
                            placement_mode="continuum-poisson")
        dens = rho * t if tag == "2D" else rho
        nus = []
        for _, cfg in _configurations(geom, n_configs, seed, cell,
                                      exclusion_radius=0.0):
            if len(cfg) < 2:
                continue
            rnn = nearest_neighbor_distance(cfg)
            nus.append(float(peaked_gamma_visibility(rnn, tag, dens)))
        means[tag] = float(np.mean(nus))
    ratio = means["2D"] / means["3D"]
    return ratio, {"mean_nu_2d": means["2D"], "mean_nu_3d": means["3D"],
                   "method": "peaked-gamma", "n_configs": n_configs,
                   "seed": seed, "mean_rnn": rnn_mean}


# --- serialization ------------------------------------------------------

def write_yield_report(report: YieldReport, fh):
    fh.write("# spinbath yield-report v1\n")
    md = report.metadata
    fh.write(f"meta seed {md.get('seed')} n_configs {md.get('n_configs')} "
             f"master_thickness {md.get('master_thickness')}\n")
    fh.write("columns density_ppm thickness_nm yield yield_stderr mean_rnn_nm\n")
    for i, rho in enumerate(report.densities):
        for j, t in enumerate(report.thicknesses):
            fh.write(f"{float(rho)!r} {float(t)!r} "
                     f"{float(report.yield_fraction[i, j])!r} "
                     f"{float(report.yield_stderr[i, j])!r} "
                     f"{float(report.mean_rnn[i])!r}\n")


def read_yield_report(fh) -> YieldReport:
    """Inverse of write_yield_report.  A short file, a malformed row or a
    missing (density, thickness) row raises ValueError naming the line.
    The format holds no row count, so a file cut at the end of a row
    parses as a report over the rows before it when they fill a grid."""
    rd = LineReader(fh, "yield-report v1", "yield-report")
    seed, n_configs, master = rd.record(
        "meta", "seed", int, "n_configs", int, "master_thickness", float)
    meta = {"seed": seed, "n_configs": n_configs, "master_thickness": master}
    rd.record("columns", [str])
    rows = {}
    for rho, t, y, y_err, r_nn in rd.rows(float, float, float, float, float):
        if (rho, t) in rows:
            raise rd.error(f"repeated row for density {rho!r}, "
                           f"thickness {t!r}")
        rows[(rho, t)] = (y, y_err, r_nn)
    dens = sorted({rho for rho, _ in rows})
    thick = sorted({t for _, t in rows})
    if not rows or len(rows) < len(dens) * len(thick):
        raise rd.error(f"the file holds rows for {len(rows)} of "
                       f"{len(dens) * len(thick)} (density, thickness) pairs")
    frac = np.zeros((len(dens), len(thick)))
    err = np.zeros_like(frac)
    rnn = np.zeros(len(dens))
    for (rho, t), (y, y_err, r_nn) in rows.items():
        i = dens.index(rho)
        j = thick.index(t)
        frac[i, j] = y
        err[i, j] = y_err
        rnn[i] = r_nn
    return YieldReport(densities=np.array(dens), thicknesses=np.array(thick),
                       yield_fraction=frac, yield_stderr=err, mean_rnn=rnn,
                       metadata=meta)
