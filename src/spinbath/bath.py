"""Random P1 bath generation on the diamond lattice and geometric statistics.

Baths live in a cylindrical slab: |z| <= thickness/2 along the [001] growth
axis and lateral radius R around the central spin, which sits at the origin
(slab mid-plane).  Two placement modes: independent occupancy of carbon
lattice sites (default) and a continuum Poisson process (useful because its
nearest-neighbor statistics have closed forms).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from math import gamma as gamma_fn

import numpy as np

from .constants import CONSTANTS, ppm_to_number_density
from .textio import LineReader

# Fractional coordinates of the 8 carbon sites in the conventional cell.
_DIAMOND_BASIS = np.array([
    [0.00, 0.00, 0.00], [0.00, 0.50, 0.50], [0.50, 0.00, 0.50],
    [0.50, 0.50, 0.00], [0.25, 0.25, 0.25], [0.25, 0.75, 0.75],
    [0.75, 0.25, 0.75], [0.75, 0.75, 0.25],
])

BOND_LENGTH_NM = CONSTANTS.diamond_lattice_constant * np.sqrt(3.0) / 4.0

MAX_EXPECTED_SPINS = 2_000_000


@dataclass(frozen=True)
class BathGeometry:
    """Slab geometry and defect density for bath generation."""

    density_ppm: float
    thickness: float  # nm, along [001]
    lateral_radius: float  # nm
    placement_mode: str = "lattice-site"  # or "continuum-poisson"

    def __post_init__(self):
        if self.density_ppm <= 0:
            raise ValueError("density must be positive")
        if self.thickness <= 0:
            raise ValueError("thickness must be positive")
        if self.lateral_radius <= 0:
            raise ValueError("lateral_radius must be positive")
        if self.placement_mode not in ("lattice-site", "continuum-poisson"):
            raise ValueError(f"unknown placement_mode {self.placement_mode!r}")

    @property
    def number_density(self):
        """Defects per nm^3."""
        return ppm_to_number_density(self.density_ppm)

    @property
    def expected_count(self):
        return self.number_density * np.pi * self.lateral_radius**2 * self.thickness


@dataclass(frozen=True)
class BathSpin:
    position: np.ndarray  # (3,) nm
    jt_axis: int  # 0..3
    nuclear_m: float


@dataclass(frozen=True)
class BathConfiguration:
    central_position: np.ndarray
    spins: tuple  # of BathSpin
    geometry: BathGeometry
    seed: int

    @property
    def positions(self):
        if not self.spins:
            return np.zeros((0, 3))
        return np.array([s.position for s in self.spins])

    def __len__(self):
        return len(self.spins)


def default_lateral_radius(density_ppm, thickness, target_spins=36):
    """Radius holding `target_spins` expected defects in the slab.

    Default 36 = 3x the twelve-spin count at which the Ramsey observable
    converges; use 300 for echo observables.
    """
    if density_ppm <= 0:
        raise ValueError("density must be positive")
    if thickness <= 0:
        raise ValueError("thickness must be positive")
    rho = ppm_to_number_density(density_ppm)
    return float(np.sqrt(target_spins / (rho * np.pi * thickness)))


def generate_bath(geometry: BathGeometry, seed, nuclear_projections=(-0.5, 0.5),
                  exclusion_radius=BOND_LENGTH_NM) -> BathConfiguration:
    """Draw one random bath configuration.

    In lattice-site mode each carbon site in the region is occupied
    independently with probability density_ppm * 1e-6; in continuum mode the
    count is Poisson with the same expected density.  Jahn-Teller axes are
    uniform over the four <111> directions and nuclear projections uniform
    over `nuclear_projections`.  Deterministic given (geometry, seed).
    """
    if geometry.expected_count > MAX_EXPECTED_SPINS:
        raise ValueError("bath too large: expected count exceeds cap")
    if isinstance(seed, np.random.SeedSequence):
        ss = seed
        seed_record = int(ss.generate_state(1, np.uint64)[0])
    else:
        ss = np.random.SeedSequence(seed)
        seed_record = int(seed)
    rng = np.random.default_rng(ss)
    R = geometry.lateral_radius
    t = geometry.thickness
    prob = geometry.density_ppm * 1e-6

    if geometry.placement_mode == "lattice-site":
        a = CONSTANTS.diamond_lattice_constant
        nx = int(np.ceil(2 * R / a)) + 1
        nz = int(np.ceil(t / a)) + 1
        ncells = nx * nx * nz
        nsites = ncells * 8
        count = rng.binomial(nsites, prob)
        idx = rng.choice(nsites, size=count, replace=False) if count else np.array([], dtype=int)
        sub = idx % 8
        cell = idx // 8
        ix = cell % nx
        iy = (cell // nx) % nx
        iz = cell // (nx * nx)
        pos = (np.stack([ix, iy, iz], axis=1) + _DIAMOND_BASIS[sub]) * a
        pos[:, 0] -= nx * a / 2.0
        pos[:, 1] -= nx * a / 2.0
        pos[:, 2] -= nz * a / 2.0
    else:
        rho = geometry.number_density
        count = rng.poisson(rho * np.pi * R * R * t)
        r2 = rng.uniform(0.0, R * R, count)
        phi = rng.uniform(0.0, 2 * np.pi, count)
        pos = np.stack([
            np.sqrt(r2) * np.cos(phi),
            np.sqrt(r2) * np.sin(phi),
            rng.uniform(-t / 2.0, t / 2.0, count),
        ], axis=1)

    keep = (
        (pos[:, 0] ** 2 + pos[:, 1] ** 2 <= R * R)
        & (np.abs(pos[:, 2]) <= t / 2.0)
        & (np.linalg.norm(pos, axis=1) > exclusion_radius)
    )
    pos = pos[keep]
    axes = rng.integers(0, 4, len(pos))
    ms = rng.choice(np.asarray(nuclear_projections, dtype=float), size=len(pos))
    spins = tuple(
        BathSpin(position=pos[k].copy(), jt_axis=int(axes[k]), nuclear_m=float(ms[k]))
        for k in range(len(pos))
    )
    return BathConfiguration(
        central_position=np.zeros(3), spins=spins, geometry=geometry,
        seed=seed_record,
    )


def slice_bath(config: BathConfiguration, new_thickness) -> BathConfiguration:
    """Retain spins with |z| <= new_thickness/2 around the central plane."""
    if new_thickness <= 0:
        raise ValueError("slice thickness must be positive")
    if new_thickness > config.geometry.thickness:
        raise ValueError("slice thickness exceeds bath thickness")
    z0 = config.central_position[2]
    spins = tuple(s for s in config.spins
                  if abs(s.position[2] - z0) <= new_thickness / 2.0)
    geom = replace(config.geometry, thickness=float(new_thickness))
    return BathConfiguration(central_position=config.central_position,
                             spins=spins, geometry=geom, seed=config.seed)


def keep_nearest(config: BathConfiguration, n: int) -> BathConfiguration:
    """Retain the n bath spins closest to the central position."""
    if len(config) <= n:
        return config
    d = np.linalg.norm(config.positions - config.central_position, axis=1)
    order = np.argsort(d, kind="stable")[:n]
    spins = tuple(config.spins[i] for i in sorted(order))
    return BathConfiguration(central_position=config.central_position,
                             spins=spins, geometry=config.geometry,
                             seed=config.seed)


def nearest_neighbor_distance(config: BathConfiguration) -> float:
    """Distance from the central spin to its nearest bath spin (nm)."""
    if not config.spins:
        raise ValueError("no bath spins")
    d = np.linalg.norm(config.positions - config.central_position, axis=1)
    return float(d.min())


def mean_nn_distance_formula(density_ppm) -> float:
    """<r_nn> = Gamma(4/3) (4 pi rho / 3)^(-1/3) ~ 0.554 rho^(-1/3), nm."""
    if density_ppm <= 0:
        raise ValueError("density must be positive")
    rho = ppm_to_number_density(density_ppm)
    return gamma_fn(4.0 / 3.0) * (4.0 * np.pi * rho / 3.0) ** (-1.0 / 3.0)


# --- serialization ------------------------------------------------------

def write_bath(config: BathConfiguration, fh):
    """Round-trip-lossless structured text record of one configuration."""
    g = config.geometry
    fh.write("# spinbath bath-config v1\n")
    fh.write(f"seed {config.seed}\n")
    fh.write(f"geometry {g.density_ppm!r} {g.thickness!r} "
             f"{g.lateral_radius!r} {g.placement_mode}\n")
    cx, cy, cz = (float(v) for v in config.central_position)
    fh.write(f"central {cx!r} {cy!r} {cz!r}\n")
    fh.write(f"nspins {len(config)}\n")
    for s in config.spins:
        x, y, z = (float(v) for v in s.position)
        fh.write(f"spin {x!r} {y!r} {z!r} {s.jt_axis} {float(s.nuclear_m)!r}\n")


def read_bath(fh) -> BathConfiguration:
    """Inverse of write_bath.  A short file or a malformed line raises
    ValueError naming the line."""
    rd = LineReader(fh, "bath-config v1", "bath")
    (seed,) = rd.record("seed", int)
    geom = BathGeometry(*rd.record("geometry", float, float, float, str))
    central = np.array(rd.record("central", float, float, float))
    (nspins,) = rd.record("nspins", int)
    if nspins < 0:
        raise rd.error("negative spin count")
    spins = []
    for _ in range(nspins):
        x, y, z, axis, m = rd.record("spin", float, float, float, int, float)
        if not 0 <= axis <= 3:
            raise rd.error(f"Jahn-Teller axis {axis} outside 0..3")
        spins.append(BathSpin(position=np.array([x, y, z]), jt_axis=axis,
                              nuclear_m=m))
    return BathConfiguration(central_position=central, spins=tuple(spins),
                             geometry=geom, seed=seed)
