"""Random P1 bath generation on the diamond lattice and geometric statistics.

Baths live in a cylindrical slab: |z| <= thickness/2 along the [001] growth
axis and lateral radius R around the central spin, which sits at the origin
(slab mid-plane).  Two placement modes: independent occupancy of carbon
lattice sites (default) and a continuum Poisson process (useful because its
nearest-neighbor statistics have closed forms).

A configuration is three read-only arrays indexed by spin: positions
(n, 3) in nm, Jahn-Teller axes (n,) int in 0..3 and nuclear projections
(n,) float.  Slicing and trimming select spins by one mask or index into
all three.  A bath file's `seed` line holds the seed entropy followed by
the spawn key, if any, so SeedSequence(entropy, spawn_key=key) draws the
same bath again; an int seed writes `seed <int>` alone.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from math import gamma as gamma_fn, isfinite, log10

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
MAX_LATTICE_SITES = 2**62  # site indices are drawn as int64
MAX_DENSITY_PPM = 1e6  # one defect per carbon site


@dataclass(frozen=True)
class BathGeometry:
    """Slab geometry and defect density for bath generation."""

    density_ppm: float
    thickness: float  # nm, along [001]
    lateral_radius: float  # nm
    placement_mode: str = "lattice-site"  # or "continuum-poisson"

    def __post_init__(self):
        for name, value in (("density", self.density_ppm),
                            ("thickness", self.thickness),
                            ("lateral_radius", self.lateral_radius)):
            if not (isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, "
                                 f"got {value:g}")
        if self.density_ppm > MAX_DENSITY_PPM:
            raise ValueError(f"density {self.density_ppm:g} ppm exceeds "
                             f"{MAX_DENSITY_PPM:g} ppm, one per carbon site")
        if self.placement_mode not in ("lattice-site", "continuum-poisson"):
            raise ValueError(f"unknown placement_mode {self.placement_mode!r}")

    @property
    def number_density(self):
        """Defects per nm^3."""
        return ppm_to_number_density(self.density_ppm)

    @property
    def expected_count(self):
        R = self.lateral_radius
        return self.number_density * np.pi * (R * R) * self.thickness


@dataclass(frozen=True, eq=False)
class BathConfiguration:
    """One bath as three read-only arrays: spin k sits at positions[k]
    (nm, with the central spin at the origin), with Jahn-Teller axis
    jt_axes[k] in 0..3 and nuclear projection nuclear_m[k].  `seed` and
    `spawn_key` name the SeedSequence it was drawn from:
    SeedSequence(seed, spawn_key=spawn_key) regenerates it.  Two
    configurations are equal when every field is (arrays element by
    element); configurations are not hashable."""

    positions: np.ndarray  # (n, 3) nm
    jt_axes: np.ndarray  # (n,) int
    nuclear_m: np.ndarray  # (n,) float
    geometry: BathGeometry
    seed: int
    spawn_key: tuple = ()

    def __post_init__(self):
        # private copies, so that no caller can change a configuration
        pos = np.array(self.positions, dtype=float)
        axes = np.array(self.jt_axes)
        ms = np.array(self.nuclear_m, dtype=float)
        n = len(pos) if pos.ndim else 0
        if pos.shape != (n, 3) or axes.shape != (n,) or ms.shape != (n,):
            raise ValueError(
                f"bath positions, jt_axes and nuclear_m have shapes "
                f"{pos.shape}, {axes.shape} and {ms.shape}, expected "
                f"(n, 3), (n,) and (n,)")
        if n and (axes.dtype.kind not in "iu"
                  or axes.min() < 0 or axes.max() > 3):
            raise ValueError("bath Jahn-Teller axes must be integers in 0..3")
        if not np.isfinite(pos).all():
            raise ValueError("bath positions must be finite")
        for name, arr in (("positions", pos),
                          ("jt_axes", axes.astype(np.int64, copy=False)),
                          ("nuclear_m", ms)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "spawn_key", tuple(map(int, self.spawn_key)))

    def __len__(self):
        return len(self.positions)

    def __eq__(self, other):
        if not isinstance(other, BathConfiguration):
            return NotImplemented
        pairs = ((getattr(self, f.name), getattr(other, f.name))
                 for f in fields(self))
        return all(np.array_equal(a, b) if isinstance(a, np.ndarray)
                   else a == b for a, b in pairs)


def default_lateral_radius(density_ppm, thickness, target_spins=36):
    """Radius holding `target_spins` expected defects in the slab.

    Default 36 = 3x the twelve-spin count at which the Ramsey observable
    converges; use 300 for echo observables.
    """
    if density_ppm <= 0:
        raise ValueError(f"density must be positive, got {density_ppm:g}")
    if thickness <= 0:
        raise ValueError(f"thickness must be positive, got {thickness:g}")
    if not target_spins > 0:
        raise ValueError(f"target spin count must be positive, got "
                         f"{target_spins:g}")
    area = ppm_to_number_density(density_ppm) * np.pi * thickness
    if area == 0:
        raise ValueError(f"density {density_ppm:g} ppm times thickness "
                         f"{thickness:g} nm underflows to zero")
    return float(np.sqrt(target_spins / area))


def generate_bath(geometry: BathGeometry, seed, nuclear_projections=(-0.5, 0.5),
                  exclusion_radius=BOND_LENGTH_NM) -> BathConfiguration:
    """Draw one random bath configuration.

    In lattice-site mode each carbon site in the region is occupied
    independently with probability density_ppm * 1e-6; in continuum mode the
    count is Poisson with the same expected density.  Jahn-Teller axes are
    uniform over the four <111> directions and nuclear projections uniform
    over `nuclear_projections`.  Deterministic given (geometry, seed); the
    seed is an int or a SeedSequence with int entropy.
    """
    (ss,), (rng,), (pos,) = _draw_positions(geometry, [seed],
                                            exclusion_radius)
    n = len(pos)
    axes = rng.integers(0, 4, n)
    # the draws of rng.choice(values, n), without its checks
    values = np.asarray(nuclear_projections, dtype=float)
    ms = values[rng.integers(0, len(values), n)]
    return _trusted(pos, axes, ms, geometry, int(ss.entropy),
                    tuple(map(int, ss.spawn_key)))


def _draw_positions(geometry: BathGeometry, seeds,
                    exclusion_radius=BOND_LENGTH_NM):
    """Spin positions of the baths that generate_bath draws from `seeds`.

    Each bath draws from its own generator, as in generate_bath, and the
    step from draws to kept positions runs once over the block.  Every
    element goes through the arithmetic of a one-bath call, so a bath's
    positions do not depend on the baths drawn with it.  Returns the
    seeds' SeedSequences, their generators, left just after the position
    draws (the Jahn-Teller axes and nuclear projections come next), and
    each bath's (n, 3) positions, views of one array.
    """
    expected = geometry.expected_count
    if not expected <= MAX_EXPECTED_SPINS:
        raise ValueError(f"bath too large: {expected:g} expected spins exceed "
                         f"the cap of {MAX_EXPECTED_SPINS}")
    seqs = []
    for seed in seeds:
        ss = seed if isinstance(seed, np.random.SeedSequence) \
            else np.random.SeedSequence(seed)
        if not isinstance(ss.entropy, (int, np.integer)):
            raise ValueError("bath seed entropy must be one integer")
        seqs.append(ss)
    rngs = list(map(np.random.default_rng, seqs))
    R = geometry.lateral_radius
    t = geometry.thickness

    lattice = geometry.placement_mode == "lattice-site"
    if lattice:
        a = CONSTANTS.diamond_lattice_constant
        # a span of more cells than a float holds is past the cap too
        if not max(2 * R, t) / a < np.inf:
            raise ValueError(f"bath too large: a slab {t:g} nm thick and "
                             f"{R:g} nm in radius holds more lattice sites "
                             f"than the cap of 2^62")
        nx = int(np.ceil(2 * R / a)) + 1
        nz = int(np.ceil(t / a)) + 1
        nsites = nx * nx * nz * 8
        if nsites > MAX_LATTICE_SITES:
            raise ValueError(f"bath too large: about 10^{log10(nsites):.0f} "
                             f"lattice sites exceed the cap of 2^62")
        draws = []
        for rng in rngs:
            count = rng.binomial(nsites, geometry.density_ppm * 1e-6)
            draws.append(rng.choice(nsites, size=count, replace=False)
                         if count else np.array([], dtype=int))
        idx = draws[0] if len(draws) == 1 else np.concatenate(draws)
        sub = idx % 8
        cell = idx // 8
        ijk = np.empty((len(idx), 3), dtype=idx.dtype)
        ijk[:, 0] = cell % nx
        ijk[:, 1] = (cell // nx) % nx
        ijk[:, 2] = cell // (nx * nx)
        pos = (ijk + _DIAMOND_BASIS[sub]) * a
        pos[:, 0] -= nx * a / 2.0
        pos[:, 1] -= nx * a / 2.0
        pos[:, 2] -= nz * a / 2.0
    else:
        mean = geometry.number_density * np.pi * R * R * t
        # the doubles of a bath's three rng.uniform(low, high, count)
        # calls, put through their low + (high - low) * u
        draws = [rng.random(3 * rng.poisson(mean)).reshape(3, -1)
                 for rng in rngs]
        u = draws[0] if len(draws) == 1 else np.concatenate(draws, axis=1)
        r = np.sqrt((R * R) * u[0])
        phi = (2 * np.pi) * u[1]
        pos = np.empty((len(r), 3))
        np.multiply(r, np.cos(phi), out=pos[:, 0])
        np.multiply(r, np.sin(phi), out=pos[:, 1])
        low, high = float(-t / 2.0), float(t / 2.0)
        np.add(low, (high - low) * u[2], out=pos[:, 2])

    sq = pos * pos
    keep = (
        (sq[:, 0] + sq[:, 1] <= R * R)
        # the sum that np.linalg.norm(pos, axis=1) takes
        & (np.sqrt(np.add.reduce(sq, axis=1)) > exclusion_radius)
    )
    if lattice:
        # a continuum z, low + (high - low) * u with u in [0, 1), rounds
        # into [low, high], so only lattice sites can leave the slab
        keep &= np.abs(pos[:, 2]) <= t / 2.0
    pos = pos[keep]
    if len(draws) == 1:
        return seqs, rngs, [pos]
    # kept[j]: spins kept among the first j drawn; bath i's end in pos
    kept = np.zeros(len(keep) + 1, dtype=np.intp)
    np.cumsum(keep, out=kept[1:])
    ends = kept[np.cumsum([d.shape[-1] for d in draws])].tolist()
    return seqs, rngs, [pos[b:e] for b, e in zip([0] + ends, ends)]


def _trusted(positions, jt_axes, nuclear_m, geometry, seed, spawn_key):
    """A configuration of arrays that this module has just built and that
    nothing else holds: they are set read-only, and the copies and checks
    of BathConfiguration.__post_init__ are skipped."""
    for arr in (positions, jt_axes, nuclear_m):
        arr.flags.writeable = False
    config = object.__new__(BathConfiguration)
    vars(config).update(positions=positions, jt_axes=jt_axes,
                        nuclear_m=nuclear_m, geometry=geometry, seed=seed,
                        spawn_key=spawn_key)
    return config


def _select(config: BathConfiguration, index, geometry) -> BathConfiguration:
    """The spins of `config` picked by a boolean mask or an index array."""
    return _trusted(config.positions[index], config.jt_axes[index],
                    config.nuclear_m[index], geometry, config.seed,
                    config.spawn_key)


def slice_bath(config: BathConfiguration, new_thickness) -> BathConfiguration:
    """Retain spins with |z| <= new_thickness/2 around the central plane."""
    if not isfinite(new_thickness):
        raise ValueError(f"slice thickness must be finite, got "
                         f"{new_thickness:g}")
    if new_thickness <= 0:
        raise ValueError(f"slice thickness must be positive, got "
                         f"{new_thickness:g}")
    if new_thickness > config.geometry.thickness:
        raise ValueError("slice thickness exceeds bath thickness")
    keep = np.abs(config.positions[:, 2]) <= new_thickness / 2.0
    return _select(config, keep, replace(config.geometry,
                                         thickness=float(new_thickness)))


def keep_nearest(config: BathConfiguration, n: int) -> BathConfiguration:
    """Retain the n bath spins closest to the central spin."""
    if len(config) <= n:
        return config
    # the sum that np.linalg.norm(positions, axis=1) takes
    d = np.sqrt(np.add.reduce(config.positions ** 2, axis=1))
    order = np.argsort(d, kind="stable")[:n]
    return _select(config, np.sort(order), config.geometry)


def nearest_neighbor_distance(config: BathConfiguration) -> float:
    """Distance from the central spin to its nearest bath spin (nm)."""
    if not len(config):
        raise ValueError("no bath spins")
    d = np.linalg.norm(config.positions, axis=1)
    return float(d.min())


def mean_nn_distance_formula(density_ppm) -> float:
    """<r_nn> = Gamma(4/3) (4 pi rho / 3)^(-1/3) ~ 0.554 rho^(-1/3), nm."""
    if density_ppm <= 0:
        raise ValueError("density must be positive")
    rho = ppm_to_number_density(density_ppm)
    return gamma_fn(4.0 / 3.0) * (4.0 * np.pi * rho / 3.0) ** (-1.0 / 3.0)


# --- serialization ------------------------------------------------------

def write_bath(config: BathConfiguration, fh):
    """Round-trip-lossless structured text record of one configuration.
    The seed line holds the seed entropy, then the spawn key, if any; the
    `central` line is always the origin."""
    g = config.geometry
    fh.write("# spinbath bath-config v1\n")
    fh.write(" ".join(map(str, ("seed", config.seed, *config.spawn_key))) + "\n")
    fh.write(f"geometry {float(g.density_ppm)!r} {float(g.thickness)!r} "
             f"{float(g.lateral_radius)!r} {g.placement_mode}\n")
    fh.write("central 0.0 0.0 0.0\n")
    fh.write(f"nspins {len(config)}\n")
    for (x, y, z), axis, m in zip(config.positions.tolist(),
                                  config.jt_axes.tolist(),
                                  config.nuclear_m.tolist()):
        fh.write(f"spin {x!r} {y!r} {z!r} {axis} {m!r}\n")


def read_bath(fh) -> BathConfiguration:
    """Inverse of write_bath.  A `central` line off the origin is
    subtracted from every spin position.  A short file or a malformed line
    raises ValueError naming the line."""
    rd = LineReader(fh, "bath-config v1", "bath")
    ((seed, *spawn_key),) = rd.record("seed", [int])
    geom = BathGeometry(*rd.record("geometry", float, float, float, str))
    central = np.array(rd.record("central", float, float, float))
    if not np.isfinite(central).all():
        raise rd.error("central position must be finite")
    (nspins,) = rd.record("nspins", int)
    if nspins < 0:
        raise rd.error("negative spin count")
    rows = []
    for _ in range(nspins):
        row = rd.record("spin", float, float, float, int, float)
        if not 0 <= row[3] <= 3:
            raise rd.error(f"Jahn-Teller axis {row[3]} outside 0..3")
        rows.append(row)
    pos = np.array([r[:3] for r in rows], dtype=float).reshape(nspins, 3)
    return BathConfiguration(
        positions=pos - central,
        jt_axes=np.array([r[3] for r in rows], dtype=np.int64),
        nuclear_m=np.array([r[4] for r in rows], dtype=float),
        geometry=geom, seed=seed, spawn_key=tuple(spawn_key))
