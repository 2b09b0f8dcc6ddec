"""Physical constants, spin species parameters, and unit conversions.

Internal unit system: lengths in nm, times in ms, and every coupling,
field-induced splitting, or energy expressed as an angular frequency in
rad/ms.  All I/O happens in MHz and Gauss and is converted at the boundary,
so no 2*pi factors float around inside the numerics.

Sign convention: gamma_e is stored as a positive magnitude and the electron
Zeeman term is assembled as -gamma_e * B_z * S_z.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

# --- unit conversions ---------------------------------------------------

TWO_PI = 2.0 * np.pi


def mhz_to_radms(f_mhz):
    """Frequency in MHz -> angular frequency in rad/ms."""
    return np.asarray(f_mhz, dtype=float) * TWO_PI * 1e3


def radms_to_mhz(w_radms):
    """Angular frequency in rad/ms -> frequency in MHz."""
    return np.asarray(w_radms, dtype=float) / (TWO_PI * 1e3)


# The four <111> unit vectors; index 0 is parallel to the NV axis used here.
JT_AXES = np.array(
    [
        [1.0, 1.0, 1.0],
        [1.0, -1.0, -1.0],
        [-1.0, 1.0, -1.0],
        [-1.0, -1.0, 1.0],
    ]
) / np.sqrt(3.0)


@dataclass(frozen=True)
class PhysicalConstants:
    """Electron gyromagnetic ratio, dipolar prefactor, diamond lattice data.

    gamma_e : rad/ms per Gauss (magnitude)
    dipolar_prefactor : (mu0/4pi) * gamma_e^2 * hbar, rad/ms * nm^3
    diamond_lattice_constant : nm
    diamond_atomic_density : carbon atoms per nm^3
    """

    gamma_e: float
    dipolar_prefactor: float
    diamond_lattice_constant: float
    diamond_atomic_density: float

    @staticmethod
    def from_io_units(gamma_e_MHz_per_G, hbar_SI, lattice_nm, atoms_per_cell):
        gamma_e = mhz_to_radms(gamma_e_MHz_per_G)  # rad/ms/G
        # gamma in SI (rad/s/T): rad/ms/G * 1e3 (ms->s) * 1e4 (G->T)
        gamma_SI = gamma_e * 1e7
        # (mu0/4pi) gamma^2 hbar in rad/s * m^3, then to rad/ms * nm^3
        pref_SI = 1e-7 * gamma_SI**2 * hbar_SI
        pref = pref_SI * 1e-3 * 1e27
        return PhysicalConstants(
            gamma_e=float(gamma_e),
            dipolar_prefactor=float(pref),
            diamond_lattice_constant=float(lattice_nm),
            diamond_atomic_density=float(atoms_per_cell / lattice_nm**3),
        )


@dataclass(frozen=True)
class CentralSpinParams:
    """NV central spin: S=1, zero-field splitting D, quantization axis,
    and the ordered pair of m_s levels forming the qubit (|0>, |1>)."""

    spin: float
    zero_field_splitting_D: float  # rad/ms
    quantization_axis: np.ndarray  # unit 3-vector
    qubit_levels: tuple = (0, -1)

    def __post_init__(self):
        axis = np.asarray(self.quantization_axis, dtype=float)
        norm = np.linalg.norm(axis)
        if not np.isclose(norm, 1.0, atol=1e-9):
            raise ValueError("quantization_axis must be a unit vector")
        object.__setattr__(self, "quantization_axis", axis)
        a, b = self.qubit_levels
        valid = {-1, 0, 1}
        if a == b or a not in valid or b not in valid:
            raise ValueError("qubit_levels must be two distinct m_s values")


@dataclass(frozen=True)
class P1Params:
    """P1 bath spin: S=1/2 electron plus a nitrogen nucleus whose state
    enters the dynamics only via the static hyperfine shift a(m, axis).

    hyperfine_shift(m, axis index) is the shift in rad/ms,
    a(m, axis) = m * (A_par cos^2 beta + A_perp sin^2 beta) with beta the
    angle between the JT axis and the central quantization axis.
    """

    spin: float
    nuclear_isotope: str  # "n15" or "n14"
    nuclear_I: float
    A_par: float  # rad/ms, axial hyperfine
    A_perp: float  # rad/ms
    gamma_n: float  # rad/ms per Gauss (signed)
    quantization_axis: np.ndarray = field(
        default_factory=lambda: JT_AXES[0].copy()
    )

    @property
    def nuclear_projections(self):
        I = self.nuclear_I
        return tuple(np.arange(-I, I + 1e-9, 1.0))

    def hyperfine_shift(self, m, axis_index):
        """a(m, axis) in rad/ms (first-order effective field on the
        electron), elementwise over arrays of m and axis indices."""
        a_eff = []
        for axis in JT_AXES:
            cb = float(np.dot(axis, self.quantization_axis))
            a_eff.append(self.A_par * cb**2 + self.A_perp * (1.0 - cb**2))
        return m * np.array(a_eff)[axis_index]


@dataclass(frozen=True)
class FieldConfig:
    """Static magnetic field along the quantization axis, Gauss."""

    B_z: float

    def __post_init__(self):
        if self.B_z < 0:
            raise ValueError("B_z must be >= 0")


@dataclass(frozen=True)
class ParameterSet:
    """Bundle loaded from a versioned parameter file."""

    schema: str
    constants: PhysicalConstants
    central: CentralSpinParams
    p1_by_isotope: dict
    field: FieldConfig

    def p1(self, isotope: str) -> P1Params:
        try:
            return self.p1_by_isotope[isotope.lower()]
        except KeyError:
            raise KeyError(f"unknown isotope {isotope!r}; expected n14 or n15")


def load_parameters(path=None) -> ParameterSet:
    """Load the versioned parameter file (defaults shipped with the package)."""
    if path is None:
        raw = (
            resources.files("spinbath")
            .joinpath("params/default_params.json")
            .read_text()
        )
        data = json.loads(raw)
    else:
        with open(path) as fh:
            data = json.load(fh)
    if data.get("schema") != "spinbath-params-1":
        raise ValueError(f"unsupported parameter schema: {data.get('schema')!r}")

    c = data["constants"]
    constants = PhysicalConstants.from_io_units(
        c["gamma_e_MHz_per_G"],
        c["hbar_SI"],
        c["diamond_lattice_constant_nm"],
        c["atoms_per_cell"],
    )
    cs = data["central_spin"]
    central = CentralSpinParams(
        spin=float(cs["spin"]),
        zero_field_splitting_D=float(mhz_to_radms(cs["zero_field_splitting_GHz"] * 1e3)),
        quantization_axis=np.asarray(cs["quantization_axis"], dtype=float),
        qubit_levels=tuple(cs["qubit_levels"]),
    )
    p1s = {}
    for iso in ("n15", "n14"):
        p = data["p1"][iso]
        p1s[iso] = P1Params(
            spin=0.5,
            nuclear_isotope=iso,
            nuclear_I=float(p["I"]),
            A_par=float(mhz_to_radms(p["A_par_MHz"])),
            A_perp=float(mhz_to_radms(p["A_perp_MHz"])),
            gamma_n=float(mhz_to_radms(p["gamma_n_MHz_per_G"])),
            quantization_axis=central.quantization_axis,
        )
    fieldcfg = FieldConfig(B_z=float(data["field"]["B_z_G"]))
    return ParameterSet(
        schema=data["schema"],
        constants=constants,
        central=central,
        p1_by_isotope=p1s,
        field=fieldcfg,
    )


DEFAULTS = load_parameters()
CONSTANTS = DEFAULTS.constants


def ppm_to_number_density(ppm) -> float:
    """Defect concentration in ppm of carbon sites -> number per nm^3."""
    if ppm < 0:
        raise ValueError("ppm must be >= 0")
    return float(ppm) * 1e-6 * CONSTANTS.diamond_atomic_density
