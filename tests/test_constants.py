import numpy as np
import pytest

from spinbath.constants import (
    CONSTANTS,
    DEFAULTS,
    JT_AXES,
    FieldConfig,
    load_parameters,
    mhz_to_radms,
    ppm_to_number_density,
    radms_to_mhz,
)


def test_unit_round_trip():
    assert radms_to_mhz(mhz_to_radms(12.34)) == pytest.approx(12.34, rel=1e-14)


def test_gamma_e_value():
    # 2.80249 MHz/G in rad/ms/G
    assert CONSTANTS.gamma_e == pytest.approx(
        2.80249 * 2 * np.pi * 1e3, rel=1e-12)


def test_dipolar_prefactor_magnitude():
    # (mu0/4pi) gamma_e^2 hbar at 1 nm separation: 2 pi x 52.04 MHz
    assert radms_to_mhz(CONSTANTS.dipolar_prefactor) == pytest.approx(
        52.04, rel=2e-4)


def test_ppm_to_number_density():
    # diamond: 8 atoms / (0.3567 nm)^3 = 176.3 nm^-3
    assert ppm_to_number_density(1e6) == pytest.approx(176.27, rel=1e-3)
    assert ppm_to_number_density(1.0) == pytest.approx(1.7627e-4, rel=1e-3)


def test_jt_axes_unit_norm_and_alignment():
    for axis in JT_AXES:
        assert np.linalg.norm(axis) == pytest.approx(1.0, abs=1e-14)
    # first axis is the central-spin quantization axis
    assert np.allclose(JT_AXES[0], DEFAULTS.central.quantization_axis)


def test_default_parameters_schema():
    params = load_parameters()
    assert params.schema.startswith("spinbath-params")
    assert params.field.B_z == 50.0
    assert DEFAULTS.central.qubit_levels == (0, -1)


@pytest.mark.parametrize("isotope,nuclear_I", [("n15", 0.5), ("n14", 1.0)])
def test_p1_isotopes(isotope, nuclear_I):
    p1 = DEFAULTS.p1(isotope)
    assert p1.nuclear_I == nuclear_I
    assert p1.A_par > p1.A_perp > 0


def test_hyperfine_shift_axis_dependence():
    p1 = DEFAULTS.p1("n15")
    # axis 0 is parallel to the quantization axis: full A_par
    on_axis = p1.hyperfine_shift(0.5, 0)
    off_axis = p1.hyperfine_shift(0.5, 1)
    assert on_axis == pytest.approx(0.5 * p1.A_par, rel=1e-12)
    assert abs(off_axis) < abs(on_axis)


def reference_hyperfine_shift(p1, m, axis_index):
    """The one-spin expression that the per-axis table is built from."""
    cb = float(np.dot(JT_AXES[axis_index], p1.quantization_axis))
    return m * (p1.A_par * cb**2 + p1.A_perp * (1.0 - cb**2))


@pytest.mark.parametrize("isotope", ["n14", "n15"])
def test_hyperfine_shift_arrays_match_scalar_calls(isotope):
    p1 = DEFAULTS.p1(isotope)
    pairs = [(m, k) for m in p1.nuclear_projections for k in range(4)]
    ms = np.array([m for m, _ in pairs])
    axes = np.array([k for _, k in pairs])
    shifts = p1.hyperfine_shift(ms, axes)
    scalar = np.array([p1.hyperfine_shift(m, k) for m, k in pairs])
    ref = np.array([reference_hyperfine_shift(p1, m, k) for m, k in pairs])
    assert shifts.shape == (len(pairs),)
    assert shifts.tobytes() == scalar.tobytes() == ref.tobytes()


def test_field_config_units():
    f = FieldConfig(B_z=311.0)
    assert f.B_z == 311.0
