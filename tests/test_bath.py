import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinbath.bath import (
    BOND_LENGTH_NM,
    BathGeometry,
    default_lateral_radius,
    generate_bath,
    keep_nearest,
    mean_nn_distance_formula,
    nearest_neighbor_distance,
    read_bath,
    slice_bath,
    write_bath,
)
from spinbath.constants import CONSTANTS, ppm_to_number_density


def test_geometry_validation():
    with pytest.raises(ValueError):
        BathGeometry(-1.0, 5.0, 10.0)
    with pytest.raises(ValueError):
        BathGeometry(1.0, 0.0, 10.0)
    with pytest.raises(ValueError):
        BathGeometry(1.0, 5.0, 10.0, "magic")


def test_determinism():
    geom = BathGeometry(5.0, 10.0, 20.0)
    a = generate_bath(geom, 42)
    b = generate_bath(geom, 42)
    assert len(a) == len(b)
    assert np.array_equal(a.positions, b.positions)
    assert [s.jt_axis for s in a.spins] == [s.jt_axis for s in b.spins]
    c = generate_bath(geom, 43)
    assert len(c) != len(a) or not np.array_equal(c.positions, a.positions)


def test_expected_count_statistics():
    geom = BathGeometry(10.0, 10.0, 30.0)
    counts = [len(generate_bath(geom, s)) for s in range(200)]
    expect = geom.expected_count
    assert np.mean(counts) == pytest.approx(expect, rel=0.05)


def test_lattice_sites_on_diamond_lattice():
    geom = BathGeometry(300.0, 4.0, 6.0)
    cfg = generate_bath(geom, 3)
    pos = cfg.positions
    assert len(pos) > 20
    # pairwise distances never below the carbon-carbon bond length
    d = np.linalg.norm(pos[:, None] - pos[None, :], axis=-1)
    np.fill_diagonal(d, np.inf)
    assert d.min() >= BOND_LENGTH_NM - 1e-9
    # fractional coordinates land on the 8-site basis of the cubic cell
    a = CONSTANTS.diamond_lattice_constant
    frac = np.mod(pos / a * 4.0, 1.0)
    assert np.allclose(np.minimum(frac, 1 - frac), 0.0, atol=1e-6)


def test_geometry_bounds_and_exclusion():
    geom = BathGeometry(50.0, 6.0, 15.0)
    cfg = generate_bath(geom, 9, exclusion_radius=1.5)
    pos = cfg.positions
    assert np.all(np.abs(pos[:, 2]) <= 3.0 + 1e-9)
    assert np.all(pos[:, 0] ** 2 + pos[:, 1] ** 2 <= 15.0**2 + 1e-9)
    assert np.all(np.linalg.norm(pos, axis=1) > 1.5)


def test_slice_and_keep_nearest():
    geom = BathGeometry(20.0, 20.0, 20.0)
    cfg = generate_bath(geom, 5)
    sliced = slice_bath(cfg, 4.0)
    assert all(abs(s.position[2]) <= 2.0 for s in sliced.spins)
    assert sliced.geometry.thickness == 4.0
    trimmed = keep_nearest(cfg, 7)
    assert len(trimmed) == 7
    d_all = np.sort(np.linalg.norm(cfg.positions, axis=1))
    d_kept = np.sort(np.linalg.norm(trimmed.positions, axis=1))
    assert np.allclose(d_kept, d_all[:7])
    with pytest.raises(ValueError):
        slice_bath(cfg, 25.0)


def test_mean_nn_distance_formula_value():
    # 0.554 rho^-1/3 at 3 ppm is 6.85 nm
    assert mean_nn_distance_formula(3.0) == pytest.approx(6.85, abs=0.01)


def test_mean_nn_monte_carlo():
    ppm = 10.0
    expect = mean_nn_distance_formula(ppm)
    geom = BathGeometry(ppm, 6 * expect, 4 * expect, "continuum-poisson")
    vals = []
    for s in range(400):
        cfg = generate_bath(geom, s, exclusion_radius=0.0)
        if len(cfg):
            vals.append(nearest_neighbor_distance(cfg))
    assert np.mean(vals) == pytest.approx(expect, rel=0.03)


def test_round_trip_lossless():
    geom = BathGeometry(7.0, 12.0, 18.0, "continuum-poisson")
    cfg = generate_bath(geom, 11)
    buf = io.StringIO()
    write_bath(cfg, buf)
    buf.seek(0)
    back = read_bath(buf)
    assert len(back) == len(cfg)
    assert np.array_equal(back.positions, cfg.positions)
    assert back.geometry == cfg.geometry
    assert [s.nuclear_m for s in back.spins] == [s.nuclear_m for s in cfg.spins]


@given(ppm=st.floats(0.5, 50), t=st.floats(1.0, 40.0))
@settings(max_examples=30, deadline=None)
def test_default_lateral_radius_inverts_expected_count(ppm, t):
    R = default_lateral_radius(ppm, t, target_spins=36)
    geom = BathGeometry(ppm, t, R)
    assert geom.expected_count == pytest.approx(36.0, rel=1e-9)


def test_nuclear_projection_choices():
    geom = BathGeometry(30.0, 10.0, 15.0)
    cfg = generate_bath(geom, 2, nuclear_projections=(-1.0, 0.0, 1.0))
    assert {s.nuclear_m for s in cfg.spins} <= {-1.0, 0.0, 1.0}
    assert {s.jt_axis for s in cfg.spins} <= {0, 1, 2, 3}


def _bath_text(n_spins=6):
    geom = BathGeometry(20.0, 6.0, 8.0, "continuum-poisson")
    cfg = keep_nearest(generate_bath(geom, 4), n_spins)
    buf = io.StringIO()
    write_bath(cfg, buf)
    return buf.getvalue()


@given(cut=st.integers(0, len(_bath_text())))
@settings(max_examples=100, deadline=None)
def test_read_bath_truncated(cut):
    text = _bath_text()
    try:
        cfg = read_bath(io.StringIO(text[:cut]))
    except ValueError:
        return
    # only a cut inside the last number (or after it) can still parse
    assert cut >= text.rindex(" ") + 2
    assert len(cfg) == text.count("\nspin ")


@pytest.mark.parametrize("line,replacement", [
    ("seed", "seed\n"),
    ("geometry", "geometry 20.0 6.0\n"),
    ("central", "central 0.0 zero 0.0\n"),
    ("nspins", "nspins -1\n"),
    ("nspins", "count 6\n"),
    ("spin", "spin 1.0 2.0 3.0 7 0.5\n"),
    ("spin", "spin 1.0 2.0 3.0 1\n"),
])
def test_read_bath_malformed_lines(line, replacement):
    lines = _bath_text().splitlines(keepends=True)
    at = next(i for i, ln in enumerate(lines) if ln.startswith(line + " "))
    lines[at] = replacement
    with pytest.raises(ValueError, match="bath file line"):
        read_bath(io.StringIO("".join(lines)))
