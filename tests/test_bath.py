import io
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinbath.bath import (
    _DIAMOND_BASIS,
    BOND_LENGTH_NM,
    BathConfiguration,
    BathGeometry,
    _draw_positions,
    default_lateral_radius,
    generate_bath,
    keep_nearest,
    mean_nn_distance_formula,
    nearest_neighbor_distance,
    read_bath,
    slice_bath,
    write_bath,
)
from spinbath.cce import HAHN_ECHO, CCEConfig, cce_coherence
from spinbath.constants import CONSTANTS, ppm_to_number_density


def test_geometry_validation():
    with pytest.raises(ValueError):
        BathGeometry(-1.0, 5.0, 10.0)
    with pytest.raises(ValueError):
        BathGeometry(1.0, 0.0, 10.0)
    with pytest.raises(ValueError):
        BathGeometry(1.0, 5.0, 10.0, "magic")


@pytest.mark.parametrize("fields,match", [
    ((np.nan, 5.0, 10.0), "density must be positive and finite, got nan"),
    ((1.0, np.inf, 10.0), "thickness must be positive and finite, got inf"),
    ((1.0, 5.0, -np.inf), "lateral_radius must be positive and finite, "
                          "got -inf"),
    ((1.5e6, 5.0, 10.0), "density 1.5e[+]06 ppm exceeds 1e[+]06 ppm"),
])
def test_geometry_refuses_non_finite_fields_and_overfull_densities(fields,
                                                                   match):
    with pytest.raises(ValueError, match=match):
        BathGeometry(*fields)
    BathGeometry(1e6, 5.0, 10.0)


def test_expected_count_does_not_overflow():
    assert BathGeometry(3.0, 10.0, 1e300).expected_count == np.inf


@pytest.mark.parametrize("geom,match", [
    # 36 spins at 1e-300 ppm in a 10 nm slab need a radius of 1e149 nm
    (BathGeometry(1e-300, 10.0, default_lateral_radius(1e-300, 10.0)),
     "lattice sites exceed the cap"),
    (BathGeometry(3.0, 10.0, 1e300), "inf expected spins exceed the cap"),
    (BathGeometry(3.0, 10.0, 1e300, "continuum-poisson"),
     "inf expected spins exceed the cap"),
])
def test_generate_bath_refuses_a_bath_too_large_to_draw(geom, match):
    with pytest.raises(ValueError, match=match):
        generate_bath(geom, 1)


@pytest.mark.parametrize("thickness,match", [
    (np.nan, "must be finite, got nan"), (np.inf, "must be finite, got inf"),
    (0.0, "must be positive"), (-1.0, "must be positive"),
])
def test_slice_refuses_a_thickness_not_positive_and_finite(thickness, match):
    cfg = generate_bath(BathGeometry(20.0, 20.0, 20.0), 5)
    with pytest.raises(ValueError, match="slice thickness " + match):
        slice_bath(cfg, thickness)


def test_determinism():
    geom = BathGeometry(5.0, 10.0, 20.0)
    a = generate_bath(geom, 42)
    b = generate_bath(geom, 42)
    assert len(a) == len(b)
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.jt_axes, b.jt_axes)
    c = generate_bath(geom, 43)
    assert len(c) != len(a) or not np.array_equal(c.positions, a.positions)


def test_configuration_equality_and_hash():
    geom = BathGeometry(20.0, 20.0, 20.0)
    a, b = generate_bath(geom, 5), generate_bath(geom, 5)
    assert a == b
    with pytest.raises(TypeError, match="unhashable"):
        hash(a)
    assert a != generate_bath(geom, 6)
    assert a != slice_bath(a, 4.0)
    assert a != keep_nearest(a, len(a) - 1)
    moved = a.positions.copy()
    moved[0, 0] += 1e-9
    shifted = BathConfiguration(moved, a.jt_axes, a.nuclear_m, a.geometry,
                                a.seed)
    assert a != shifted
    assert a != "not a bath"


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
    assert np.all(np.abs(sliced.positions[:, 2]) <= 2.0)
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
    assert np.array_equal(back.nuclear_m, cfg.nuclear_m)
    assert back == cfg


@given(ppm=st.floats(0.5, 50), t=st.floats(1.0, 40.0))
@settings(max_examples=30, deadline=None)
def test_default_lateral_radius_inverts_expected_count(ppm, t):
    R = default_lateral_radius(ppm, t, target_spins=36)
    geom = BathGeometry(ppm, t, R)
    assert geom.expected_count == pytest.approx(36.0, rel=1e-9)


@pytest.mark.parametrize("target", [0, -5, -0.5, float("nan")])
def test_default_lateral_radius_refuses_a_target_count_not_positive(target):
    with pytest.raises(ValueError, match="target spin count must be positive"):
        default_lateral_radius(3.0, 10.0, target)


def test_nuclear_projection_choices():
    geom = BathGeometry(30.0, 10.0, 15.0)
    cfg = generate_bath(geom, 2, nuclear_projections=(-1.0, 0.0, 1.0))
    assert set(cfg.nuclear_m.tolist()) <= {-1.0, 0.0, 1.0}
    assert set(cfg.jt_axes.tolist()) <= {0, 1, 2, 3}


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
    ("central", "central 0.0 nan 0.0\n"),
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


# --- bit-identity against frozen copies ------------------------------------
#
# Frozen copies of generate_bath, slice_bath and keep_nearest as they were
# before generation drew all coordinates at once and skipped the public
# constructor's copies and checks: three rng.uniform calls, rng.choice for
# the nuclear projections and np.linalg.norm, each result built through
# the public BathConfiguration constructor.

def frozen_generate_bath(geometry, seed, nuclear_projections=(-0.5, 0.5),
                         exclusion_radius=BOND_LENGTH_NM):
    ss = seed if isinstance(seed, np.random.SeedSequence) \
        else np.random.SeedSequence(seed)
    rng = np.random.default_rng(ss)
    R = geometry.lateral_radius
    t = geometry.thickness
    prob = geometry.density_ppm * 1e-6
    if geometry.placement_mode == "lattice-site":
        a = CONSTANTS.diamond_lattice_constant
        nx = int(np.ceil(2 * R / a)) + 1
        nz = int(np.ceil(t / a)) + 1
        nsites = nx * nx * nz * 8
        count = rng.binomial(nsites, prob)
        idx = rng.choice(nsites, size=count, replace=False) if count \
            else np.array([], dtype=int)
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
    return BathConfiguration(
        positions=pos, jt_axes=axes, nuclear_m=ms, geometry=geometry,
        seed=int(ss.entropy), spawn_key=ss.spawn_key,
    )


def frozen_slice_bath(config, new_thickness):
    keep = np.abs(config.positions[:, 2]) <= new_thickness / 2.0
    return BathConfiguration(
        config.positions[keep], config.jt_axes[keep], config.nuclear_m[keep],
        replace(config.geometry, thickness=float(new_thickness)),
        config.seed, config.spawn_key)


def frozen_keep_nearest(config, n):
    if len(config) <= n:
        return config
    d = np.linalg.norm(config.positions, axis=1)
    index = np.sort(np.argsort(d, kind="stable")[:n])
    return BathConfiguration(
        config.positions[index], config.jt_axes[index],
        config.nuclear_m[index], config.geometry, config.seed,
        config.spawn_key)


def assert_identical(cfg, frozen):
    assert cfg == frozen
    for name in ("positions", "jt_axes", "nuclear_m"):
        arr, ref = getattr(cfg, name), getattr(frozen, name)
        assert arr.dtype == ref.dtype and arr.shape == ref.shape
        assert arr.flags.writeable is False
    assert type(cfg.seed) is int
    assert all(type(k) is int for k in cfg.spawn_key)


@pytest.mark.parametrize("mode", ["lattice-site", "continuum-poisson"])
@pytest.mark.parametrize("ppm,thickness,spins", [
    (3.0, 4.0, 36), (20.0, 1.0, 36), (1.0, 32.0, 36),
    (30.0, 12.0, 0.5),  # most of these baths are empty
])
@pytest.mark.parametrize("kwargs", [
    {},
    {"exclusion_radius": 0.0},
    {"nuclear_projections": (0.5,)},
    {"nuclear_projections": (-1.0, 0.0, 1.0), "exclusion_radius": 2.5},
])
def test_generation_slicing_and_trimming_match_frozen_copies(
        mode, ppm, thickness, spins, kwargs):
    geom = BathGeometry(ppm, thickness,
                        default_lateral_radius(ppm, thickness, spins), mode)
    seeds = list(range(20)) + np.random.SeedSequence(
        9, spawn_key=(2,)).spawn(20)
    sizes = set()
    for seed in seeds:
        cfg = generate_bath(geom, seed, **kwargs)
        ref = frozen_generate_bath(geom, seed, **kwargs)
        assert_identical(cfg, ref)
        sizes.add(len(cfg))
        for t in (0.25 * thickness, 0.5, thickness):
            assert_identical(slice_bath(cfg, t), frozen_slice_bath(ref, t))
        for n in (0, 1, 7, len(cfg)):
            assert_identical(keep_nearest(cfg, n), frozen_keep_nearest(ref, n))
    assert 0 in sizes if spins < 1 else len(sizes) > 1


@pytest.mark.parametrize("mode", ["lattice-site", "continuum-poisson"])
@pytest.mark.parametrize("spins", [36, 0.5])  # at 0.5 most baths are empty
@pytest.mark.parametrize("kwargs", [{}, {"exclusion_radius": 0.0}])
def test_positions_drawn_in_blocks_match_frozen_copies(mode, spins, kwargs):
    geom = BathGeometry(3.0, 4.0, default_lateral_radius(3.0, 4.0, spins),
                        mode)
    spawned = np.random.SeedSequence(9, spawn_key=(2,)).spawn(40)
    sizes = set()
    for seeds in ([5], spawned[:1], list(range(40)), spawned,
                  list(range(7)) + spawned[:5]):
        seqs, rngs, positions = _draw_positions(geom, seeds, **kwargs)
        assert len(seqs) == len(rngs) == len(positions) == len(seeds)
        for seed, ss, rng, pos in zip(seeds, seqs, rngs, positions):
            ref = frozen_generate_bath(geom, seed, **kwargs)
            assert np.array_equal(pos, ref.positions)
            assert pos.dtype == ref.positions.dtype
            assert pos.shape == ref.positions.shape
            assert ss.entropy == ref.seed and ss.spawn_key == ref.spawn_key
            # each generator is left where the axis draws begin
            assert np.array_equal(rng.integers(0, 4, len(pos)), ref.jt_axes)
            sizes.add(len(pos))
    assert 0 in sizes if spins < 1 else len(sizes) > 1


# The per-spin dataclass implementation that the array layout replaced,
# kept as the reference: generation draws the same numbers in the same
# order, and slicing and trimming pick the same spins.

@dataclass(frozen=True)
class ReferenceSpin:
    position: np.ndarray
    jt_axis: int
    nuclear_m: float


def reference_generate_bath(geometry, seed, **kwargs):
    cfg = frozen_generate_bath(geometry, seed, **kwargs)
    return tuple(ReferenceSpin(position=p.copy(), jt_axis=int(a),
                               nuclear_m=float(m))
                 for p, a, m in zip(cfg.positions, cfg.jt_axes, cfg.nuclear_m))


def reference_slice_bath(spins, central_position, new_thickness):
    z0 = central_position[2]
    return tuple(s for s in spins
                 if abs(s.position[2] - z0) <= new_thickness / 2.0)


def reference_keep_nearest(spins, central_position, n):
    if len(spins) <= n:
        return spins
    positions = np.array([s.position for s in spins])
    d = np.linalg.norm(positions - central_position, axis=1)
    order = np.argsort(d, kind="stable")[:n]
    return tuple(spins[i] for i in sorted(order))


def assert_same_spins(cfg, spins):
    positions = np.array([s.position for s in spins]) if spins \
        else np.zeros((0, 3))
    assert np.array_equal(cfg.positions, positions)
    assert np.array_equal(cfg.jt_axes, [s.jt_axis for s in spins])
    assert np.array_equal(cfg.nuclear_m, [s.nuclear_m for s in spins])


@pytest.mark.parametrize("mode", ["lattice-site", "continuum-poisson"])
@pytest.mark.parametrize("kwargs", [
    {},
    {"exclusion_radius": 2.5, "nuclear_projections": (-1.0, 0.0, 1.0)},
])
def test_arrays_match_per_spin_reference(mode, kwargs):
    geom = BathGeometry(20.0, 12.0, default_lateral_radius(20.0, 12.0, 40),
                        mode)
    seeds = list(range(25)) + [np.random.SeedSequence(9, spawn_key=(0, i))
                               for i in range(25)]
    for seed in seeds:
        cfg = generate_bath(geom, seed, **kwargs)
        spins = reference_generate_bath(geom, seed, **kwargs)
        assert_same_spins(cfg, spins)
        for t in (0.5, 3.0, 12.0):
            assert_same_spins(slice_bath(cfg, t), reference_slice_bath(
                spins, np.zeros(3), t))
        for n in (0, 1, 7, len(spins)):
            assert_same_spins(keep_nearest(cfg, n), reference_keep_nearest(
                spins, np.zeros(3), n))


def test_slice_boundary_matches_per_spin_reference():
    z = np.array([-1.0, -0.5, 0.0, 0.5, 1.0, 1.5])
    positions = np.stack([np.ones(6), np.zeros(6), z], axis=1)
    cfg = BathConfiguration(positions, np.arange(6) % 4, np.full(6, 0.5),
                            BathGeometry(1.0, 4.0, 2.0), seed=0)
    spins = tuple(ReferenceSpin(p, int(a), float(m)) for p, a, m in
                  zip(cfg.positions, cfg.jt_axes, cfg.nuclear_m))
    for t in (1.0, 2.0):
        sliced = slice_bath(cfg, t)
        assert np.all(np.abs(sliced.positions[:, 2]) <= t / 2.0)
        assert len(sliced) == np.count_nonzero(np.abs(z) <= t / 2.0)
        assert_same_spins(sliced, reference_slice_bath(spins, np.zeros(3), t))


def test_arrays_are_read_only_copies():
    positions = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    cfg = BathConfiguration(positions, np.array([0, 3]), np.array([0.5, -0.5]),
                            BathGeometry(1.0, 1.0, 1.0), seed=0)
    positions[0, 0] = 9.0
    assert cfg.positions[0, 0] == 1.0
    for arr in (cfg.positions, cfg.jt_axes, cfg.nuclear_m):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1
    for derived in (slice_bath(cfg, 0.5), keep_nearest(cfg, 1),
                    generate_bath(BathGeometry(50.0, 6.0, 8.0), 1)):
        with pytest.raises(ValueError, match="read-only"):
            derived.positions[0, 0] = 1.0


@pytest.mark.parametrize("positions,axes,ms,match", [
    (np.zeros((2, 2)), [0, 0], [0.5, 0.5], "shapes"),
    (np.ones((2, 3)), [0], [0.5, 0.5], "shapes"),
    (np.ones((2, 3)), [0, 0], [0.5], "shapes"),
    (np.ones((2, 3)), [0, 4], [0.5, 0.5], "0..3"),
    (np.ones((2, 3)), [-1, 0], [0.5, 0.5], "0..3"),
    (np.ones((2, 3)), [0.0, 1.5], [0.5, 0.5], "integers"),
    (np.array([[1.0, np.nan, 0.0], [1.0, 1.0, 1.0]]), [0, 0], [0.5, 0.5],
     "finite"),
])
def test_configuration_rejects_bad_arrays(positions, axes, ms, match):
    with pytest.raises(ValueError, match=match):
        BathConfiguration(positions, axes, ms, BathGeometry(1.0, 1.0, 1.0),
                          seed=0)


def test_empty_configuration():
    cfg = BathConfiguration(np.zeros((0, 3)), [], [],
                            BathGeometry(1.0, 1.0, 1.0), seed=0)
    assert len(cfg) == 0 and cfg.jt_axes.dtype == np.int64


def _round_trip(cfg):
    buf = io.StringIO()
    write_bath(cfg, buf)
    text = buf.getvalue()
    return text, read_bath(io.StringIO(text))


def test_spawned_bath_regenerates_from_its_file():
    geom = BathGeometry(20.0, 8.0, default_lateral_radius(20.0, 8.0, 30))
    parent = np.random.SeedSequence(1234, spawn_key=(2, 5))
    for ss in (parent, parent.spawn(2)[1]):
        cfg = generate_bath(geom, ss)
        text, back = _round_trip(cfg)
        assert text.splitlines()[1] == " ".join(
            map(str, ("seed", ss.entropy, *ss.spawn_key)))
        again = generate_bath(back.geometry, np.random.SeedSequence(
            back.seed, spawn_key=back.spawn_key))
        assert_same_spins(again, reference_generate_bath(geom, ss))
        assert _round_trip(again)[0] == text


def test_int_seed_line_is_unchanged():
    cfg = generate_bath(BathGeometry(3.0, 5.0, 20.0), 7)
    text, back = _round_trip(cfg)
    assert text.splitlines()[1] == "seed 7"
    assert (back.seed, back.spawn_key) == (7, ())


def test_numpy_typed_geometry_round_trips():
    geom = BathGeometry(np.float64(3.0), np.float32(5.5),
                        np.float64(default_lateral_radius(3.0, 5.5)))
    cfg = generate_bath(geom, 7)
    text, back = _round_trip(cfg)
    assert text.splitlines()[2] == \
        f"geometry 3.0 5.5 {default_lateral_radius(3.0, 5.5)!r} lattice-site"
    assert back == cfg
    assert _round_trip(back)[0] == text


def test_off_origin_central_line_translates_the_spins():
    # a file may place the central spin off the origin; reading it moves
    # the central spin to the origin and every bath spin with it
    text = _bath_text()
    cfg = read_bath(io.StringIO(text))
    centre = np.array([0.25, -0.5, 0.125])
    lines = []
    for line in text.splitlines(keepends=True):
        tok = line.split()
        if tok[0] == "central":
            line = "central {!r} {!r} {!r}\n".format(*centre.tolist())
        elif tok[0] == "spin":
            p = [float(v) for v in tok[1:4]] + centre
            line = "spin {!r} {!r} {!r} {} {}\n".format(*p.tolist(), *tok[4:])
        lines.append(line)
    moved_text = "".join(lines)
    moved = read_bath(io.StringIO(moved_text))
    spins = np.array([[float(v) for v in ln.split()[1:4]] for ln in lines
                      if ln.startswith("spin ")])
    assert np.array_equal(moved.positions, spins - centre)
    assert np.allclose(moved.positions, cfg.positions, rtol=0, atol=1e-12)
    # the same bath written with the translated positions and a centre at
    # the origin reads back the same and gives the same coherence
    buf = io.StringIO()
    write_bath(moved, buf)
    assert "central 0.0 0.0 0.0\n" in buf.getvalue()
    translated = read_bath(io.StringIO(buf.getvalue()))
    assert translated == moved
    grid = np.linspace(0.0, 0.02, 6)
    for mode in ("secular", "full"):
        cce = CCEConfig(order=2, dipole_radius=1e9, n_bath_states=2,
                        time_grid=grid, mode=mode)
        assert np.array_equal(
            cce_coherence(moved, cce, HAHN_ECHO, seed=3).values,
            cce_coherence(translated, cce, HAHN_ECHO, seed=3).values)
