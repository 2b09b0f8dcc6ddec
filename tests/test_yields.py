import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from spinbath.bath import (BathConfiguration, BathGeometry,
                           mean_nn_distance_formula)
from spinbath.constants import ppm_to_number_density
from spinbath.yields import (
    NNDistribution,
    VisibilitySample,
    YieldReport,
    bath_rate_scale,
    nn_pdf,
    peaked_gamma_visibility,
    read_yield_report,
    visibility,
    visibility_ratio_2d3d,
    write_yield_report,
    yield_sweep,
)


def bath_from_positions(positions, thickness=60.0, radius=60.0, ppm=3.0):
    geom = BathGeometry(ppm, thickness, radius, "continuum-poisson")
    positions = np.asarray(positions, float)
    n = len(positions)
    return BathConfiguration(central_position=np.zeros(3), positions=positions,
                             jt_axes=np.zeros(n, int),
                             nuclear_m=np.full(n, 0.5), geometry=geom, seed=0)


# --- closed-form distributions -----------------------------------------

@pytest.mark.parametrize("dim,kwargs", [
    ("3D", {"density_ppm": 3.0}),
    ("2D", {"areal_density": 0.01}),
    ("2D", {"density_ppm": 5.0, "thickness": 2.0}),
])
def test_nn_pdf_normalized(dim, kwargs):
    dist = nn_pdf(dim, **kwargs)
    total, _ = quad(dist.pdf, 0.0, np.inf)
    assert total == pytest.approx(1.0, abs=1e-8)


def test_nn_pdf_cdf_consistency():
    dist = nn_pdf("3D", density_ppm=3.0)
    r = 5.0
    integral, _ = quad(dist.pdf, 0.0, r)
    assert dist.cdf(r) == pytest.approx(integral, abs=1e-10)


def test_nn_mean_3d_matches_formula():
    dist = nn_pdf("3D", density_ppm=3.0)
    assert dist.mean() == pytest.approx(mean_nn_distance_formula(3.0),
                                        rel=1e-12)
    numeric, _ = quad(lambda r: r * dist.pdf(r), 0.0, np.inf)
    assert numeric == pytest.approx(dist.mean(), rel=1e-8)


def test_nn_mean_2d_median_scaling():
    sigma = 0.004
    dist = nn_pdf("2D", areal_density=sigma)
    assert dist.mean() == pytest.approx(0.5 / np.sqrt(sigma), rel=1e-12)
    # median from the cdf: pi r^2 sigma = ln 2
    median = np.sqrt(np.log(2.0) / (np.pi * sigma))
    assert dist.cdf(median) == pytest.approx(0.5, abs=1e-12)


def test_nn_pdf_validation():
    with pytest.raises(ValueError):
        nn_pdf("4D", density_ppm=1.0)
    with pytest.raises(ValueError):
        nn_pdf("2D", density_ppm=1.0)  # missing thickness
    with pytest.raises(ValueError):
        NNDistribution("3D", -1.0)


def test_bath_rate_scale_forms():
    rho, sigma, r = 5e-4, 1e-3, 4.0
    assert bath_rate_scale("3D", rho, r) == pytest.approx(
        np.sqrt(4.0 * np.pi * rho / (3.0 * r**3)))
    assert bath_rate_scale("2D", sigma, r) == pytest.approx(
        np.sqrt(np.pi * sigma / (2.0 * r**4)))
    with pytest.raises(ValueError):
        bath_rate_scale("3D", rho, 0.0)


def test_peaked_gamma_mean_ratio_is_sqrt2():
    # averaging the estimator over the closed-form r_nn distributions
    # gives <nu_2D>/<nu_3D> = sqrt(2) independent of density
    rho = ppm_to_number_density(3.0)
    sigma = rho * 1.0
    d2, d3 = nn_pdf("2D", areal_density=sigma), nn_pdf("3D", number_density=rho)
    nu2, _ = quad(lambda r: peaked_gamma_visibility(r, "2D", sigma)
                  * d2.pdf(r), 0, np.inf)
    nu3, _ = quad(lambda r: peaked_gamma_visibility(r, "3D", rho)
                  * d3.pdf(r), 0, np.inf)
    assert nu2 / nu3 == pytest.approx(np.sqrt(2.0), rel=1e-8)


# --- visibility ---------------------------------------------------------

def test_visibility_two_equal_spins():
    # nearest spin vs one identical other: nu = |A|/(sqrt(2) |A|/2)
    cfg = bath_from_positions([[0, 0, 4.0], [0, 0, -4.0]])
    v = visibility(cfg)
    assert v.nu == pytest.approx(np.sqrt(2.0), rel=1e-12)


def test_visibility_dominant_neighbor():
    cfg = bath_from_positions([[0, 0, 2.0], [0, 0, -20.0], [15.0, 0, 0]])
    v = visibility(cfg)
    assert v.nu > 10.0


def test_visibility_rotation_invariance_about_axis():
    # rotating the bath about the quantization axis preserves nu
    from spinbath.constants import DEFAULTS

    rng = np.random.default_rng(0)
    pos = rng.uniform(-10, 10, (5, 3))
    axis = np.asarray(DEFAULTS.central.quantization_axis, float)
    axis = axis / np.linalg.norm(axis)
    th = 1.1
    K = np.array([[0, -axis[2], axis[1]],
                  [axis[2], 0, -axis[0]],
                  [-axis[1], axis[0], 0]])
    rot = np.eye(3) + np.sin(th) * K + (1 - np.cos(th)) * (K @ K)
    v1 = visibility(bath_from_positions(pos))
    v2 = visibility(bath_from_positions(pos @ rot.T))
    assert v2.nu == pytest.approx(v1.nu, rel=1e-10)


def test_visibility_needs_two_spins():
    with pytest.raises(ValueError):
        visibility(bath_from_positions([[0, 0, 3.0]]))


def test_visibility_sample_invariant():
    with pytest.raises(ValueError):
        VisibilitySample(nu=1.0, a0=10.0, a_bath=1.0)


# --- yield sweep --------------------------------------------------------

def test_yield_sweep_monotone_trend():
    report = yield_sweep([3.0], [1.0, 5.0, 50.0], 300, seed=5)
    y = report.yield_fraction[0]
    # thin slabs yield strong spins more often than thick ones
    assert y[0] > y[2]
    assert np.all(report.yield_stderr >= 0)
    assert report.mean_rnn[0] == pytest.approx(
        mean_nn_distance_formula(3.0))


def test_yield_sweep_deterministic():
    r1 = yield_sweep([3.0], [2.0, 50.0], 50, seed=8)
    r2 = yield_sweep([3.0], [2.0, 50.0], 50, seed=8)
    assert np.array_equal(r1.yield_fraction, r2.yield_fraction)


def test_yield_sweep_validation():
    with pytest.raises(ValueError):
        yield_sweep([3.0], [60.0], 10, seed=0)  # thicker than master slab
    with pytest.raises(ValueError):
        yield_sweep([-1.0], [5.0], 10, seed=0)


def test_crossover_on_synthetic_curve():
    t = np.array([0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 50.0])
    y = np.where(t <= 4.0, 0.9, 0.9 - 0.6 * np.log(t / 4.0) / np.log(50.0 / 4.0))
    report = YieldReport(
        densities=np.array([3.0]), thicknesses=t,
        yield_fraction=y[None, :], yield_stderr=np.zeros((1, len(t))),
        mean_rnn=np.array([6.85]))
    cross = report.crossover_thickness()
    # threshold y3d + 0.9 (plateau - y3d) crossed just past the plateau edge
    assert 4.0 < cross < 8.0
    assert report.thin_thick_ratio() == pytest.approx(0.9 / y[-1])


def test_yield_report_round_trip():
    report = yield_sweep([3.0, 6.0], [2.0, 10.0, 50.0], 40, seed=3)
    buf = io.StringIO()
    write_yield_report(report, buf)
    buf.seek(0)
    back = read_yield_report(buf)
    assert np.array_equal(back.densities, report.densities)
    assert np.array_equal(back.thicknesses, report.thicknesses)
    assert np.array_equal(back.yield_fraction, report.yield_fraction)
    assert np.array_equal(back.yield_stderr, report.yield_stderr)
    assert np.array_equal(back.mean_rnn, report.mean_rnn)


# --- dimensionality ratio ----------------------------------------------

def test_visibility_ratio_small_sample():
    ratio, details = visibility_ratio_2d3d(3.0, 1.0, 50.0, 400, seed=2)
    assert ratio == pytest.approx(np.sqrt(2.0), rel=0.2)
    assert details["method"] == "peaked-gamma"


def test_visibility_ratio_warns_out_of_regime():
    with pytest.warns(UserWarning):
        visibility_ratio_2d3d(3.0, 20.0, 50.0, 10, seed=1)


def _yield_text():
    rng = np.random.default_rng(8)
    report = YieldReport(
        densities=np.array([3.0, 6.0]), thicknesses=np.array([2.0, 10.0, 50.0]),
        yield_fraction=rng.uniform(0.0, 1.0, (2, 3)),
        yield_stderr=rng.uniform(0.0, 0.05, (2, 3)),
        mean_rnn=np.array([6.85, 5.44]),
        metadata={"seed": 8, "n_configs": 40, "master_thickness": 50.0})
    buf = io.StringIO()
    write_yield_report(report, buf)
    return report, buf.getvalue()


@given(cut=st.integers(0, len(_yield_text()[1])))
@settings(max_examples=100, deadline=None)
def test_read_yield_report_truncated(cut):
    full, text = _yield_text()
    try:
        back = read_yield_report(io.StringIO(text[:cut]))
    except ValueError:
        return
    # the format holds no row count: a cut at the end of a row parses as
    # a report over the rows before it when they fill a grid, and a cut
    # inside the last number shortens only the last row's mean_rnn
    k, m = len(back.densities), len(back.thicknesses)
    assert k == 1 or m == len(full.thicknesses)
    assert np.array_equal(back.densities, full.densities[:k])
    assert np.array_equal(back.thicknesses, full.thicknesses[:m])
    assert np.array_equal(back.yield_fraction, full.yield_fraction[:k, :m])
    assert np.array_equal(back.yield_stderr, full.yield_stderr[:k, :m])
    assert np.array_equal(back.mean_rnn[:k - 1], full.mean_rnn[:k - 1])


@pytest.mark.parametrize("at,replacement", [
    (1, "meta seed 8 n_configs 40\n"),
    (2, ""),
    (3, "3.0 2.0 0.5 0.01\n"),
    (4, "3.0 2.0 0.5 0.01 6.85\n"),
])
def test_read_yield_report_malformed_lines(at, replacement):
    lines = _yield_text()[1].splitlines(keepends=True)
    lines[at] = replacement
    with pytest.raises(ValueError, match=f"yield-report file line {at + 1}:"):
        read_yield_report(io.StringIO("".join(lines)))


def test_read_yield_report_missing_row():
    lines = _yield_text()[1].splitlines(keepends=True)
    del lines[4]
    with pytest.raises(ValueError, match="5 of 6"):
        read_yield_report(io.StringIO("".join(lines)))


def test_read_yield_report_skips_comment_lines():
    # `spinbath yield --ratio` appends a '# visibility_ratio_2d3d' line
    full, text = _yield_text()
    back = read_yield_report(io.StringIO(
        text + "# visibility_ratio_2d3d 1.5 mean_nu_2d 2.0 mean_nu_3d 1.0\n"))
    assert np.array_equal(back.yield_fraction, full.yield_fraction)
