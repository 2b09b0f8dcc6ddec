import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinbath.cce import CoherenceCurve
from spinbath.fitting import (
    DistributionStats,
    SweepGrid,
    distribution_stats,
    fit_stretched_exponential,
    read_sweep,
    run_sweep,
    write_sweep,
)


def make_curve(t2, n, tmax=None, npts=60, noise=0.0, baseline=0.0, seed=0):
    tmax = tmax if tmax is not None else 4.0 * t2
    t = np.linspace(0.0, tmax, npts)
    y = (1.0 - baseline) * np.exp(-((t / t2) ** n)) + baseline
    if noise:
        rng = np.random.default_rng(seed)
        y = np.clip(y + noise * rng.standard_normal(npts), 1e-6, None)
        y[0] = 1.0
    return CoherenceCurve(times=t, values=y.astype(complex))


@given(t2=st.floats(0.001, 1.0), n=st.floats(0.5, 3.0))
@settings(max_examples=40, deadline=None)
def test_fit_recovers_parameters(t2, n):
    fit = fit_stretched_exponential(make_curve(t2, n))
    assert fit.converged
    assert fit.t2 == pytest.approx(t2, rel=1e-4)
    assert fit.n_exponent == pytest.approx(n, rel=1e-4)


def test_fit_with_noise():
    fit = fit_stretched_exponential(make_curve(0.01, 1.5, noise=0.02, seed=3))
    assert fit.t2 == pytest.approx(0.01, rel=0.1)
    assert fit.n_exponent == pytest.approx(1.5, rel=0.2)


def test_fit_baseline_recovers_plateau():
    fit = fit_stretched_exponential(make_curve(0.02, 1.3, baseline=0.25),
                                    baseline=True)
    assert fit.t2 == pytest.approx(0.02, rel=1e-3)
    assert fit.n_exponent == pytest.approx(1.3, rel=1e-3)
    assert fit.baseline == pytest.approx(0.25, abs=1e-3)


def test_fit_without_baseline_flattens_exponent():
    # an unmodeled plateau drags the fitted exponent down
    plain = fit_stretched_exponential(make_curve(0.02, 1.3, baseline=0.25))
    assert plain.n_exponent < 1.3


def test_fit_requires_decay():
    t = np.linspace(0.0, 1.0, 50)
    curve = CoherenceCurve(times=t, values=np.ones(50, complex))
    with pytest.raises(ValueError):
        fit_stretched_exponential(curve)


# --- distribution statistics -------------------------------------------

def test_distribution_stats_lognormal_oracle():
    rng = np.random.default_rng(1)
    mu_log, sigma_log = -1.2, 0.3
    samples = 10 ** (mu_log + sigma_log * rng.standard_normal(20000))
    stats = distribution_stats(samples)
    assert np.log10(stats.mu) == pytest.approx(mu_log, abs=0.01)
    assert stats.sigma == pytest.approx(sigma_log, abs=0.01)
    assert stats.n_samples == 20000


def test_distribution_stats_excludes_sentinels():
    stats = distribution_stats([0.1, 0.2, np.inf, np.nan, -1.0])
    assert stats.n_samples == 2
    assert stats.n_excluded == 3


def test_distribution_stats_needs_two_finite():
    with pytest.raises(ValueError):
        distribution_stats([0.1, np.inf])


# --- sweeps -------------------------------------------------------------

def test_run_sweep_shapes_and_determinism():
    grid1 = run_sweep([2.0, 5.0], [3.0, 6.0], 8, seed=4)
    grid2 = run_sweep([2.0, 5.0], [3.0, 6.0], 8, seed=4)
    assert set(grid1.cells) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    for key in grid1.cells:
        assert len(grid1.cells[key]) == 8
        assert np.array_equal(grid1.cells[key], grid2.cells[key])
    # different cells see different baths
    assert not np.array_equal(grid1.cells[(0, 0)], grid1.cells[(1, 1)])


def test_sweep_density_ordering():
    # denser baths dephase faster: median T2* decreases with density
    grid = run_sweep([10.0], [2.0, 20.0], 60, seed=9)
    lo = np.median(grid.cells[(0, 0)])
    hi = np.median(grid.cells[(0, 1)])
    assert hi < lo


def test_sweep_round_trip():
    grid = run_sweep([2.0], [3.0, 6.0], 5, seed=2)
    buf = io.StringIO()
    write_sweep(grid, buf)
    text = buf.getvalue()
    back = read_sweep(io.StringIO(text))
    assert back.metadata == grid.metadata
    assert np.array_equal(back.thicknesses, grid.thicknesses)
    assert np.array_equal(back.densities, grid.densities)
    for key in grid.cells:
        assert np.array_equal(back.cells[key], grid.cells[key])
    # idempotent: rewriting the parsed grid reproduces the bytes
    buf2 = io.StringIO()
    write_sweep(back, buf2)
    assert buf2.getvalue() == text


def _sweep_text():
    rng = np.random.default_rng(5)
    grid = SweepGrid(thicknesses=np.array([2.0, 8.0]),
                     densities=np.array([3.0, 6.0]),
                     cells={(i, j): rng.lognormal(0.0, 0.5, 3)
                            for i in range(2) for j in range(2)},
                     metadata={"seed": 5, "n_configs": 3,
                               "observable": "t2star", "target_spins": 36,
                               "placement_mode": "lattice-site"})
    buf = io.StringIO()
    write_sweep(grid, buf)
    return grid, buf.getvalue()


def test_write_sweep_needs_full_metadata():
    grid, _ = _sweep_text()
    partial = SweepGrid(thicknesses=grid.thicknesses,
                        densities=grid.densities, cells=grid.cells,
                        metadata={"seed": 5, "n_configs": 3,
                                  "observable": "t2star"})
    buf = io.StringIO()
    with pytest.raises(ValueError, match="lacks 'target_spins'"):
        write_sweep(partial, buf)
    assert buf.getvalue() == ""


@given(cut=st.integers(0, len(_sweep_text()[1])))
@settings(max_examples=100, deadline=None)
def test_read_sweep_truncated(cut):
    full, text = _sweep_text()
    try:
        grid = read_sweep(io.StringIO(text[:cut]))
    except ValueError:
        return
    # every cell holds n_configs samples, so only a cut inside the last
    # number (or after it) can still parse
    assert cut >= text.rindex(" ") + 2
    assert sorted(grid.cells) == sorted(full.cells)
    assert np.array_equal(grid.cells[(0, 0)], full.cells[(0, 0)])


@pytest.mark.parametrize("line,replacement", [
    ("meta", "meta seed 5 n_configs 3\n"),
    ("thicknesses", "thicknesses\n"),
    ("cell", "cell 0 0 1.0 2.0\n"),
    ("cell", "cell 2 0 1.0 2.0 3.0\n"),
    ("cell", "cell 0 x 1.0 2.0 3.0\n"),
])
def test_read_sweep_malformed_lines(line, replacement):
    lines = _sweep_text()[1].splitlines(keepends=True)
    at = next(i for i, ln in enumerate(lines) if ln.startswith(line + " "))
    lines[at] = replacement
    with pytest.raises(ValueError, match=f"sweep file line {at + 1}:"):
        read_sweep(io.StringIO("".join(lines)))


def test_read_sweep_rejects_other_files():
    with pytest.raises(ValueError):
        read_sweep(io.StringIO("# spinbath bath-config v1\n"))
