import io
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinbath.mle as mle_module
from spinbath.mle import (
    CoherenceLibrary,
    DensityEstimate,
    RatePDF,
    benchmark_error,
    build_library,
    estimate_density,
    library_from_sweep,
    likelihood_surface,
    read_library,
    write_library,
)
from spinbath.fitting import SweepGrid, read_sweep, run_sweep, write_sweep


def lognormal_rates(mu, sigma, n, seed):
    rng = np.random.default_rng(seed)
    return 10 ** (mu + sigma * rng.standard_normal(n))


def synthetic_library(seed=0, n=400):
    """Cells whose rates scale linearly with density and thickness."""
    thicknesses = np.array([2.0, 4.0, 8.0])
    densities = np.array([1.0, 2.0, 4.0, 8.0])
    cells = {}
    for i, t in enumerate(thicknesses):
        for j, d in enumerate(densities):
            mu = np.log10(d * np.sqrt(t))
            cells[(i, j)] = np.sort(
                lognormal_rates(mu, 0.15, n, seed + 17 * i + j))
    return CoherenceLibrary(thicknesses=thicknesses, densities=densities,
                            cells=cells)


# --- rate PDF -----------------------------------------------------------

def test_pdf_normalization():
    # the interpolated density of log10(rate) integrates to 1 over the
    # support
    pdf = RatePDF(lognormal_rates(0.5, 0.3, 5000, seed=1))
    u = np.linspace(np.log10(pdf.support[0]), np.log10(pdf.support[1]),
                    8 * len(pdf.log_centers) + 1)
    integral = np.trapezoid(np.interp(u, pdf.log_centers, pdf.log_density), u)
    assert integral == pytest.approx(1.0, abs=1e-6)


def test_pdf_matches_lognormal_shape():
    mu, sig = 0.0, 0.25
    pdf = RatePDF(lognormal_rates(mu, sig, 200000, seed=2), n_bins=60)
    x = 10 ** np.linspace(mu - 2 * sig, mu + 2 * sig, 25)
    expect = (np.exp(-0.5 * ((np.log10(x) - mu) / sig) ** 2)
              / (x * np.log(10.0) * sig * np.sqrt(2 * np.pi)))
    assert np.allclose(pdf.raw(x), expect, rtol=0.08)


def test_pdf_floor_engages_outside_support():
    samples = lognormal_rates(0.0, 0.2, 300, seed=3)
    pdf = RatePDF(samples)
    far = np.array([samples.min() / 100.0, samples.max() * 100.0])
    assert np.all(pdf.raw(far) == 0.0)
    assert np.all(pdf(far) == pdf.floor)
    assert pdf.floor == pytest.approx(
        1.0 / (10.0 * 300 * (samples.max() - samples.min())))


def test_pdf_degenerate_spike():
    pdf = RatePDF(np.full(50, 2.0))
    assert pdf(np.array([2.0]))[0] > pdf.floor
    assert pdf(np.array([5.0]))[0] == pdf.floor


def test_pdf_rejects_bad_samples():
    with pytest.raises(ValueError):
        RatePDF(np.array([]))
    with pytest.raises(ValueError):
        RatePDF(np.array([1.0, -2.0]))
    with pytest.raises(ValueError):
        RatePDF(np.array([1.0, np.inf]))


# --- likelihood surface -------------------------------------------------

def test_likelihood_recovers_generating_cell():
    lib = synthetic_library()
    # data drawn from the (t=4, d=4) cell distribution
    rates = lognormal_rates(np.log10(4.0 * np.sqrt(4.0)), 0.15, 200, seed=9)
    surf = likelihood_surface(rates, lib)
    i, a = surf.argmax
    assert lib.thicknesses[i] == 4.0
    assert surf.densities[a] == pytest.approx(4.0, abs=0.5)


def test_likelihood_permutation_invariance():
    lib = synthetic_library()
    rates = lognormal_rates(np.log10(2.0), 0.15, 50, seed=4)
    s1 = likelihood_surface(rates, lib)
    s2 = likelihood_surface(rates[::-1].copy(), lib)
    assert np.array_equal(s1.log_likelihood, s2.log_likelihood)


def test_loglikelihood_doubles_with_duplicated_data():
    lib = synthetic_library()
    rates = lognormal_rates(np.log10(2.0), 0.15, 40, seed=5)
    s1 = likelihood_surface(rates, lib)
    s2 = likelihood_surface(np.concatenate([rates, rates]), lib)
    assert np.allclose(s2.log_likelihood, 2.0 * s1.log_likelihood)


# --- refined-axis interpolation against the per-density loops ------------

def refined_density_axis(densities):
    """The grid's density range at about REFINE_STEP_PPM spacing, both
    ends included."""
    lo, hi = float(densities[0]), float(densities[-1])
    n = max(2, int(round((hi - lo) / mle_module.REFINE_STEP_PPM)) + 1)
    return np.linspace(lo, hi, n)


def reference_surface_rows(rates, library, i):
    """One likelihood-surface row and its any-unfloored flag, one refined
    density at a time."""
    dens_axis = refined_density_axis(library.densities)
    grid_d = np.asarray(library.densities, dtype=float)
    evals = np.stack([library.pdf(i, j)(rates) for j in range(len(grid_d))])
    raws = np.stack([library.pdf(i, j).raw(rates)
                     for j in range(len(grid_d))])
    row = np.empty(len(dens_axis))
    any_unfloored = False
    for a, rho in enumerate(dens_axis):
        j = min(np.searchsorted(grid_d, rho, side="right") - 1,
                len(grid_d) - 2)
        j = max(j, 0)
        w = (rho - grid_d[j]) / (grid_d[j + 1] - grid_d[j])
        w = min(max(w, 0.0), 1.0)
        p = (1.0 - w) * evals[j] + w * evals[j + 1]
        praw = (1.0 - w) * raws[j] + w * raws[j + 1]
        if np.any(praw > 0):
            any_unfloored = True
        row[a] = np.sum(np.log(p))
    return row, any_unfloored


def reference_argmax_density(rates, library, i):
    dens_axis = refined_density_axis(library.densities)
    grid_d = np.asarray(library.densities, dtype=float)
    evals = np.stack([library.pdf(i, j)(rates) for j in range(len(grid_d))])
    best, best_ll = dens_axis[0], -np.inf
    for rho in dens_axis:
        j = min(np.searchsorted(grid_d, rho, side="right") - 1,
                len(grid_d) - 2)
        j = max(j, 0)
        w = (rho - grid_d[j]) / (grid_d[j + 1] - grid_d[j])
        w = min(max(w, 0.0), 1.0)
        ll = np.sum(np.log((1.0 - w) * evals[j] + w * evals[j + 1]))
        if ll > best_ll:
            best, best_ll = rho, ll
    return float(best)


# grid densities 1 + pitch * offsets: evenly spaced, or unevenly (the
# original uneven grid 1, 1.7, 4, 8.5 at a pitch of 1 ppm)
DENSITY_OFFSETS = {"even": np.arange(4.0), "uneven": np.array([0, 0.7, 3, 7.5])}


# REFINE_STEP_PPM (0.25) is above a 0.1 ppm pitch, equal to 0.25 and
# below 0.33 and 3
@pytest.mark.parametrize("pitch", [0.25, 0.1, 0.33, 3.0])
@pytest.mark.parametrize("layout", ["even", "uneven"])
def test_interpolation_matches_per_density_loops(layout, pitch):
    lib = synthetic_library(seed=0 if layout == "even" else 3,
                            n=400 if layout == "even" else 300)
    lib = replace(lib, densities=1.0 + pitch * DENSITY_OFFSETS[layout])
    rng = np.random.default_rng(int(pitch * 100))
    for trial in range(12):
        n = int(rng.integers(1, 400))
        rates = np.sort(lognormal_rates(rng.uniform(-0.5, 1.5), 0.3, n,
                                        seed=trial))
        surf = likelihood_surface(rates, lib)
        assert np.array_equal(surf.densities,
                              refined_density_axis(lib.densities))
        for i in range(len(lib.thicknesses)):
            row, unfloored = reference_surface_rows(rates, lib, i)
            assert np.array_equal(surf.log_likelihood[i], row)
            ll = mle_module._log_likelihoods(rates[None], lib, i)[0]
            assert surf.densities[np.argmax(ll)] \
                == reference_argmax_density(rates, lib, i)


@pytest.mark.parametrize("chunk", ["default", "small"])
@pytest.mark.parametrize("n", [1, 2, 8, 33])
def test_log_likelihoods_match_per_trial_loop(monkeypatch, n, chunk):
    lib = synthetic_library(seed=2, n=300)
    rng = np.random.default_rng(n)
    # rates of the tested cell, and of no cell (the floor engages)
    rates = rng.choice(np.concatenate([lib.cells[(1, 2)], [1e-3, 1e3]]),
                       size=(57, n))
    if chunk == "small":  # 3 rows a pass, 19 passes
        n_refined = len(refined_density_axis(lib.densities))
        monkeypatch.setattr(mle_module, "_LIKELIHOOD_CHUNK",
                            3 * n_refined * n)
    got = mle_module._log_likelihoods(rates, lib, 1)
    assert got.shape == (57, len(refined_density_axis(lib.densities)))
    for row, trial in zip(got, rates):
        assert np.array_equal(row, reference_surface_rows(trial, lib, 1)[0])


def test_pdf_cache_is_private():
    lib = synthetic_library(n=50)
    unused = replace(lib, provenance={})
    assert lib.pdf(1, 2) is lib.pdf(1, 2)
    assert lib.provenance == {}
    assert lib == unused
    assert repr(lib) == repr(unused)


def test_likelihood_rejects_unsupported_data():
    lib = synthetic_library()
    with pytest.raises(ValueError):
        likelihood_surface(np.array([1e9, 2e9]), lib)
    with pytest.raises(ValueError):
        likelihood_surface(np.array([]), lib)
    with pytest.raises(ValueError):
        likelihood_surface(np.array([-1.0]), lib)


def test_estimate_density_from_linecut():
    lib = synthetic_library()
    rates = lognormal_rates(np.log10(4.0 * np.sqrt(4.0)), 0.15, 400, seed=6)
    surf = likelihood_surface(rates, lib)
    est = estimate_density(surf, 4.0)
    assert est.fixed_thickness == 4.0
    assert est.rho_mle == pytest.approx(4.0, abs=0.6)
    assert est.rho_sigma > 0


def test_density_estimate_validation():
    with pytest.raises(ValueError):
        DensityEstimate(rho_mle=3.0, rho_sigma=0.0, fixed_thickness=2.0)


# --- benchmark ----------------------------------------------------------

def test_benchmark_error_decreases_with_n():
    lib = synthetic_library(n=600)
    bm = benchmark_error(lib, [2, 8, 32], trials=120, fixed_thickness=4.0,
                         seed=1)
    errs = bm.mean_relative_error
    assert errs[0] > errs[-1]
    assert bm.exponent > 0
    assert np.allclose(errs, np.sqrt(bm.mean_squared_error))


def test_benchmark_requires_enough_trials():
    lib = synthetic_library()
    with pytest.raises(ValueError):
        benchmark_error(lib, [2, 4], trials=10, fixed_thickness=4.0, seed=0)


def reference_benchmark_mean_sq(library, sample_counts, trials, i, seed):
    """benchmark_error's <eps^2> per N, one bootstrap trial at a time."""
    grid_d = np.asarray(library.densities, dtype=float)
    mean_sq = []
    for a, n in enumerate(sample_counts):
        eps_sq = []
        for jt, j in enumerate(range(1, len(grid_d) - 1)):
            rng = np.random.default_rng(mle_module.spawn_seed(seed, a, jt))
            for _ in range(trials):
                rates = rng.choice(library.cells[(i, j)], size=n,
                                   replace=True)
                rho = reference_argmax_density(rates, library, i)
                eps_sq.append((rho - grid_d[j]) ** 2 / grid_d[j] ** 2)
        mean_sq.append(np.mean(eps_sq))
    return mean_sq


def test_benchmark_error_matches_per_trial_loop():
    lib = synthetic_library(seed=4, n=200)
    bm = benchmark_error(lib, [1, 3], trials=100, fixed_thickness=4.0,
                         seed=5)
    assert np.array_equal(bm.mean_squared_error,
                          reference_benchmark_mean_sq(lib, [1, 3], 100, 1, 5))


@pytest.mark.parametrize("counts,trials,message", [
    ([0, 2], 100, "sample counts must be integers >= 1, got 0"),
    ([2, -3], 100, "sample counts must be integers >= 1, got -3"),
    ([2.7, 8], 100, "sample counts must be integers >= 1, got 2.7"),
    ([2, True], 100, "sample counts must be integers >= 1, got True"),
    ([2, 2], 100, "need at least two distinct sample counts for the "
                  "power-law fit, got [2, 2]"),
    ([4], 100, "need at least two distinct sample counts for the "
               "power-law fit, got [4]"),
    ([2, 8], 150.5, "trials must be an integer, got 150.5"),
])
def test_benchmark_refuses_bad_counts(counts, trials, message):
    lib = synthetic_library(n=50)
    with pytest.raises(ValueError) as info:
        benchmark_error(lib, counts, trials, fixed_thickness=4.0, seed=0)
    assert str(info.value) == message


# --- construction and serialization ------------------------------------

def test_build_library_from_engine():
    lib = build_library(np.array([3.0]), np.array([2.0, 5.0, 10.0, 20.0]),
                        60, seed=8)
    assert set(lib.cells) == {(0, j) for j in range(4)}
    for samples in lib.cells.values():
        assert np.all(samples > 0)
        assert np.all(np.diff(samples) >= 0)
    assert lib.provenance["schema"] == "spinbath-library-1"
    # median rate increases with density
    med = [np.median(lib.cells[(0, j)]) for j in range(4)]
    assert med[0] < med[-1]


def test_library_from_sweep_matches_build():
    grid = run_sweep([3.0], [2.0, 5.0, 10.0, 20.0], 60, seed=8,
                     placement_mode="continuum-poisson")
    lib1 = library_from_sweep(grid)
    lib2 = build_library(np.array([3.0]), np.array([2.0, 5.0, 10.0, 20.0]),
                         60, seed=8)
    for key in lib2.cells:
        assert np.array_equal(lib1.cells[key], lib2.cells[key])
    assert lib1.provenance == lib2.provenance
    assert lib1.provenance["n_samples"] == 60
    texts = []
    for lib in (lib1, lib2):
        buf = io.StringIO()
        write_library(lib, buf)
        texts.append(buf.getvalue())
    assert texts[0] == texts[1]
    assert "seed 8 n_samples 60 " in texts[0]


def test_library_from_sweep_file_keeps_provenance():
    grid = run_sweep([3.0], [2.0, 5.0], 20, seed=4,
                     placement_mode="continuum-poisson")
    buf = io.StringIO()
    write_sweep(grid, buf)
    back = read_sweep(io.StringIO(buf.getvalue()))
    libs = [library_from_sweep(g) for g in (grid, back)]
    assert libs[1].provenance == libs[0].provenance
    assert libs[1].provenance["placement_mode"] == "continuum-poisson"
    texts = []
    for lib in libs:
        out = io.StringIO()
        write_library(lib, out)
        texts.append(out.getvalue())
    assert texts[1] == texts[0]


def test_library_from_sweep_rejects_empty_cell():
    grid = SweepGrid(thicknesses=np.array([3.0]), densities=np.array([2.0]),
                     cells={(0, 0): np.array([np.inf, np.inf])},
                     metadata={"seed": 1, "n_configs": 2})
    with pytest.raises(ValueError, match=r"cell \(0, 0\) has no finite"):
        library_from_sweep(grid)


def test_library_round_trip():
    lib = synthetic_library(n=30)
    buf = io.StringIO()
    write_library(lib, buf)
    text = buf.getvalue()
    back = read_library(io.StringIO(text))
    assert np.array_equal(back.thicknesses, lib.thicknesses)
    assert np.array_equal(back.densities, lib.densities)
    for key in lib.cells:
        assert np.array_equal(back.cells[key], lib.cells[key])
    buf2 = io.StringIO()
    write_library(back, buf2)
    # idempotent up to provenance defaults
    assert buf2.getvalue().splitlines()[4:] == text.splitlines()[4:]


def _library_text():
    buf = io.StringIO()
    write_library(synthetic_library(n=3), buf)
    return buf.getvalue()


@given(cut=st.integers(0, len(_library_text())))
@settings(max_examples=100, deadline=None)
def test_read_library_truncated(cut):
    text = _library_text()
    try:
        lib = read_library(io.StringIO(text[:cut]))
    except ValueError:
        return
    # the format holds no per-cell sample count: only a cut inside the
    # last cell's samples (or after them) can still parse, and it can
    # shorten only that cell
    assert cut > text.rindex("cell ") + len("cell 2 3 ")
    full = synthetic_library(n=3)
    assert sorted(lib.cells) == sorted(full.cells)
    last = max(full.cells)
    got = lib.cells[last]
    assert np.array_equal(got[:-1], full.cells[last][:len(got) - 1])
    assert all(np.array_equal(lib.cells[k], full.cells[k])
               for k in full.cells if k != last)


@pytest.mark.parametrize("line,replacement", [
    ("schema", "schema\n"),
    ("seed", "seed 3 n_samples 30\n"),
    ("seed", "seed 3 samples 30 n_bins 40\n"),
    ("thicknesses", "thicknesses\n"),
    ("densities", "densities 1.0 two\n"),
    ("cell", "cell 0\n"),
    ("cell", "cell 0 9 1.0\n"),
    ("cell 0 1", "cell 0 0 1.0\n"),
])
def test_read_library_malformed_lines(line, replacement):
    lines = _library_text().splitlines(keepends=True)
    at = next(i for i, ln in enumerate(lines) if ln.startswith(line + " "))
    lines[at] = replacement
    with pytest.raises(ValueError, match=f"library file line {at + 1}:"):
        read_library(io.StringIO("".join(lines)))


def test_library_rejects_empty_cell():
    with pytest.raises(ValueError):
        CoherenceLibrary(thicknesses=np.array([1.0]),
                         densities=np.array([1.0]),
                         cells={(0, 0): np.array([])})


@given(scale=st.floats(0.6, 2.0))
@settings(max_examples=20, deadline=None)
def test_argmax_scale_consistency(scale):
    # in a single-thickness library whose rates scale linearly with
    # density, scaling the data scales the density argmax accordingly
    thicknesses = np.array([4.0])
    densities = np.array([1.0, 2.0, 4.0, 8.0])
    cells = {(0, j): np.sort(lognormal_rates(np.log10(d), 0.15, 400,
                                             seed=11 + j))
             for j, d in enumerate(densities)}
    lib = CoherenceLibrary(thicknesses=thicknesses, densities=densities,
                           cells=cells)
    rates = lognormal_rates(np.log10(2.0), 0.15, 300, seed=7)
    surf = likelihood_surface(rates * scale, lib)
    _, a = surf.argmax
    assert surf.densities[a] == pytest.approx(2.0 * scale, rel=0.3)
