"""The four benchmark workloads and their correctness checks.

Each workload runs one fixed-size pass of a spinbath study through the
package's public API and returns an Outcome: the serialized outputs (equal
text means byte-identical outputs), the number of units attempted and
failed, and the values compared with the recorded reference.  Inputs come
only from the seed, so one seed always gives one outcome.

Why these four: each puts a different layer on the hot path and leaves
the others idle, so a change to one layer shows on one workload and is
predicted to leave the others unchanged.

- echo-ensemble: Hahn-echo secular CCE plus plateau fits; the CCE kernel
  and telescoping (cce.cce_coherence self time) dominate.
- oracle-dense: full-mode CCE at orders 2/4/6 against dense propagation;
  Hamiltonian assembly and per-cluster propagation dominate.
- mle-library: many small Poisson baths, strong/weak partitions and the
  likelihood benchmark; bath generation and mle dominate.
- yield-slices: large lattice master slabs sliced ten times each; bath
  generation, slicing and the yields loops dominate.
"""

from __future__ import annotations

import hashlib
import io
import math
from dataclasses import dataclass, field

import numpy as np

# Call through the modules, never through names imported from them, so
# that the tracer's patched module attributes see every call.
from spinbath import bath, cce, constants, fitting, mle, validation, yields

ECHO_DENSITIES_PPM = (25.0, 50.0)
ECHO_SLAB_SPINS = 150
ORACLE_ERROR_BOUND = 1e-8
ORACLE_SPINS = 6
LIBRARY_THICKNESSES = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)
LIBRARY_DENSITIES = (1.0, 2.0, 3.0, 5.0, 8.0, 12.0)
MLE_THICKNESS_NM = 4.0
MLE_DATA_DENSITY_PPM = 3.0
YIELD_DENSITY_PPM = 3.0
YIELD_THICKNESSES = (0.5, 1.0, 2.0, 3.0, 4.5, 7.0, 10.0, 15.0, 25.0, 50.0)
VISIBILITY_THIN_THICK_NM = (1.0, 50.0)

# Reference tolerances.  Library and yield-report files are compared byte
# for byte (the seed contract); echo curves within |dL| <= 1e-12; values
# derived through fits, argmaxes and means within a relative 1e-9.
CURVE_ATOL = 1e-12
VALUE_RTOL = 1e-9
ORACLE_ATOL = 1e-12


@dataclass
class Outcome:
    text: str
    units: int
    failed: int = 0
    problems: list = field(default_factory=list)
    values: dict = field(default_factory=dict)

    def fail(self, message, units=1):
        self.failed += units
        self.problems.append(message)


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _finite(*values):
    return all(math.isfinite(float(v)) for v in values)


def _lines(rows):
    return "".join(" ".join(repr(v) for v in row) + "\n" for row in rows)


def echo_ensemble(seed, configs, spins):
    """Hahn-echo CCE-2 and plateau fits at 25 and 50 ppm, built like
    validation.ensemble_echo_fit (scripts/run_echo_exponent.py) from its
    public pieces; one unit is one bath configuration.

    ensemble_echo_fit sizes its bath to hold `spins` on average, so its
    cost moves with the seed by about a tenth.  Here the slab holds
    ECHO_SLAB_SPINS on average and the `spins` nearest are kept, so every
    pass has exactly `spins` spins and spins*(spins+1)/2 clusters.
    """
    p1 = constants.DEFAULTS.p1("n14")
    rows, skipped, curves = [], [], []
    out = Outcome(text="", units=len(ECHO_DENSITIES_PPM) * configs)
    for ppm in ECHO_DENSITIES_PPM:
        rho = constants.ppm_to_number_density(ppm)
        radius = (ECHO_SLAB_SPINS / (2.0 * np.pi * rho)) ** (1.0 / 3.0)
        geometry = bath.BathGeometry(ppm, 2.0 * radius, radius,
                                     "lattice-site")
        tmax = 3.0 * validation.ECHO_T2_SCALE_MS * (50.0 / ppm)
        grid = np.concatenate([[0.0], np.geomspace(tmax * 3e-4, tmax, 60)])
        settings = cce.CCEConfig(order=2, dipole_radius=1e9,
                                 n_bath_states=4, time_grid=grid,
                                 mode="secular", bath_state_mode="sample",
                                 frozen_nuclear=False)
        for i in range(configs):
            ss = cce.spawn_seed(seed, 0, i)
            config = bath.keep_nearest(bath.generate_bath(
                geometry, ss, nuclear_projections=p1.nuclear_projections),
                spins)
            curve = cce.cce_coherence(config, settings, cce.HAHN_ECHO,
                                      seed=ss.spawn(1)[0], p1=p1)
            curves.append(curve.values)
            if not np.all(np.isfinite(curve.values)):
                out.fail(f"{ppm:g} ppm config {i}: non-finite echo")
                continue
            try:
                f = fitting.fit_stretched_exponential(curve, baseline=True)
            except ValueError as e:
                # an echo that never decays below 1/e on the grid has no T2;
                # ensemble_echo_fit skips it the same way
                skipped.append([ppm, i, str(e)])
                continue
            row = (ppm, len(config), f.t2, f.n_exponent, f.baseline,
                   f.residual_norm)
            if not f.converged or not _finite(*row):
                out.fail(f"{ppm:g} ppm config {i}: bad fit {row}")
            rows.append(row)
    points = [[float(v.real), float(v.imag)] for c in curves for v in c]
    out.text = _lines(rows) + _lines(skipped) + _lines(points)
    out.values = {"exact": {"skipped": skipped},
                  "rtol": [v for r in rows for v in r], "curves": points}
    return out


def oracle_seed(seed):
    """The first check seed from 16*seed on whose bath holds all
    ORACLE_SPINS spins.

    check_exact_propagation keeps the 6 nearest of a slab holding 12 on
    average (5 ppm, 30 nm, 3 nm exclusion, as below); about one seed in 50
    leaves fewer, and a 5-spin bath costs a fifth as much.
    """
    geometry = bath.BathGeometry(
        5.0, 30.0, bath.default_lateral_radius(5.0, 30.0, 12),
        "continuum-poisson")
    for candidate in range(16 * seed, 16 * seed + 16):
        config = bath.generate_bath(geometry, candidate, exclusion_radius=3.0)
        if len(config) >= ORACLE_SPINS:
            return candidate
    return 16 * seed


def oracle_dense(seed, baths, states):
    """validation.check_exact_propagation: full-mode CCE at orders 2, 4 and
    6 on 6-spin baths against dense propagation; one unit is one bath.

    Every pass must keep the CCE-6 error below ORACLE_ERROR_BOUND.  The
    check's other half, order 4 beating order 2, is a property of a set of
    baths: on one bath it fails for about one seed in ten on correct code.
    So the check's verdict is compared with the reference instead (it
    passes at the reference seed), together with both errors.
    """
    out = Outcome(text="", units=baths)
    check = validation.check_exact_propagation(n_baths=baths,
                                               seed=oracle_seed(seed),
                                               n_states=states)
    d = check.details
    row = (d["max_cce6_error"], d["err_cce2"], d["err_cce4"])
    if not _finite(*row):
        out.fail(f"non-finite oracle errors {row}", baths)
    elif row[0] >= ORACLE_ERROR_BOUND:
        out.fail(f"CCE-6 vs dense error {row[0]!r} >= {ORACLE_ERROR_BOUND}",
                 baths)
    out.text = _lines([row, [check.passed]])
    out.values = {"exact": {"passed": check.passed}, "atol": list(row)}
    return out


def mle_library(seed, samples, counts, trials, measurements):
    """build_library on the 6x6 Poisson grid, benchmark_error, then one
    likelihood_surface + estimate_density (spinbath library/mle shape);
    one unit is one pass."""
    out = Outcome(text="", units=1)
    lib = mle.build_library(LIBRARY_THICKNESSES, LIBRARY_DENSITIES, samples,
                            seed)
    buf = io.StringIO()
    mle.write_library(lib, buf)
    bm = mle.benchmark_error(lib, counts, trials, MLE_THICKNESS_NM, seed=seed)
    i = LIBRARY_THICKNESSES.index(MLE_THICKNESS_NM)
    j = LIBRARY_DENSITIES.index(MLE_DATA_DENSITY_PPM)
    rng = np.random.default_rng(seed)
    rates = rng.choice(lib.cells[(i, j)], size=measurements, replace=True)
    surface = mle.likelihood_surface(rates, lib)
    est = mle.estimate_density(surface, MLE_THICKNESS_NM)
    derived = [float(v) for v in bm.mean_squared_error] + [
        bm.exponent, bm.amplitude, est.rho_mle, est.rho_sigma]
    if not _finite(*derived):
        out.fail(f"non-finite estimator output {derived}")
    elif not LIBRARY_DENSITIES[0] <= est.rho_mle <= LIBRARY_DENSITIES[-1]:
        out.fail(f"estimate {est.rho_mle!r} ppm outside the grid")
    out.text = buf.getvalue() + _lines(
        [derived, [int(v) for v in surface.argmax]])
    out.values = {"exact": {"library_sha256": _sha256(buf.getvalue()),
                            "argmax": [int(v) for v in surface.argmax]},
                  "rtol": derived}
    return out


def yield_slices(seed, configs, visibility_configs):
    """yield_sweep at 3 ppm over the ten validation thicknesses plus
    visibility_ratio_2d3d (spinbath yield --ratio shape); one unit is one
    pass."""
    out = Outcome(text="", units=1)
    report = yields.yield_sweep([YIELD_DENSITY_PPM], YIELD_THICKNESSES,
                                configs, seed)
    buf = io.StringIO()
    yields.write_yield_report(report, buf)
    thin, thick = VISIBILITY_THIN_THICK_NM
    ratio, details = yields.visibility_ratio_2d3d(
        YIELD_DENSITY_PPM, thin, thick, visibility_configs, seed)
    derived = [ratio, details["mean_nu_2d"], details["mean_nu_3d"]]
    if not _finite(*derived) or ratio <= 0:
        out.fail(f"bad visibility ratio {derived}")
    out.text = buf.getvalue() + _lines([derived])
    out.values = {"exact": {"report_sha256": _sha256(buf.getvalue())},
                  "rtol": derived}
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    run: object
    size: dict  # benchmark and reference size
    tiny: dict  # smoke-test size


WORKLOADS = {w.name: w for w in (
    Workload("echo-ensemble", echo_ensemble,
             {"configs": 1, "spins": 100}, {"configs": 1, "spins": 40}),
    Workload("oracle-dense", oracle_dense,
             {"baths": 1, "states": 2}, {"baths": 1, "states": 1}),
    Workload("mle-library", mle_library,
             {"samples": 100, "counts": (2, 8), "trials": 100,
              "measurements": 16},
             {"samples": 10, "counts": (2, 4), "trials": 100,
              "measurements": 4}),
    Workload("yield-slices", yield_slices,
             {"configs": 300, "visibility_configs": 300},
             {"configs": 10, "visibility_configs": 10}),
)}


def compare(outcome, reference):
    """Mismatches of a reference-seed outcome against the recorded
    reference, as a list of messages (empty when it matches).

    values["exact"] must be equal, values["rtol"] equal within VALUE_RTOL,
    values["atol"] within ORACLE_ATOL, and values["curves"] ((re, im)
    points) within |dL| <= CURVE_ATOL."""
    bad = []
    expect, got = reference["values"], outcome.values
    if set(got) != set(expect):
        return [f"output kinds {sorted(got)} != reference {sorted(expect)}"]
    if got.get("exact") != expect.get("exact"):
        bad.append(f"{got['exact']} != reference {expect['exact']}")
    for kind, ok in (
            ("rtol", lambda a, b: abs(a - b) <= VALUE_RTOL * max(abs(a),
                                                                 abs(b))),
            ("atol", lambda a, b: abs(a - b) <= ORACLE_ATOL),
            ("curves", lambda a, b: abs(complex(*a) - complex(*b))
             <= CURVE_ATOL)):
        have, want = got.get(kind, []), expect.get(kind, [])
        if len(have) != len(want):
            bad.append(f"{kind}: {len(have)} values, reference {len(want)}")
        else:
            wrong = sum(not ok(a, b) for a, b in zip(have, want))
            if wrong:
                bad.append(f"{kind}: {wrong} of {len(want)} values differ "
                           f"from the reference")
    return bad
