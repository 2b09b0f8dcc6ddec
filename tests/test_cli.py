import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinbath
from spinbath.cce import read_curve
from spinbath.cli import main, parse_axis, read_measurements


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- helpers ------------------------------------------------------------

def test_parse_axis_forms():
    assert np.array_equal(parse_axis("1,5,9"), [1.0, 5.0, 9.0])
    lin = parse_axis("1:9:lin5")
    assert np.allclose(lin, np.linspace(1, 9, 5))
    log = parse_axis("1:100:log3")
    assert np.allclose(log, [1.0, 10.0, 100.0])
    assert len(parse_axis("1:100")) == 10
    with pytest.raises(ValueError):
        parse_axis("1:9:cubic")


def test_read_measurements(tmp_path):
    f = tmp_path / "data.txt"
    f.write_text("# measured T2* (us)\n1.5\n2.0  # second device\n\n0.7\n")
    assert np.array_equal(read_measurements(str(f)), [1.5, 2.0, 0.7])
    bad = tmp_path / "bad.txt"
    bad.write_text("1.0\n-2.0\n")
    with pytest.raises(ValueError):
        read_measurements(str(bad))
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing\n")
    with pytest.raises(ValueError):
        read_measurements(str(empty))


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
def test_read_measurements_rejects_non_finite(tmp_path, value):
    f = tmp_path / "data.txt"
    f.write_text(f"3.0\n# comment\n{value}\n")
    with pytest.raises(ValueError, match="line 3"):
        read_measurements(str(f))


@given(values=st.lists(st.floats(allow_nan=True, allow_infinity=True),
                       min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_read_measurements_fuzz(tmp_path_factory, values):
    f = tmp_path_factory.mktemp("m") / "data.txt"
    f.write_text("".join(f"{v!r}\n" for v in values))
    if all(np.isfinite(v) and v > 0 for v in values):
        assert np.array_equal(read_measurements(str(f)), values)
    else:
        with pytest.raises(ValueError):
            read_measurements(str(f))


# --- subcommands --------------------------------------------------------

def test_bath_deterministic_output(capsys):
    args = ("bath", "--density", "5", "--thickness", "10", "--seed", "3")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.startswith("# spinbath bath-config v1")


def test_bath_rejects_bad_density(capsys):
    code, _, err = run_cli(capsys, "bath", "--density", "0",
                           "--thickness", "10")
    assert code == 1
    assert "error:" in err


def test_coherence_from_bath_file(tmp_path, capsys):
    bath_file = tmp_path / "bath.txt"
    code, out, _ = run_cli(capsys, "bath", "--density", "20",
                           "--thickness", "10", "--seed", "5",
                           "--out", str(bath_file))
    assert code == 0
    code, out, _ = run_cli(capsys, "coherence", "--bath", str(bath_file),
                           "--kind", "hahn", "--order", "2",
                           "--tmax", "0.02", "--npoints", "20")
    assert code == 0
    lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
    assert len(lines) == 21
    t0 = [float(v) for v in lines[0].split()]
    assert t0[0] == 0.0 and abs(complex(t0[1], t0[2])) == pytest.approx(1.0)


def _coherence_argv(meta):
    """The coherence command line that a curve's metadata records."""
    argv = ["coherence",
            "--kind", {"Ramsey": "ramsey", "HahnEcho": "hahn"}[meta["sequence"]],
            "--order", meta["order"], "--nstates", meta["n_bath_states"],
            "--mode", meta["mode"], "--bath-state-mode", meta["bath_state_mode"],
            "--dipole-radius", meta["dipole_radius_nm"],
            "--tmax", meta["tmax_ms"], "--npoints", meta["npoints"],
            "--isotope", meta["isotope"], "--field", meta["field_G"],
            "--seed", meta["seed"]]
    if meta["log_grid"] == "True":
        argv.append("--log-grid")
    if "bath" in meta:
        return argv + ["--bath", meta["bath"]]
    argv += ["--density", meta["density_ppm"],
             "--thickness", meta["thickness_nm"],
             "--radius", meta["lateral_radius_nm"],
             "--target-spins", meta["target_spins"],
             "--placement", meta["placement_mode"]]
    if "ensemble" in meta:
        argv += ["--nconfigs", meta["ensemble"]]
    return argv


@pytest.mark.parametrize("options", [
    ["--density", "15", "--thickness", "8", "--target-spins", "9",
     "--placement", "continuum-poisson", "--kind", "ramsey", "--order", "3",
     "--nstates", "2", "--dipole-radius", "6.5", "--tmax", "0.03",
     "--npoints", "12", "--log-grid", "--isotope", "n14", "--field", "120.5",
     "--seed", "11"],
    ["--density", "20", "--thickness", "10", "--radius", "7.25",
     "--nconfigs", "3", "--bath-state-mode", "exact", "--mode", "full",
     "--order", "2", "--npoints", "8", "--seed", "4"],
    ["--bath", "BATH", "--kind", "hahn", "--order", "2", "--npoints", "10",
     "--seed", "3"],
])
def test_coherence_curve_regenerates_from_its_metadata(tmp_path, capsys,
                                                       options):
    bath_file = tmp_path / "a bath.txt"
    code, _, _ = run_cli(capsys, "bath", "--density", "20", "--thickness",
                         "10", "--target-spins", "8", "--seed", "5",
                         "--out", str(bath_file))
    assert code == 0
    options = [str(bath_file) if v == "BATH" else v for v in options]
    code, out, _ = run_cli(capsys, "coherence", *options)
    assert code == 0
    meta = read_curve(io.StringIO(out)).metadata
    if "bath" in meta:
        assert meta["bath_sha256"] == \
            hashlib.sha256(bath_file.read_bytes()).hexdigest()
    code, again, _ = run_cli(capsys, *_coherence_argv(meta))
    assert code == 0
    assert again == out


def test_coherence_truncated_bath_file(tmp_path, capsys):
    bath_file = tmp_path / "bath.txt"
    code, _, _ = run_cli(capsys, "bath", "--density", "20", "--thickness",
                         "10", "--seed", "5", "--out", str(bath_file))
    assert code == 0
    lines = bath_file.read_text().splitlines(keepends=True)
    assert len(lines) > 7
    bath_file.write_text("".join(lines[:7]))
    code, out, err = run_cli(capsys, "coherence", "--bath", str(bath_file),
                             "--order", "2", "--npoints", "5")
    assert code == 1
    assert out == ""
    assert err.startswith("error: bath file line 8")
    assert len(err.splitlines()) == 1


def test_coherence_diverging_expansion(capsys):
    code, out, err = run_cli(capsys, "coherence", "--density", "30",
                             "--thickness", "8", "--target-spins", "16",
                             "--seed", "10", "--order", "3", "--kind",
                             "ramsey", "--bath-state-mode", "exact",
                             "--npoints", "30")
    assert code == 1
    assert out == ""
    assert err.startswith("error: CCE diverged: 3 of 31")
    assert len(err.splitlines()) == 1


def test_coherence_divergence_warns_on_stderr():
    # a thermal full-mode pair expansion that stays finite but reaches
    # |L| ~ 5e19; run as a process, so the warning takes its normal route
    src = str(Path(spinbath.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "spinbath.cli", "coherence", "--density", "20",
         "--thickness", "10", "--target-spins", "6", "--seed", "4",
         "--mode", "full", "--order", "2", "--kind", "ramsey",
         "--bath-state-mode", "exact", "--npoints", "30"],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0
    assert "RuntimeWarning: CCE diverging: max |L| = 5.26e+19 exceeds 1.01" \
        in proc.stderr
    assert "# meta warning CCE diverging: max |L| = 5.26e+19" in proc.stdout


def test_ensemble_coherence_file_carries_warning(capsys):
    # the bath of the test above, as a 3-configuration ensemble
    with pytest.warns(RuntimeWarning, match="CCE diverging"):
        code, out, _ = run_cli(
            capsys, "coherence", "--density", "20", "--thickness", "10",
            "--target-spins", "6", "--seed", "4", "--mode", "full",
            "--order", "2", "--kind", "ramsey", "--bath-state-mode", "exact",
            "--npoints", "30", "--nconfigs", "3")
    assert code == 0
    assert [ln for ln in out.splitlines() if ln.startswith("# meta warning")] \
        == ["# meta warning 3 of 3 configurations warned; first: CCE "
            "diverging: max |L| = 1.39e+07 exceeds 1.01 (order 2, exact "
            "bath states)"]


def test_coherence_oversized_full_clusters(monkeypatch, capsys):
    import spinbath.cce as cce_module

    def never(*args, **kwargs):
        raise AssertionError("the size guard must come first")

    monkeypatch.setattr(cce_module, "enumerate_clusters", never)
    # seed 0 draws 12 spins here
    code, out, err = run_cli(capsys, "coherence", "--mode", "full",
                             "--order", "12", "--target-spins", "12",
                             "--density", "20", "--thickness", "10",
                             "--seed", "0", "--bath-state-mode", "exact")
    assert code == 1
    assert out == ""
    assert err == (f"error: full-mode clusters of 12 spins exceed the limit "
                   f"of {cce_module.MAX_FULL_CLUSTER_SPINS} spins\n")


def test_mle_truncated_library(tmp_path, capsys):
    lib_file = tmp_path / "library.txt"
    code, _, _ = run_cli(capsys, "library", "--densities", "2,4",
                         "--thicknesses", "4", "--nsamples", "20",
                         "--seed", "4", "--out", str(lib_file))
    assert code == 0
    text = lib_file.read_text()
    data_file = tmp_path / "data.txt"
    data_file.write_text("3.0\n")
    for cut, line in ((22, 2), (text.index("\ncell 0 1") + 1, 7)):
        lib_file.write_text(text[:cut])
        code, out, err = run_cli(capsys, "mle", "--library", str(lib_file),
                                 "--data", str(data_file), "--thickness", "4")
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: library file line {line}")
        assert len(err.splitlines()) == 1


def test_mle_rejects_non_finite_measurement(tmp_path, capsys):
    lib_file = tmp_path / "library.txt"
    code, _, _ = run_cli(capsys, "library", "--densities", "2,4",
                         "--thicknesses", "4", "--nsamples", "20",
                         "--seed", "4", "--out", str(lib_file))
    assert code == 0
    data_file = tmp_path / "data.txt"
    data_file.write_text("3.0\nnan\n")
    code, _, err = run_cli(capsys, "mle", "--library", str(lib_file),
                           "--data", str(data_file), "--thickness", "4")
    assert code == 1
    assert err.startswith("error:") and "line 2" in err
    assert len(err.splitlines()) == 1


def test_coherence_needs_geometry_or_bath(capsys):
    code, _, err = run_cli(capsys, "coherence", "--kind", "ramsey")
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize("options", [
    ["--density", "50"],
    ["--thickness", "8", "--radius", "6"],
    ["--target-spins", "36"],
    ["--placement", "lattice-site"],
    ["--nconfigs", "3", "--density", "50", "--placement", "continuum-poisson"],
])
def test_coherence_bath_file_rejects_geometry_options(tmp_path, capsys,
                                                      options):
    bath_file = tmp_path / "bath.txt"
    code, _, _ = run_cli(capsys, "bath", "--density", "20", "--thickness",
                         "10", "--target-spins", "8", "--seed", "5",
                         "--out", str(bath_file))
    assert code == 0
    code, out, err = run_cli(capsys, "coherence", "--bath", str(bath_file),
                             "--npoints", "5", *options)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    for opt in options:
        if opt.startswith("--"):
            assert opt in err


def test_sweep_stats_footer(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--densities", "3,9",
                           "--thicknesses", "5", "--nconfigs", "10",
                           "--seed", "2")
    assert code == 0
    assert out.startswith("# spinbath sweep v1")
    stat_lines = [ln for ln in out.splitlines() if ln.startswith("# stat ")]
    assert len(stat_lines) == 2


def test_sweep_regenerates_from_its_file(tmp_path, capsys):
    sweep_file = tmp_path / "sweep.txt"
    code, _, _ = run_cli(capsys, "sweep", "--densities", "1:10:log3",
                         "--thicknesses", "2,7.5", "--nconfigs", "6",
                         "--seed", "4", "--target-spins", "20",
                         "--placement", "continuum-poisson",
                         "--out", str(sweep_file))
    assert code == 0
    from spinbath.fitting import read_sweep
    with open(sweep_file) as fh:
        grid = read_sweep(fh)
    meta = grid.metadata
    assert meta["observable"] == "t2star"
    code, again, _ = run_cli(
        capsys, "sweep",
        "--densities", ",".join(repr(float(v)) for v in grid.densities),
        "--thicknesses", ",".join(repr(float(v)) for v in grid.thicknesses),
        "--nconfigs", str(meta["n_configs"]), "--seed", str(meta["seed"]),
        "--target-spins", str(meta["target_spins"]),
        "--placement", meta["placement_mode"])
    assert code == 0
    assert again == sweep_file.read_text()


def test_sweep_writes_nothing_when_its_stats_fail(tmp_path, capsys):
    out_file = tmp_path / "sweep.txt"
    code, out, err = run_cli(capsys, "sweep", "--densities", "20",
                             "--thicknesses", "10", "--nconfigs", "1",
                             "--out", str(out_file))
    assert code == 1
    assert out == ""
    assert err == "error: need at least 2 finite samples\n"
    assert not out_file.exists()


def test_sweep_refuses_the_observable_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--densities", "3", "--thicknesses", "5",
              "--observable", "t2"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --observable t2" in captured.err


@pytest.mark.parametrize("argv", [
    ["sweep", "--densities", "3", "--thicknesses", "5", "--nconfigs", "0"],
    ["library", "--densities", "3", "--thicknesses", "5", "--nsamples", "0"],
    ["yield", "--densities", "3", "--thicknesses", "2,50", "--nconfigs", "0"],
    ["yield", "--densities", "3", "--thicknesses", "2,50", "--nconfigs", "0",
     "--ratio"],
    ["coherence", "--density", "20", "--thickness", "10", "--nconfigs", "0"],
    ["coherence", "--density", "20", "--thickness", "10", "--nconfigs",
     "-2"],
])
def test_monte_carlo_commands_refuse_no_configurations(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["sweep", "--densities", "1:10:log0", "--thicknesses", "5"],
    ["sweep", "--densities", "3", "--thicknesses", "1:10:lin0"],
    ["library", "--densities", "1:10:log0", "--thicknesses", "5"],
    ["yield", "--densities", "3", "--thicknesses", "1:10:log0"],
])
def test_axis_of_no_points_is_refused(tmp_path, capsys, argv):
    out_file = tmp_path / "out.txt"
    code, out, err = run_cli(capsys, *argv, "--out", str(out_file))
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "fewer than one point" in err
    assert not out_file.exists()


def test_coherence_refuses_an_empty_time_grid(capsys):
    # --npoints -1 makes a linear grid of no points
    code, out, err = run_cli(capsys, "coherence", "--density", "20",
                             "--thickness", "5", "--target-spins", "5",
                             "--npoints", "-1")
    assert code == 1
    assert out == ""
    assert err == "error: --npoints must be at least 1, got -1\n"


@pytest.mark.parametrize("npoints,grid", [("0", []), ("-7", []),
                                          ("0", ["--log-grid"]),
                                          ("-7", ["--log-grid"])])
def test_coherence_refuses_fewer_than_one_point(capsys, npoints, grid):
    code, out, err = run_cli(capsys, "coherence", "--density", "20",
                             "--thickness", "5", "--target-spins", "5",
                             "--npoints", npoints, *grid)
    assert code == 1
    assert out == ""
    assert err == f"error: --npoints must be at least 1, got {npoints}\n"


@pytest.mark.parametrize("radius",
                         ["-1", "0", "nan", "inf", "1e200", "1e300"])
def test_coherence_refuses_a_bad_dipole_radius(capsys, radius):
    code, out, err = run_cli(capsys, "coherence", "--density", "20",
                             "--thickness", "10", "--npoints", "5",
                             "--dipole-radius", radius)
    assert code == 1
    assert out == ""
    assert err.startswith("error: dipole_radius must be positive and finite")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("argv,message", [
    # 36 spins at 1e-300 ppm need a slab of about 1e300 lattice sites
    (["bath", "--density", "1e-300", "--thickness", "10"],
     "lattice sites exceed the cap of 2^62"),
    (["bath", "--density", "3", "--thickness", "10", "--radius", "1e300"],
     "bath too large: inf expected spins exceed the cap of 2000000"),
    (["bath", "--density", "nan", "--thickness", "10"],
     "density must be positive and finite, got nan"),
    (["yield", "--densities", "3", "--thicknesses", "1,nan",
      "--nconfigs", "2"],
     "slice thickness must be finite, got nan"),
    (["library", "--densities", "1,1e300", "--thicknesses", "2",
      "--nsamples", "2"],
     "density 1e+300 ppm exceeds 1e+06 ppm"),
    (["bath", "--density", "1e-300", "--thickness", "1e-300"],
     "density 1e-300 ppm times thickness 1e-300 nm underflows to zero"),
    # thickness / lattice constant overflows a float
    (["bath", "--density", "3", "--thickness", "1e308", "--radius", "1e-160"],
     "a slab 1e+308 nm thick and 1e-160 nm in radius holds more lattice "
     "sites than the cap of 2^62"),
    (["bath", "--density", "3", "--thickness", "10", "--target-spins", "-5"],
     "target spin count must be positive, got -5"),
    (["bath", "--density", "3", "--thickness", "10", "--target-spins", "0"],
     "target spin count must be positive, got 0"),
    (["coherence", "--density", "3", "--thickness", "10", "--npoints", "5",
      "--target-spins", "-5"],
     "target spin count must be positive, got -5"),
    (["sweep", "--densities", "3", "--thicknesses", "10", "--nconfigs", "2",
      "--target-spins", "0"],
     "target spin count must be positive, got 0"),
])
def test_bath_inputs_that_cannot_be_drawn_end_in_one_error_line(
        capsys, recwarn, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert not recwarn.list  # a warning would print lines of its own
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and message in err
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_mle_end_to_end(tmp_path, capsys):
    lib_file = tmp_path / "library.txt"
    code, _, _ = run_cli(capsys, "library", "--densities", "2,4,8,16",
                         "--thicknesses", "4", "--nsamples", "150",
                         "--seed", "4", "--out", str(lib_file))
    assert code == 0
    # draw "measurements" from the d=8 cell of a same-seed sweep
    from spinbath.mle import read_library
    with open(lib_file) as fh:
        lib = read_library(fh)
    rng = np.random.default_rng(0)
    rates = rng.choice(lib.cells[(0, 2)], size=25, replace=False)
    data_file = tmp_path / "data.txt"
    data_file.write_text("# T2* in us\n" + "\n".join(
        repr(float(1e3 / r)) for r in rates) + "\n")
    out_file = tmp_path / "report.txt"
    code, _, _ = run_cli(capsys, "mle", "--library", str(lib_file),
                         "--data", str(data_file), "--thickness", "4",
                         "--out", str(out_file))
    assert code == 0
    text = out_file.read_text()
    assert text.startswith("# spinbath mle-report v1")
    rho = float([ln for ln in text.splitlines()
                 if ln.startswith("rho_mle_ppm")][0].split()[1])
    assert rho == pytest.approx(8.0, rel=0.4)


def test_yield_report_output(capsys):
    code, out, _ = run_cli(capsys, "yield", "--densities", "3",
                           "--thicknesses", "2,50", "--nconfigs", "30",
                           "--seed", "1")
    assert code == 0
    assert out.startswith("# spinbath yield-report v1")
    rows = [ln for ln in out.splitlines()
            if ln and not ln.startswith(("#", "meta", "columns"))]
    assert len(rows) == 2


def test_validate_only_quick_checks(capsys):
    code, out, _ = run_cli(capsys, "validate", "--only",
                           "p1-spectroscopy,determinism")
    assert code == 0
    assert "[PASS] p1-spectroscopy" in out
    assert "[PASS] determinism" in out


def test_validate_rejects_unknown_check(capsys):
    code, _, err = run_cli(capsys, "validate", "--only", "perpetual-motion")
    assert code == 2
    assert "unknown checks" in err
