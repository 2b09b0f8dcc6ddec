"""Smoke tests of the study scripts at tiny sizes: each main() runs, and
what it writes reads back through the matching reader."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from spinbath.mle import read_library
from spinbath.yields import read_yield_report

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_yield_sweep(tmp_path, capsys):
    out = tmp_path / "yield.txt"
    script = load_script("run_yield_sweep")
    assert script.main(["--nconfigs", "20", "--thicknesses", "1", "10", "50",
                        "--seed", "3", "--out", str(out)]) == 0
    with open(out) as fh:
        report = read_yield_report(fh)
    assert np.array_equal(report.thicknesses, [1.0, 10.0, 50.0])
    assert report.yield_fraction.shape == (1, 3)
    assert report.metadata["n_configs"] == 20
    assert "thin/thick ratio" in capsys.readouterr().err


def test_run_mle_benchmark(tmp_path, capsys):
    out = tmp_path / "library.txt"
    script = load_script("run_mle_benchmark")
    assert script.main(["--nsamples", "10", "--trials", "100",
                        "--counts", "2", "4", "--seed", "2",
                        "--library-out", str(out)]) == 0
    with open(out) as fh:
        library = read_library(fh)
    assert np.array_equal(library.thicknesses, script.THICKNESSES)
    assert np.array_equal(library.densities, script.DENSITIES)
    assert library.provenance["n_samples"] == 10
    assert all(0 < len(cell) <= 10 for cell in library.cells.values())
    assert "power-law exponent" in capsys.readouterr().out


def test_run_echo_exponent(capsys):
    script = load_script("run_echo_exponent")
    # a 20-spin echo often saturates before it can be fitted; at seed 3
    # both densities give fittable configurations
    assert script.main(["--nconfigs", "2", "--nspins", "20",
                        "--seed", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("25 ppm: ") and lines[1].startswith("50 ppm: ")
    assert lines[2].startswith("median-T2 ratio (25 ppm / 50 ppm) = ")


@pytest.mark.parametrize("name,argv,message", [
    # at seed 2 one density has no fittable 20-spin echo
    ("run_echo_exponent", ["--nconfigs", "2", "--nspins", "20", "--seed", "2"],
     "no configuration produced a fittable echo"),
    ("run_mle_benchmark", ["--nsamples", "10", "--trials", "5"],
     "need >= 100 trials for stable means"),
    ("run_yield_sweep", ["--nconfigs", "2", "--thicknesses", "-1"],
     "slice thickness must be positive"),
    ("run_mle_benchmark", ["--nsamples", "10", "--counts", "0", "2"],
     "sample counts must be integers >= 1, got 0"),
    ("run_mle_benchmark", ["--nsamples", "10", "--counts", "2", "2"],
     "need at least two distinct sample counts for the power-law fit, "
     "got [2, 2]"),
])
def test_script_reports_error(capsys, name, argv, message):
    assert load_script(name).main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
