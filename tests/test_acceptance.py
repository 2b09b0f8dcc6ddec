"""End-to-end acceptance gate: the ten numbered validation checks at full
scale.  Each check returns its measured quantities; assertion messages
carry them so a failure is diagnosable from the pytest output alone."""

import pytest

from spinbath import validation

# minutes in total; `pytest -m "not slow"` leaves them out of a quick run
pytestmark = pytest.mark.slow


def run(check, **kwargs):
    res = check(**kwargs)
    assert res.passed, f"{res.name} failed: {res.details}"
    return res


def test_01_cce1_analytic_equivalence():
    res = run(validation.check_cce1_equivalence)
    assert res.details["max_dL"] < 1e-10


def test_02_exact_propagation_oracle():
    res = run(validation.check_exact_propagation)
    assert res.details["max_cce6_error"] < 1e-8
    assert res.details["err_cce4"] <= res.details["err_cce2"]


def test_03_stretched_exponent():
    res = run(validation.check_stretched_exponent)
    assert 1.1 <= res.details["n_25ppm"] <= 1.4
    assert 1.1 <= res.details["n_50ppm"] <= 1.4
    assert 1.7 <= res.details["t2_ratio"] <= 2.3


def test_04_p1_spectroscopy():
    res = run(validation.check_p1_spectroscopy)
    assert res.details["f_low_MHz"] == pytest.approx(934.8, abs=2.0)
    assert res.details["f_high_MHz"] == pytest.approx(953.1, abs=2.0)
    assert res.details["multiplicity"] == pytest.approx(3.0)


def test_05_nearest_neighbor_law():
    res = run(validation.check_nearest_neighbor_law)
    for ppm in (1, 3, 10):
        assert res.details[f"rel_mean_err_{ppm}ppm"] < 0.01
        assert res.details[f"ks3d_{ppm}ppm"] < 0.03
    assert res.details["ks2d_3ppm"] < 0.03


def test_06_dimensionality_ratio():
    res = run(validation.check_dimensionality_ratio)
    assert res.details["rel_err"] < 0.05


def test_07_yield_factor():
    res = run(validation.check_yield_factor)
    assert 2.5 <= res.details["thin_thick_ratio"] <= 3.5
    rnn = res.details["mean_rnn_nm"]
    assert abs(res.details["crossover_nm"] - rnn) / rnn < 0.30


def test_08_mle_benchmark():
    res = run(validation.check_mle_benchmark)
    assert res.details["rms_error_N8"] == pytest.approx(0.25, abs=0.10)
    assert res.details["exponent_p"] == pytest.approx(1.6, abs=0.4)


def test_09_distribution_collapse():
    res = run(validation.check_distribution_collapse)
    assert res.details["collapse_rms"] < 0.15


def test_10_determinism():
    run(validation.check_determinism)
