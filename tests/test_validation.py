import numpy as np
import pytest

from spinbath import validation
from spinbath.cce import CoherenceCurve


def test_stretched_exponent_counts_skipped_echoes(monkeypatch):
    calls = []

    def synthetic_echo(config, cce, sequence, **kwargs):
        # every third echo stays flat, which no fit accepts; the rest
        # decay with n = 1.25 and T2 at a third of the grid's end
        calls.append(None)
        t = cce.time_grid
        if len(calls) % 3 == 1:
            return CoherenceCurve(times=t, values=np.ones(len(t)))
        return CoherenceCurve(times=t,
                              values=np.exp(-(3.0 * t / t[-1]) ** 1.25))

    monkeypatch.setattr(validation, "cce_coherence", synthetic_echo)
    res = validation.check_stretched_exponent(n_configs=3, seed=1)
    assert len(calls) == 6
    assert res.details["skipped_25ppm"] == 1
    assert res.details["skipped_50ppm"] == 1
    assert res.details["n_25ppm"] == 1.25
    assert res.passed


@pytest.mark.parametrize("check, kwargs", [
    (validation.check_mle_benchmark, {"samples_per_cell": 30}),
    (validation.check_distribution_collapse, {"n_configs": 40}),
])
def test_check_details_print_as_plain_numbers(check, kwargs):
    # a numpy scalar inside a list of details prints as np.float64(...)
    assert "np." not in str(check(**kwargs))
