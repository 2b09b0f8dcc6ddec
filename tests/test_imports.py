"""Which scipy modules a fresh interpreter loads.

`import spinbath` loads numpy only; scipy loads the first time one of the
four functions that use it runs (`cce._adjacency`, behind
`enumerate_clusters`; `fitting.fit_stretched_exponential`;
`mle.estimate_density`; `validation.check_nearest_neighbor_law`).  The
test session itself imports scipy, so each case runs in a new process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# prints the scipy modules loaded so far, then the value of `result`
REPORT = ("import json, sys; print(json.dumps([sorted(m for m in sys.modules"
          " if m.split('.')[0] == 'scipy'), result]))")


def fresh(code, tmp_path):
    """Run `code` (which sets `result`) in a new interpreter that imports
    spinbath from the checkout's src/; returns (scipy modules, result)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code + "\n" + REPORT],
                          capture_output=True, text=True, env=env,
                          cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded, result = json.loads(proc.stdout.splitlines()[-1])
    return set(loaded), result


def test_import_loads_no_scipy(tmp_path):
    loaded, _ = fresh("import spinbath, spinbath.cli\nresult = None",
                      tmp_path)
    assert loaded == set()


@pytest.mark.parametrize("argv", [
    ["bath", "--density", "3", "--thickness", "10", "--seed", "1"],
    ["sweep", "--densities", "3,9", "--thicknesses", "5", "--nconfigs", "4",
     "--seed", "2"],
    ["library", "--densities", "2,4", "--thicknesses", "4", "--nsamples",
     "5", "--seed", "4"],
    ["yield", "--densities", "3", "--thicknesses", "2,50", "--nconfigs",
     "5", "--seed", "1"],
])
def test_cli_commands_without_scipy(tmp_path, argv):
    loaded, code = fresh("import contextlib, io\n"
                         "from spinbath.cli import main\n"
                         "with contextlib.redirect_stdout(io.StringIO()):\n"
                         f"    result = main({argv!r})", tmp_path)
    assert code == 0
    assert loaded == set()


def test_coherence_loads_the_kd_tree_only(tmp_path):
    loaded, code = fresh(
        "import contextlib, io\n"
        "from spinbath.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    result = main(['coherence', '--density', '20', '--thickness',"
        " '10', '--target-spins', '6', '--npoints', '5'])", tmp_path)
    assert code == 0
    assert "scipy.spatial" in loaded
    assert not any(m.startswith(("scipy.stats", "scipy.optimize"))
                   for m in loaded)


# each first scipy user, run alone in a new process, gives the values it
# gives in this process, where scipy is loaded
FIRST_USERS = {
    "fit_stretched_exponential": ("scipy.optimize", """
import numpy as np
from spinbath.cce import CoherenceCurve
from spinbath.fitting import fit_stretched_exponential
t = np.linspace(0.0, 0.05, 41)
fit = fit_stretched_exponential(
    CoherenceCurve(times=t, values=np.exp(-(t / 0.012) ** 1.7)))
result = [fit.t2, fit.n_exponent]
"""),
    "estimate_density": ("scipy.optimize", """
import numpy as np
from spinbath.mle import LikelihoodSurface, estimate_density
x = np.linspace(1.0, 9.0, 33)
line = -0.5 * ((x - 4.2) / 1.3) ** 2
est = estimate_density(LikelihoodSurface(
    thicknesses=np.array([4.0]), densities=x, log_likelihood=line[None, :],
    argmax=(0, int(np.argmax(line)))), 4.0)
result = [est.rho_mle, est.rho_sigma]
"""),
    "enumerate_clusters": ("scipy.spatial", """
from spinbath.bath import BathGeometry, default_lateral_radius, generate_bath
from spinbath.cce import enumerate_clusters
geom = BathGeometry(20.0, 10.0, default_lateral_radius(20.0, 10.0, 12))
result = [list(c) for c in enumerate_clusters(generate_bath(geom, 3), 3, 6.0)]
"""),
}


@pytest.mark.parametrize("name", sorted(FIRST_USERS))
def test_first_scipy_user_in_a_fresh_process(tmp_path, name):
    module, code = FIRST_USERS[name]
    loaded, result = fresh(code, tmp_path)
    assert module in loaded
    assert "scipy.stats" not in loaded
    here = {}
    exec(code, here)
    assert result == here["result"]
