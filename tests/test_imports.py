"""What importing the package loads: numpy and the standard library only.

scipy's submodules and jsonschema are imported inside the functions that
call them, so a short CLI run does not pay for them before it needs them;
concurrent.futures is used nowhere, so it never loads.
An l2 ratio curve of a Gaussian from Ruben's series needs none of them,
nor does the small-noise trajectory of a Besov-1 prior with its limit.
"""

import subprocess
import sys
from pathlib import Path

import ommap

LAZY = ("scipy.integrate", "scipy.optimize", "scipy.special", "jsonschema", "concurrent.futures")

_PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); import ommap, ommap.cli; "
          "print(' '.join(sorted(sys.modules)))")


_SERIES_CURVE = (
    "import numpy as np; rng = np.random.default_rng(3); "
    "mu = ommap.GaussianMeasure(rng.normal(0.0, 0.5, 8), "
    "ommap.SpectralOperator(rng.uniform(0.5, 2.0, 8))); "
    "c = ommap.ball_ratio_curve(mu, mu.mean + 0.3, mu.mean, ommap.radius_schedule(0.2, 10), "
    "ommap.WeightedSeqSpace.unweighted(2.0, 8)); "
    "assert c.method == 'series', c.method; ")

_BESOV_SMALL_NOISE = (
    "import numpy as np; "
    "obs = ommap.LinearObservation(np.array([[1.0, 0.5, -0.25]]), "
    "ommap.SpectralOperator(np.ones(1)), np.array([0.7])); "
    "rep = ommap.small_noise_experiment(ommap.BesovMeasure(1.0, 1, 1.0, 3), obs, [1, 10, 100]); "
    "assert rep.constrained_point[0] == 0.7, rep.constrained_point; ")


def _loaded(code: str) -> set:
    src = str(Path(ommap.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", _PROBE.replace("print(", code + "print("), src],
                          capture_output=True, text=True, check=True, timeout=60)
    return set(done.stdout.split())


def test_import_leaves_scipy_submodules_and_jsonschema_unloaded():
    loaded = _loaded("")
    assert "ommap.cli" in loaded
    assert sorted(loaded.intersection(LAZY)) == []


def test_series_ratio_curve_loads_no_scipy():
    # the mc_ratio geometry: an aligned 8-d Gaussian, 10 radii from 0.2
    assert sorted(_loaded(_SERIES_CURVE).intersection(LAZY)) == []


def test_besov_small_noise_loads_no_scipy():
    # the trajectory and its limit are one homotopy rule read at 1/n and 0
    assert sorted(_loaded(_BESOV_SMALL_NOISE).intersection(LAZY)) == []
