"""Reference timings of the ROADMAP baseline rows, for the record only.

Run once from the repository root:

    python3 perfbench/reference.py

It times, one run each and without any gate:

* a Monte Carlo ratio curve, rotated 3-d Gaussian, 10 radii, 1e6 draws;
* the same for a Besov-1 measure of dimension 20 (l2 balls);
* a ``gamma_check`` run of a 6-d Gaussian family, 399 members,
  8 liminf points, through ``ommap.cli.main``;
* acceptance criterion 10 through pytest.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import ommap  # noqa: E402
import ommap.cli  # noqa: E402


def timed(label, fn):
    t = time.perf_counter()
    fn()
    print(f"{label:58s} {time.perf_counter() - t:7.2f} s", flush=True)


def mc_curve(measure, x1, dim):
    radii = ommap.radius_schedule(0.2, 10)
    space = ommap.WeightedSeqSpace.unweighted(2.0, dim)
    return lambda: ommap.ball_ratio_curve(measure, x1, np.zeros(dim), radii, space,
                                          ommap.RatioOpts(seed=1))


def gamma_check(work: Path):
    rng = np.random.default_rng(7)
    cfg = {"kind": "gamma_check", "seed": 1,
           "family": {"type": "gaussian", "mean": [0.0] * 6,
                      "eigenvalues": list(rng.uniform(0.5, 2.0, 6)),
                      "mean_shift": list(rng.normal(size=6)),
                      "eigenvalue_shift": list(rng.uniform(-0.2, 0.2, 6))},
           "indices": list(range(2, 401)),
           "liminf_points": [list(rng.normal(size=6)) for _ in range(8)],
           "recovery_points": [list(rng.normal(size=6))], "t_values": [0.5, 2.0],
           "tolerances": {"value_tol": 0.01, "min_tol": 0.01, "cluster_tol": 0.01}}
    path = work / "gamma_check.json"
    path.write_text(json.dumps(cfg))

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            assert ommap.cli.main(["--out", str(work / "out"), "run", str(path)]) == 0

    return run


def criterion_10():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                    "tests/test_acceptance.py", "-k", "criterion_10"],
                   cwd=ROOT, env=env, check=True, capture_output=True)


def main() -> int:
    rot = np.linalg.qr(np.random.default_rng(3).standard_normal((3, 3)))[0]
    gauss = ommap.GaussianMeasure(np.zeros(3), ommap.SpectralOperator(
        np.array([2.0, 1.0, 0.5]), rot))
    timed("MC ratio curve, rotated 3-d Gaussian, 10 radii, 1e6 draws",
          mc_curve(gauss, rot @ np.array([0.5, 0.3, -0.2]), 3))
    x1 = np.zeros(20)
    x1[:3] = [0.3, -0.2, 0.1]
    timed("same, Besov-1 dim 20, l2", mc_curve(ommap.BesovMeasure(1.0, 1, 1.0, 20), x1, 20))
    with tempfile.TemporaryDirectory(dir=ROOT / "perfbench-out") as work:
        timed("gamma_check, 6-d Gaussian, 399 members, 8 liminf points",
              gamma_check(Path(work)))
    timed("acceptance criterion 10 (pytest, one process)", criterion_10)
    print(f"peak RSS of this process: "
          f"{resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.0f} MB")
    return 0


if __name__ == "__main__":
    (ROOT / "perfbench-out").mkdir(exist_ok=True)
    sys.exit(main())
