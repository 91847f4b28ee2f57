"""Print a digest of every benchmark op's output, to diff two commits.

Builds one block of the ``mc_ratio``, ``gamma_probe`` and ``cli_kinds``
workloads for seeds 1, 2 and 3 through ``perfbench.workloads.build``,
runs each op and its oracle check, and prints one line per op:

    workload seed kind digest

It then runs the CLI configs of ``EXTRA_CONFIGS``, which the benchmark
never runs, through ``ommap.cli.main`` and prints one line per config,
``cli_extra <seed> <label> <sha256 of results.json>``, so that every
record the results.json encoder writes is covered, and one line per CSV
the config writes, ``cli_extra <seed> <label> <file> <sha256 of the
file>``, so that a change to the CSV writer shows.  Last come the four
``reproduce`` figures, one line per file each writes (results.json and
its CSVs), ``reproduce <figure> <file> <sha256 of the file>``, so a
changed density value on a figure grid shows.  Then the invalid configs
of ``INVALID_CONFIGS`` go through ``ommap.cli.main`` ``run``, one line
each, ``cli_invalid <label> <exit code> <sha256 of standard error>``
(the config's path written as ``cfg.json``), so that a changed
validation message shows.

Run it from the repository root of each commit and diff the outputs:

    python3 tools/output_digests.py > digests.txt

An op whose check fails or finds a quiet wrong answer, an extra config
or figure that does not exit 0, an invalid config that does not exit 2,
or a results.json with a ``verdict`` other than pass, fail or
inconclusive, or a ``strong``, ``weak`` or ``global_weak`` mode word
other than yes, no or inconclusive, is also reported on standard error,
and the exit code is then 1.
"""

import os

# one BLAS thread, as in the benchmark: reductions then sum in one order
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import ommap.cli  # noqa: E402
from ommap.counterexamples import LiminfOnlyMeasure  # noqa: E402
from perfbench.workloads import build  # noqa: E402

WORKLOADS = ("mc_ratio", "gamma_probe", "cli_kinds")
SEEDS = (1, 2, 3)

_BESOV = {"type": "besov1", "s": 1.0, "d": 1, "eta": 1.0}
_OBS_3X4 = {"matrix": [[1.0, 0.4, 0.0, -0.3], [0.0, 1.0, 0.5, 0.2], [0.3, 0.0, 1.0, 0.6]],
            "noise_cov": [0.5, 1.0, 2.0], "data": [3.0, -2.5, 2.0]}
# a rotated basis (the 4x4 Hadamard matrix over 2, orthogonal in floats), a
# nonzero mean and one zero eigenvalue: the reduced map of the normal equations
# and of the pseudoinverse point, lifted back through the basis
_LIMINF = LiminfOnlyMeasure(depth=40)
_GAUSS_ROTATED_DEGENERATE = {
    "type": "gaussian", "mean": [0.3, -0.2, 0.1, 0.4], "eigenvalues": [2.0, 1.0, 0.0, 0.5],
    "basis": [[0.5, 0.5, 0.5, 0.5], [0.5, -0.5, 0.5, -0.5], [0.5, 0.5, -0.5, -0.5],
              [0.5, -0.5, -0.5, 0.5]]}

#: (label, config) of the CLI configs outside the benchmark
EXTRA_CONFIGS = (
    ("perturbation.prior", {
        "kind": "perturbation", "seed": 0, "perturb": "prior",
        "prior": {**_BESOV, "dim": 4}, "observation": _OBS_3X4,
        "indices": [4, 8, 16, 32, 64, 128], "prior_s_amplitude": 0.5}),
    ("perturbation.potential_projection", {
        "kind": "perturbation", "seed": 0, "perturb": "potential_projection",
        "prior": {"type": "gaussian", "mean": [0.0, 0.0, 0.0, 0.0],
                  "eigenvalues": [2.0, 1.0, 0.5, 0.25]},
        "observation": _OBS_3X4, "indices": [1, 2, 3, 4, 5, 6]}),
    # the same truncation under a Besov-1 prior: lasso-homotopy solves on
    # observations whose trailing columns are zero
    ("perturbation.potential_projection_besov1", {
        "kind": "perturbation", "seed": 0, "perturb": "potential_projection",
        "prior": {**_BESOV, "dim": 4}, "observation": _OBS_3X4,
        "indices": [1, 2, 3, 4, 5, 6]}),
    # data perturbation under a Besov-1 prior: lasso-homotopy solves, and
    # misfit members at shifted data in the continuity probe
    ("perturbation.data_besov1", {
        "kind": "perturbation", "seed": 0, "perturb": "data",
        "prior": {**_BESOV, "dim": 4}, "observation": _OBS_3X4,
        "indices": [1, 2, 4, 8, 16, 32, 64], "data_direction": [1.0, -0.5, 0.25]}),
    ("map_solve.gaussian_rotated_degenerate", {
        "kind": "map_solve", "seed": 0, "prior": _GAUSS_ROTATED_DEGENERATE,
        "observation": _OBS_3X4}),
    ("small_noise.gaussian_rotated_degenerate", {
        "kind": "small_noise", "seed": 0, "prior": _GAUSS_ROTATED_DEGENERATE,
        "observation": _OBS_3X4, "n_list": [1, 10, 100, 1000]}),
    ("gamma_check.besov1", {
        "kind": "gamma_check", "seed": 3,
        "family": {**_BESOV, "dim": 6, "s_amplitude": 0.5},
        "indices": list(range(2, 34)),
        "liminf_points": [[0.0] * 6, [0.5, -0.2, 0.1, 0.0, 0.0, 0.3]],
        "recovery_points": [[0.2, 0.1, 0.0, -0.1, 0.0, 0.0]],
        "t_values": [0.5, 2.0], "sublevel_samples": 200}),
    # this family satisfies the liminf inequality (F_n(y) >= y_1^2 / 2 for
    # every member), but the probe reports violations on it: the false `fail`
    # of ROADMAP item 12.  It is kept because it writes LiminfViolation records
    ("gamma_check.liminf_violations", {
        "kind": "gamma_check", "seed": 3,
        "family": {"type": "gaussian", "mean": [0.0, 0.0], "eigenvalues": [1.0, 0.0],
                   "eigenvalue_shift": [0.0, 1.0]},
        "indices": list(range(1, 33)), "liminf_points": [[0.3, 0.0]],
        "recovery_points": [[0.3, 0.0]], "t_values": [1.0], "sublevel_samples": 200}),
    ("small_noise.besov1", {
        "kind": "small_noise", "seed": 0, "prior": {**_BESOV, "dim": 3},
        "observation": {"matrix": [[1.0, 0.5, -0.25]], "noise_cov": [1.0], "data": [0.7]},
        "n_list": [1, 10, 100, 1000]}),
    # three rows: a basis-pursuit limit with three active columns
    ("small_noise.besov1_3x4", {
        "kind": "small_noise", "seed": 0, "prior": {**_BESOV, "dim": 4},
        "observation": _OBS_3X4, "n_list": [1, 10, 100, 1000, 10000]}),
    ("classify_mode.crosses", {
        "kind": "classify_mode", "seed": 0,
        "measure": {"type": "density1d", "name": "crosses", "params": {"norm_choice": "inf"}},
        "candidate": [1.0, 0.0], "competitors": [[-1.0, 0.0], [1.5, 0.0], [0.0, 1.0]],
        "schedule": {"r0": 0.2, "levels": 5}, "norm": {"p": "inf"}}),
    # one mass table serves the anchor and all three points
    ("m_property.three_points", {
        "kind": "m_property", "seed": 5,
        "measure": {"type": "gaussian", "mean": [0.2, -0.1], "eigenvalues": [1.5, 0.0]},
        "outside_points": [[0.2, 0.0], [-0.5, -0.25], [1.0, 0.05]],
        "schedule": {"r0": 0.4, "levels": 6}, "norm": {"p": 2}, "mc": {"n_samples": 20000}}),
    # l2 balls of a Gaussian: a mass table from Ruben's series
    ("classify_mode.gaussian_l2", {
        "kind": "classify_mode", "seed": 6,
        "measure": {"type": "gaussian", "mean": [0.3, -0.2], "eigenvalues": [1.0, 0.5]},
        "candidate": [0.3, -0.2], "competitors": [[0.6, 0.1], [-0.2, -0.4]],
        "schedule": {"r0": 0.3, "levels": 5}, "norm": {"p": 2}, "mc": {"n_samples": 20000}}),
    # eight competitors fitted in one solve, among them the candidate (no
    # curve) and the mean, a heaviest centre that the table holds once
    ("classify_mode.gaussian_l2_eight", {
        "kind": "classify_mode", "seed": 7,
        "measure": {"type": "gaussian", "mean": [0.3, -0.2], "eigenvalues": [1.0, 0.5]},
        "candidate": [0.5, -0.1],
        "competitors": [[0.9, 0.1], [0.5, -0.1], [-0.4, -0.6], [0.3, -0.2], [0.0, 0.0],
                        [1.2, -0.9], [0.6, -0.15], [0.3, 0.4]],
        "schedule": {"r0": 0.3, "levels": 6}, "norm": {"p": 2}, "mc": {"n_samples": 20000}}),
    # Monte Carlo l2 balls of a Besov-1 measure, every batch drawn: 20
    # batches of 2,500 draws, each drawn whole, in one call, since only a
    # table that may stop draws its first batches in chunks
    ("classify_mode.besov1_l2_whole_batches", {
        "kind": "classify_mode", "seed": 0, "measure": {**_BESOV, "dim": 20},
        "candidate": [0.0] * 20, "competitors": [[0.3, 0.0, -0.2] + [0.0] * 17],
        "schedule": {"r0": 0.2, "levels": 6}, "norm": {"p": 2}, "mc": {"n_samples": 100000}}),
    # two points within the smallest radius of the range fit a limit; the
    # two farther ones have zero mass at the small radii and fit none
    ("m_property.mixed_fits", {
        "kind": "m_property", "seed": 5,
        "measure": {"type": "gaussian", "mean": [0.0, 0.0], "eigenvalues": [1.0, 0.0]},
        "outside_points": [[0.5, 1e-4], [1.0, 0.05], [-0.3, 0.3], [0.8, -0.004]],
        "schedule": {"r0": 0.4, "levels": 6}, "norm": {"p": 2}, "mc": {"n_samples": 20000}}),
    # forced Monte Carlo: 2100 over 20 batches is 105 evaluations a batch,
    # 53 draws z, each at z and -z, the per-batch count rounded up to whole
    # antithetic pairs
    ("ball_ratio.gaussian_l2_odd_batch", {
        "kind": "ball_ratio", "seed": 2,
        "measure": {"type": "gaussian", "mean": [0.1, -0.2, 0.0], "eigenvalues": [1.0, 0.5, 2.0]},
        "x1": [0.5, 0.1, -0.3], "x2": [0.1, -0.2, 0.0],
        "schedule": {"r0": 0.3, "levels": 6}, "norm": {"p": 2},
        "mc": {"n_samples": 2100, "n_batches": 20, "method": "mc"}}),
    # Ruben's series on a rotated basis, with norm weights and one zero
    # eigenvalue; x1 is the mean plus (0.5, -0.25, 0, 0.25) in eigen
    # coordinates, so the limit is exp(-I(x1)) = 0.8553453
    ("ball_ratio.gaussian_l2_rotated_series", {
        "kind": "ball_ratio", "seed": 0, "measure": _GAUSS_ROTATED_DEGENERATE,
        "x1": [0.55, 0.05, 0.1, 0.9], "x2": [0.3, -0.2, 0.1, 0.4],
        "schedule": {"r0": 0.4, "levels": 10}, "norm": {"p": 2, "weights": [1.0, 0.5, 2.0, 0.8]}}),
    # Laplace factors in the sup norm: the exact product path
    ("ball_ratio.besov20_sup", {
        "kind": "ball_ratio", "seed": 0, "measure": {**_BESOV, "dim": 20},
        "x1": [0.05 * (-1) ** k / (k + 1) for k in range(20)], "x2": [0.0] * 20,
        "schedule": {"r0": 0.2, "levels": 10}, "norm": {"p": "inf"}}),
    # the measure's own l1_delta norm and the default Monte Carlo size: the
    # p = 1 draw branch, and a curve that stops drawing once its limit settles
    ("ball_ratio.besov1_default_norm", {
        "kind": "ball_ratio", "seed": 0, "measure": {**_BESOV, "dim": 20},
        "x1": [0.3, 0.0, -0.2] + [0.0] * 17, "x2": [0.0] * 20,
        "schedule": {"r0": 0.2, "levels": 10}}),
    # Part I's oscillating ratios from the liminf table: mu(B(-1)) / mu(B(+1))
    # is 2 at the radii 2 alpha_n and 2^(-n-2) at alpha_n, n = 1..8, which
    # interleave in decreasing order since alpha_n > 2 alpha_(n+1)
    ("ball_ratio.liminf_only", {
        "kind": "ball_ratio", "seed": 0,
        "measure": {"type": "density1d", "name": "liminf_only", "params": {"depth": 40}},
        "x1": [-1.0], "x2": [1.0],
        "radii": [float(r) for n in range(1, 9)
                  for r in (_LIMINF.eps_radius(n), _LIMINF.delta_radius(n))]}),
    ("counterexample.crosses", {"kind": "counterexample", "seed": 0, "name": "crosses"}),
    ("counterexample.liminf_only", {"kind": "counterexample", "seed": 0,
                                    "name": "liminf_only", "params": {"n_max": 8}}),
    ("counterexample.kl_gaussians", {"kind": "counterexample", "seed": 0,
                                     "name": "kl_gaussians"}),
    ("counterexample.om_not_strong", {"kind": "counterexample", "seed": 0,
                                      "name": "om_not_strong", "params": {"ks": [2, 3, 10]}}),
)


_BALL_RATIO = {"kind": "ball_ratio", "seed": 0,
               "measure": {"type": "gaussian", "mean": [0.0], "eigenvalues": [1.0]},
               "x1": [0.5], "x2": [0.0]}
_MAP_SOLVE = {"kind": "map_solve", "seed": 0, "prior": {**_BESOV, "dim": 1},
              "observation": {"matrix": [[1.0]], "noise_cov": [1.0], "data": [1.0]}}

#: (label, config) of configs the CLI must refuse with exit code 2: one bad
#: value inside each $defs entry a branch refers to, an unknown kind, a
#: config that is not a JSON object, a NaN constant, a negative seed and an
#: empty schedule
INVALID_CONFIGS = (
    ("vector.item_string", {**_BALL_RATIO, "x1": [0.5, "a"]}),
    ("vectors.item_number", {"kind": "classify_mode", "measure": _BALL_RATIO["measure"],
                             "candidate": [0.0], "competitors": [[0.5], 0.5]}),
    ("measure.no_eigenvalues", {**_BALL_RATIO, "measure": {"type": "gaussian",
                                                           "mean": [0.0]}}),
    ("norm.negative_p", {**_BALL_RATIO, "norm": {"p": -1}}),
    ("schedule.one_level", {**_BALL_RATIO, "schedule": {"r0": 0.2, "levels": 1}}),
    ("mc.one_batch", {**_BALL_RATIO, "mc": {"n_batches": 1}}),
    ("observation.no_data", {**_MAP_SOLVE, "observation": {"matrix": [[1.0]],
                                                           "noise_cov": [1.0]}}),
    ("kind.unknown", {"kind": "nope", "seed": 0}),
    ("not_an_object", [_BALL_RATIO]),
    ("nan_constant", {**_BALL_RATIO, "x1": [math.nan]}),
    ("seed.negative", {**_MAP_SOLVE, "seed": -3}),
    ("n_list.empty", {"kind": "small_noise", "seed": 0, "prior": _MAP_SOLVE["prior"],
                      "observation": _MAP_SOLVE["observation"], "n_list": []}),
)


_MODE_WORDS = {"yes", "no", "inconclusive"}
#: the words each key of a results.json record may hold: a check's verdict,
#: and the paper's answers to "is x a mode?"
VOCABULARY = {"verdict": {"pass", "fail", "inconclusive"}, "strong": _MODE_WORDS,
              "weak": _MODE_WORDS, "global_weak": _MODE_WORDS}


def off_vocabulary(node, where: str = "") -> list:
    """``/path: word`` for each key of ``VOCABULARY`` in a parsed
    results.json whose value is not one of its words."""
    items = enumerate(node) if isinstance(node, list) else \
        node.items() if isinstance(node, dict) else ()
    bad = []
    for key, value in items:
        if key in VOCABULARY and not (isinstance(value, str) and value in VOCABULARY[key]):
            bad.append(f"{where}/{key}: {value!r}")
        bad += off_vocabulary(value, f"{where}/{key}")
    return bad


def _vocabulary_faults(results: Path, label: str) -> int:
    """1 after reporting the off-vocabulary words of a results.json on
    standard error, else 0."""
    bad = off_vocabulary(json.loads(results.read_text()))
    for word in bad:
        print(f"{label} results.json{word}", file=sys.stderr)
    return int(bool(bad))


def _extra_digests() -> int:
    bad = 0
    for label, cfg in EXTRA_CONFIGS:
        with tempfile.TemporaryDirectory() as work:
            path, out = Path(work) / "cfg.json", Path(work) / "out"
            path.write_text(json.dumps(cfg))
            with contextlib.redirect_stdout(io.StringIO()):
                code = ommap.cli.main(["--out", str(out), "run", str(path)])
            if code != 0:
                bad += 1
                print(f"cli_extra {cfg['seed']} {label}: exit code {code}", file=sys.stderr)
                continue
            digest = hashlib.sha256((out / "results.json").read_bytes()).hexdigest()[:16]
            print(f"cli_extra {cfg['seed']} {label} {digest}", flush=True)
            bad += _vocabulary_faults(out / "results.json", f"cli_extra {cfg['seed']} {label}")
            for path in sorted(out.glob("*.csv")):
                digest = hashlib.sha256(path.read_bytes()).hexdigest()[:16]
                print(f"cli_extra {cfg['seed']} {label} {path.name} {digest}", flush=True)
    return bad


FIGURES = ("fig1a", "fig1b", "figB1", "figB3")


def _figure_digests() -> int:
    bad = 0
    for fig in FIGURES:
        with tempfile.TemporaryDirectory() as work:
            out = Path(work) / "out"
            with contextlib.redirect_stdout(io.StringIO()):
                code = ommap.cli.main(["--out", str(out), "reproduce", fig])
            if code != 0:
                bad += 1
                print(f"reproduce {fig}: exit code {code}", file=sys.stderr)
                continue
            for path in sorted(out.iterdir()):
                digest = hashlib.sha256(path.read_bytes()).hexdigest()[:16]
                print(f"reproduce {fig} {path.name} {digest}", flush=True)
            bad += _vocabulary_faults(out / "results.json", f"reproduce {fig}")
    return bad


def _invalid_digests() -> int:
    bad = 0
    for label, cfg in INVALID_CONFIGS:
        with tempfile.TemporaryDirectory() as work:
            path, err = Path(work) / "cfg.json", io.StringIO()
            path.write_text(json.dumps(cfg))
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = ommap.cli.main(["--out", str(Path(work) / "out"), "run", str(path)])
            text = err.getvalue().replace(str(path), "cfg.json")
            digest = hashlib.sha256(text.encode()).hexdigest()[:16]
            print(f"cli_invalid {label} {code} {digest}", flush=True)
            if code != 2:
                bad += 1
                print(f"cli_invalid {label}: exit code {code}", file=sys.stderr)
    return bad


def main() -> int:
    bad = 0
    for name in WORKLOADS:
        for seed in SEEDS:
            with tempfile.TemporaryDirectory() as work:
                for op in build(name, seed, 1, Path(work)).ops:
                    out = op.check(op.call())
                    print(f"{name} {seed} {op.kind} {out.digest}", flush=True)
                    if out.failed or out.wrong:
                        bad += 1
                        print(f"{name} {seed} {op.kind}: {out.failed or out.wrong}",
                              file=sys.stderr)
                for results in sorted(Path(work).rglob("results.json")):
                    bad += _vocabulary_faults(results, f"{name} {seed} {results.parent.name}")
    bad += _extra_digests()
    bad += _figure_digests()
    bad += _invalid_digests()
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
