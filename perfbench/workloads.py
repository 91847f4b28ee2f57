"""The four benchmark workloads and their oracle checks.

Each workload is a list of blocks; a block is a list of ``Op``s.  Every
input is generated from the workload seed and the block index, and the
program receives only those inputs.  ``Op.call`` is the timed call into
ommap's public API; ``Op.check`` runs after the timed region and judges
the result against a closed-form oracle computed here, never against
program output stored from an earlier commit.

Why these workloads: each loads one layer heavily and the others little
or not at all, so a change to one layer shows on its own workload and
its side effects show on the others.

* ``mc_ratio``    -- Monte Carlo ball-ratio curves (``measures``).
* ``map_besov``   -- weighted-l1 MAP solves by FISTA (``bip``); not in
                     BENCHMARK.json, see README.md.
* ``gamma_probe`` -- Gamma-convergence probes on functional families
                     (``gamma`` over scalar ``om``/``spaces`` evaluations).
* ``cli_kinds``   -- in-process ``ommap.cli.main`` over one config per
                     kind plus the four figures (``cli``,
                     ``counterexamples``, exact and quadrature masses).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

import ommap
import ommap.cli

#: FISTA iteration cap for the MAP workloads.  Of 3000 sampled problems,
#: 472 stall until any cap and all but one of the rest converge within
#: 970 iterations, so this cap picks out the same solves as the library
#: default of 1e5, at a cost a run can hold hundreds of.
MAP_MAX_ITER = 1000
MAP_TOL = 1e-9

#: relative distance from the oracle beyond which a result that carries
#: no diagnostic counts as a quiet wrong answer
MC_REL_TOL = 0.05
QUAD_REL_TOL = 1e-3


@dataclass
class Outcome:
    """Verdict on one op's result."""

    failed: Optional[str] = None   # counts toward fail_frac (explicit failure)
    wrong: Optional[str] = None    # quiet wrong answer: the run is not correct
    counters: dict = field(default_factory=dict)
    digest: str = ""               # must repeat exactly when the op is re-run


@dataclass
class Op:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], Outcome]


@dataclass
class Workload:
    name: str
    blocks: list                   # list of list[Op]
    functionals: list = field(default_factory=list)  # family members to trace

    @property
    def ops(self) -> list:
        return [op for block in self.blocks for op in block]


def block_rng(seed: int, workload: str, block) -> np.random.Generator:
    tag = zlib.crc32(f"{workload}/{block}".encode())
    return np.random.default_rng([seed, tag])


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(np.asarray(a, dtype=float)).tobytes())
    return h.hexdigest()[:16]


def _rotation(rng, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


# ---------------------------------------------------------------------------
# oracles (closed forms, independent of the library's own functionals)
# ---------------------------------------------------------------------------

def gaussian_point(rng, mean, eig, basis, delta_i: float) -> np.ndarray:
    """A point whose Cameron-Martin functional exceeds the mean's by delta_i."""
    v = rng.standard_normal(len(mean))
    v *= math.sqrt(2.0 * delta_i) / np.linalg.norm(v)
    c = np.sqrt(eig) * v
    return mean + (c if basis is None else basis @ c)


def gaussian_i(x, mean, eig, basis) -> float:
    d = np.asarray(x, dtype=float) - mean
    c = d if basis is None else basis.T @ d
    return 0.5 * float(np.sum(c * c / eig))


def besov_gamma(s: float, dim: int) -> np.ndarray:
    """gamma_k = k^(1/2 - s) for d = 1."""
    return np.arange(1, dim + 1, dtype=float) ** (0.5 - s)


def besov_point(rng, gamma: np.ndarray, delta_i: float, support: int = 3) -> np.ndarray:
    """Sparse point with sum_k |x_k| / gamma_k = delta_i on the first coordinates."""
    x = np.zeros(len(gamma))
    idx = rng.choice(min(5, len(gamma)), size=min(support, len(gamma)), replace=False)
    share = rng.dirichlet(np.ones(len(idx))) * delta_i
    x[idx] = rng.choice([-1.0, 1.0], size=len(idx)) * share * gamma[idx]
    return x


def mixture_pdf(x: float, t: float, r: float) -> float:
    return ((1 + t) * math.exp(-0.5 * (x - r) ** 2)
            + (1 - t) * math.exp(-0.5 * (x + r) ** 2)) / (2 * math.sqrt(2 * math.pi))


def weighted_l1_kkt(matrix, noise, data, gamma, u) -> float:
    """Subdifferential residual of 0.5|C^(-1/2)(y - O u)|^2 + sum |u_k|/gamma_k."""
    scale = 1.0 / np.sqrt(np.asarray(noise, dtype=float))
    w = np.asarray(matrix, dtype=float) * scale[:, None]
    grad = w.T @ (w @ u - np.asarray(data, dtype=float) * scale)
    inv_g = 1.0 / gamma
    on = u != 0
    res_on = np.abs(grad[on] + np.sign(u[on]) * inv_g[on])
    res_off = np.maximum(np.abs(grad[~on]) - inv_g[~on], 0.0)
    return float(max(res_on.max(initial=0.0), res_off.max(initial=0.0)))


def criterion10_problem(rng) -> dict:
    """A random sparse weighted-l1 MAP problem drawn like acceptance criterion 10."""
    k = int(rng.integers(2, 21))
    j = int(rng.integers(1, 11))
    o = rng.normal(size=(j, k))
    u = np.zeros(k)
    nnz = int(rng.integers(1, min(4, k) + 1))
    u[rng.choice(k, nnz, replace=False)] = rng.normal(size=nnz) * 2
    y = o @ u + 0.1 * rng.normal(size=j)
    return {"matrix": o, "noise": rng.uniform(0.5, 2.0, j), "data": y,
            "s": float(rng.uniform(0.6, 1.4)), "dim": k}


# ---------------------------------------------------------------------------
# result checks shared by several workloads
# ---------------------------------------------------------------------------

def check_ratio(limit: float, diagnostic, se_limit: float, method: str, oracle: float,
                rel_tol: float, draws: int = 0, free_dim: int = 0) -> Outcome:
    """Ratio-limit verdict against a finite, positive oracle."""
    mc = method == "monte-carlo"
    counters = {"measures.curves.mc": int(mc), "measures.curves.exact": int(not mc),
                "measures.diagnostics": int(diagnostic is not None),
                "measures.mc_draws": draws if mc else 0,
                "measures.mc_bytes_computed": 8 * draws * free_dim if mc else 0}
    out = Outcome(counters=counters)
    if not math.isfinite(limit):
        out.failed = f"non-finite limit {limit} where the oracle is {oracle:.6g}"
    elif diagnostic is not None:
        out.failed = f"diagnostic {diagnostic!r} where the oracle is {oracle:.6g}"
    elif abs(limit / oracle - 1.0) > rel_tol:
        out.wrong = f"limit {limit:.6g} against oracle {oracle:.6g}"
    miss = math.isfinite(limit) and abs(limit - oracle) > 3.0 * se_limit
    counters["measures.oracle_miss_3se"] = int(miss)
    return out


def check_map(sol_point, sol_iterations: int, solver: str, flags, problem: dict) -> Outcome:
    point = np.asarray(sol_point, dtype=float)
    res = weighted_l1_kkt(problem["matrix"], problem["noise"], problem["data"],
                          besov_gamma(problem["s"], problem["dim"]), point)
    hit = sol_iterations >= MAP_MAX_ITER
    rescued = hit and solver == "fista+active-set-polish" and "not-converged" not in flags
    out = Outcome(counters={"bip.fista_iters": int(sol_iterations), "bip.max_iter_hits": int(hit),
                            "bip.polish_rescues": int(rescued), "bip.kkt_max": res},
                  digest=_digest(point))
    if not (math.isfinite(res) and res < MAP_TOL):
        out.failed = f"KKT residual {res:.3e} >= tol {MAP_TOL:g}"
        if "not-converged" not in flags:
            out.wrong = f"KKT residual {res:.3e} without a not-converged flag"
    return out


# ---------------------------------------------------------------------------
# mc_ratio
# ---------------------------------------------------------------------------

MC_DRAWS = 10 ** 5
MC_BATCHES = 20


def _mc_op(kind: str, measure, x1, x2, oracle: float, free_dim: int, mc_seed: int) -> Op:
    radii = ommap.radius_schedule(0.2, 10)
    space = ommap.WeightedSeqSpace.unweighted(2.0, len(x1))
    opts = ommap.RatioOpts(n_samples=MC_DRAWS, n_batches=MC_BATCHES, seed=mc_seed)
    draws = (MC_DRAWS // MC_BATCHES) * MC_BATCHES

    def check(c) -> Outcome:
        out = check_ratio(c.extrapolated_limit, c.diagnostic, c.se_limit, c.method, oracle,
                          MC_REL_TOL, draws, free_dim)
        out.digest = _digest(c.ratios, c.stderr, [c.extrapolated_limit])
        return out

    return Op(kind, lambda: ommap.ball_ratio_curve(measure, x1, x2, radii, space, opts), check)


def _gaussian_mc_op(rng, kind: str, dim: int, rotated: bool) -> Op:
    eig = rng.uniform(0.5, 2.0, dim)
    basis = _rotation(rng, dim) if rotated else None
    mean = rng.normal(0.0, 0.5, dim)
    x1 = gaussian_point(rng, mean, eig, basis, float(rng.uniform(0.1, 1.0)))
    mu = ommap.GaussianMeasure(mean, ommap.SpectralOperator(eig, basis))
    oracle = math.exp(-gaussian_i(x1, mean, eig, basis))  # I(mean) = 0
    return _mc_op(kind, mu, x1, mean, oracle, dim, int(rng.integers(2 ** 31)))


def _besov_mc_op(rng, kind: str, dim: int, s_range=(0.8, 1.2)) -> Op:
    s = float(rng.uniform(*s_range))
    mu = ommap.BesovMeasure(s, 1, 1.0, dim)
    delta_i = float(rng.uniform(0.2, 1.5))
    x1 = besov_point(rng, besov_gamma(s, dim), delta_i)
    return _mc_op(kind, mu, x1, np.zeros(dim), math.exp(-delta_i), dim,
                  int(rng.integers(2 ** 31)))


def mc_ratio_block(seed: int, b: int) -> list:
    """Four ratio curves, 10 radii from 0.2 halving, 1e5 draws, l2 balls.

    The Besov dim-100 curve reproduces the known underflow of the
    linear-space masses at the smallest radius; it shows for s <= 1.
    """
    rng = block_rng(seed, "mc_ratio", b)
    return [_gaussian_mc_op(rng, "gauss3_rotated", 3, True),
            _gaussian_mc_op(rng, "gauss8_aligned", 8, False),
            _besov_mc_op(rng, "besov20", 20),
            _besov_mc_op(rng, "besov100", 100, s_range=(0.8, 1.0))]


# ---------------------------------------------------------------------------
# map_besov
# ---------------------------------------------------------------------------

MAP_PER_BLOCK = 100


def _map_op(problem: dict) -> Op:
    obs = ommap.LinearObservation(problem["matrix"], ommap.SpectralOperator(problem["noise"]),
                                  problem["data"])
    prior = ommap.BesovMeasure(problem["s"], 1, 1.0, problem["dim"])
    opts = ommap.ProxOpts(tol=MAP_TOL, max_iter=MAP_MAX_ITER)

    def check(sol) -> Outcome:
        return check_map(sol.point, sol.iterations, sol.solver, sol.flags, problem)

    return Op("besov_map", lambda: ommap.map_solve_besov_linear(prior, obs, opts), check)


def map_besov_block(seed: int, b: int) -> list:
    rng = block_rng(seed, "map_besov", b)
    return [_map_op(criterion10_problem(rng)) for _ in range(MAP_PER_BLOCK)]


# ---------------------------------------------------------------------------
# gamma_probe
# ---------------------------------------------------------------------------

FAMILY_INDICES = list(range(2, 401))      # 399 members
SUBLEVEL_SAMPLES = 200


def _gaussian_family(rng, dim: int = 6):
    eig = rng.uniform(0.5, 2.0, dim)
    basis = _rotation(rng, dim)
    mean = rng.normal(0.0, 0.5, dim)
    mshift = rng.normal(0.0, 1.0, dim)
    eshift = rng.uniform(-0.4, 0.4, dim) * eig
    limit = ommap.GaussianMeasure(mean, ommap.SpectralOperator(eig, basis))
    members = [ommap.GaussianMeasure(mean + mshift / n,
                                     ommap.SpectralOperator(eig + eshift / n, basis))
               for n in FAMILY_INDICES]
    seq = ommap.gaussian_om_family(members, limit, FAMILY_INDICES)
    params = [(mean + mshift / n, eig + eshift / n) for n in FAMILY_INDICES]

    def member_i(i, x):
        return gaussian_i(x, params[i][0], params[i][1], basis)

    def limit_i(x):
        return gaussian_i(x, mean, eig, basis)

    points = [mean] + [gaussian_point(rng, mean, eig, basis, d) for d in (0.5, 1.0, 2.0)]
    recovery_at = gaussian_point(rng, mean, eig, basis, float(rng.uniform(0.2, 2.0)))
    return seq, members, limit, member_i, limit_i, points, recovery_at


def _besov_family(rng, dim: int = 50):
    s = float(rng.uniform(0.8, 1.2))
    amp = float(rng.uniform(0.2, 0.4))
    limit = ommap.BesovMeasure(s, 1, 1.0, dim)
    s_n = [s + (-1) ** n * amp / n for n in FAMILY_INDICES]
    members = [ommap.BesovMeasure(sn, 1, 1.0, dim) for sn in s_n]
    seq = ommap.besov_om_family(members, limit, FAMILY_INDICES)
    gammas = [besov_gamma(sn, dim) for sn in s_n]
    g_lim = besov_gamma(s, dim)

    def member_i(i, x):
        return float(np.sum(np.abs(x) / gammas[i]))

    def limit_i(x):
        return float(np.sum(np.abs(x) / g_lim))

    points = [np.zeros(dim), besov_point(rng, g_lim, 0.5), besov_point(rng, g_lim, 1.0),
              besov_point(rng, g_lim, 2.0, 5)]
    recovery_at = besov_point(rng, g_lim, float(rng.uniform(0.2, 2.0)), 5)
    return seq, members, limit, member_i, limit_i, points, recovery_at


def _gamma_ops(rng, family: str, built) -> list:
    seq, members, limit, member_i, limit_i, points, recovery_at = built
    recovery = (ommap.gaussian_recovery_sequence if family == "gaussian"
                else ommap.besov_recovery_sequence)
    ops = []

    def check_liminf(rep) -> Outcome:
        out = Outcome(counters={"gamma.liminf.paths": int(rep.n_paths)},
                      digest=f"{rep.verdict}/{rep.n_paths}/{len(rep.violations)}")
        if rep.verdict != "pass":
            out.failed = f"liminf verdict {rep.verdict!r} against the family theorem"
        return out

    for x in points:
        opts = ommap.LiminfOpts(seed=int(rng.integers(2 ** 31)))
        ops.append(Op(f"liminf.{family}",
                      lambda x=x, opts=opts: ommap.gamma_liminf_probe(seq, x, opts=opts),
                      check_liminf))

    def run_recovery():
        rec = recovery(members, limit, recovery_at)
        return rec, [seq.members[i].eval(rec[i]) for i in range(len(rec))]

    def check_recovery(res) -> Outcome:
        rec, values = res
        target = limit_i(recovery_at)
        gap = max(member_i(i, r) for i, r in enumerate(rec)) - target
        out = Outcome(digest=_digest(values))
        if not gap <= 1e-10:
            out.failed = f"recovery gap {gap:.3e} > 1e-10"
        return out

    ops.append(Op(f"recovery.{family}", run_recovery, check_recovery))

    equi_seed = int(rng.integers(2 ** 31))

    def check_equi(entry) -> Outcome:
        out = Outcome(digest=f"{entry.verdict}/{entry.violations}")
        if entry.verdict != "pass":
            out.failed = f"equicoercivity verdict {entry.verdict!r} ({entry.violations} violations)"
        return out

    ops.append(Op(f"equicoercivity.{family}",
                  lambda: ommap.equicoercivity_probe(seq, 1.0, SUBLEVEL_SAMPLES, equi_seed),
                  check_equi))

    mode_opts = ommap.ModeConvOpts(value_tol=1e-4, min_tol=1e-4)
    minimizers = [m.mean for m in members] if family == "gaussian" else \
        [np.zeros(limit.dim) for _ in members]

    def check_mode(rep) -> Outcome:
        out = Outcome(digest=f"{rep.verdict}/{len(rep.cluster_points)}")
        if rep.verdict != "pass":
            out.failed = f"mode-convergence verdict {rep.verdict!r}"
        return out

    ops.append(Op(f"mode.{family}",
                  lambda: ommap.mode_convergence_check(seq, minimizers, mode_opts),
                  check_mode))
    return ops


def gamma_probe_block(seed: int, b: int, functionals: list) -> list:
    """Probes on a rotated 6-d Gaussian family and a Besov-1 dim-50 family."""
    rng = block_rng(seed, "gamma_probe", b)
    gauss = _gaussian_family(rng)
    besov = _besov_family(rng)
    functionals.extend(gauss[0].members + besov[0].members)
    return _gamma_ops(rng, "gaussian", gauss) + _gamma_ops(rng, "besov1", besov)


# ---------------------------------------------------------------------------
# cli_kinds
# ---------------------------------------------------------------------------

FIGURES = ("fig1a", "fig1b", "figB1", "figB3")


def _gauss_json(mean, eig) -> dict:
    return {"type": "gaussian", "mean": [float(v) for v in mean],
            "eigenvalues": [float(v) for v in eig]}


def _obs_json(matrix, noise, data) -> dict:
    return {"matrix": [[float(v) for v in row] for row in matrix],
            "noise_cov": [float(v) for v in noise], "data": [float(v) for v in data]}


def cli_configs(seed: int) -> list:
    """(label, config, oracle check on the parsed results.json) per run config."""
    rng = block_rng(seed, "cli_kinds", "configs")
    cfgs = []

    # ball_ratio, Monte Carlo: 2-d Gaussian, l2
    eig = rng.uniform(0.5, 2.0, 2)
    mean = rng.normal(0.0, 0.5, 2)
    d_i = float(rng.uniform(0.1, 1.0))
    x1 = gaussian_point(rng, mean, eig, None, d_i)
    cfgs.append(("ball_ratio.mc", {
        "kind": "ball_ratio", "seed": int(rng.integers(2 ** 31)),
        "measure": _gauss_json(mean, eig), "x1": list(map(float, x1)),
        "x2": list(map(float, mean)), "schedule": {"r0": 0.2, "levels": 8},
        "norm": {"p": 2}, "mc": {"n_samples": 20000}},
        _ratio_check(math.exp(-d_i), MC_REL_TOL, draws=20000, free_dim=2)))

    # ball_ratio, exact path: 200-d diagonal Gaussian, sup norm
    eig = rng.uniform(0.5, 2.0, 200)
    mean = rng.normal(0.0, 0.5, 200)
    d_i = float(rng.uniform(0.1, 0.5))
    x1 = gaussian_point(rng, mean, eig, None, d_i)
    cfgs.append(("ball_ratio.sup200", {
        "kind": "ball_ratio", "seed": 0, "measure": _gauss_json(mean, eig),
        "x1": list(map(float, x1)), "x2": list(map(float, mean)),
        "schedule": {"r0": 0.2, "levels": 10}, "norm": {"p": "inf"}},
        _ratio_check(math.exp(-d_i), QUAD_REL_TOL)))

    # ball_ratio, quadrature path: 1-d two-bump mixture
    t = float(rng.uniform(-0.5, 0.5))
    a, b = (float(v) for v in rng.uniform(-6.0, 6.0, 2))
    cfgs.append(("ball_ratio.density1d", {
        "kind": "ball_ratio", "seed": 0,
        "measure": {"type": "density1d", "name": "mixture", "params": {"t": t, "r": 5.0}},
        "x1": [a], "x2": [b], "schedule": {"r0": 0.2, "levels": 10}},
        _ratio_check(mixture_pdf(a, t, 5.0) / mixture_pdf(b, t, 5.0), QUAD_REL_TOL)))

    # classify_mode: the mean of a diagonal Gaussian is a strong and a weak mode
    eig = rng.uniform(0.5, 2.0, 2)
    mean = rng.normal(0.0, 0.5, 2)
    comps = [list(map(float, mean + rng.normal(0.0, 0.5, 2))) for _ in range(3)]
    cfgs.append(("classify_mode", {
        "kind": "classify_mode", "seed": 0, "measure": _gauss_json(mean, eig),
        "candidate": list(map(float, mean)), "competitors": comps,
        "schedule": {"r0": 0.2, "levels": 6}, "norm": {"p": "inf"}},
        _classify_check))

    # m_property: points off the range of a degenerate Gaussian
    eig = np.array([float(rng.uniform(0.5, 2.0)), 0.0])
    mean = rng.normal(0.0, 0.5, 2)
    outside = [list(map(float, mean + [rng.normal(), rng.choice([-1, 1]) * rng.uniform(0.5, 1.5)]))]
    cfgs.append(("m_property", {
        "kind": "m_property", "seed": int(rng.integers(2 ** 31)),
        "measure": _gauss_json(mean, eig), "outside_points": outside,
        "schedule": {"r0": 0.4, "levels": 6}, "norm": {"p": 2}, "mc": {"n_samples": 20000}},
        _verdict_check(lambda r: r["all_pass"], "m-property all_pass")))

    # gamma_check: converging diagonal Gaussian family
    eig = rng.uniform(0.5, 2.0, 3)
    mean = rng.normal(0.0, 0.5, 3)
    cfgs.append(("gamma_check", {
        "kind": "gamma_check", "seed": int(rng.integers(2 ** 31)),
        "family": {"type": "gaussian", "mean": list(map(float, mean)),
                   "eigenvalues": list(map(float, eig)),
                   "mean_shift": list(map(float, rng.normal(0.0, 1.0, 3))),
                   "eigenvalue_shift": list(map(float, rng.uniform(-0.4, 0.4, 3) * eig))},
        "indices": list(range(2, 42)),
        "liminf_points": [list(map(float, mean)),
                          list(map(float, gaussian_point(rng, mean, eig, None, 0.5)))],
        "recovery_points": [list(map(float, gaussian_point(rng, mean, eig, None, 1.0)))],
        "t_values": [0.5, 2.0], "sublevel_samples": 200,
        "tolerances": {"value_tol": 0.01, "min_tol": 0.01, "cluster_tol": 0.01}},
        _verdict_check(lambda r: r["verdict"] == "pass", "gamma_check verdict pass",
                       lambda r: {"gamma.liminf.paths": sum(x["n_paths"] for x in r["liminf"])})))

    # map_solve: a criterion-10 problem under a Besov-1 prior
    prob = criterion10_problem(rng)
    cfgs.append(("map_solve", {
        "kind": "map_solve", "seed": 0,
        "prior": {"type": "besov1", "s": prob["s"], "d": 1, "eta": 1.0, "dim": prob["dim"]},
        "observation": _obs_json(prob["matrix"], prob["noise"], prob["data"]),
        "solver": {"tol": MAP_TOL, "max_iter": MAP_MAX_ITER}},
        lambda r, prob=prob: check_map(r["map"]["point"], r["map"]["iterations"],
                                       r["map"]["solver"], r["map"]["flags"], prob)))

    # perturbation: data perturbation under a Gaussian prior; the MAP point is
    # affine in the data, so its distance to the limit decreases strictly
    cfgs.append(("perturbation", {
        "kind": "perturbation", "seed": 0, "perturb": "data",
        "prior": _gauss_json(np.zeros(2), rng.uniform(0.5, 2.0, 2)),
        "observation": _obs_json(np.eye(2) + 0.3 * rng.normal(size=(2, 2)),
                                 rng.uniform(0.5, 2.0, 2), rng.normal(size=2)),
        "indices": [1, 2, 4, 8, 16, 32, 64], "data_direction": [1.0, 0.0]},
        _verdict_check(lambda r: all(
            b < a for a, b in zip([e["distance_to_limit"] for e in r["entries"]],
                                  [e["distance_to_limit"] for e in r["entries"]][1:])),
            "distances decrease")))

    # small_noise: the constrained point is the minimum Cameron-Martin-norm solution
    eig = rng.uniform(0.5, 2.0, 3)
    o = rng.normal(size=(1, 3))
    y = rng.normal(size=1)
    star = (eig * o[0]) * float(y[0] / (o[0] @ (eig * o[0])))
    cfgs.append(("small_noise", {
        "kind": "small_noise", "seed": 0, "prior": _gauss_json(np.zeros(3), eig),
        "observation": _obs_json(o, [1.0], y), "n_list": [1, 10, 100, 1000]},
        _verdict_check(lambda r, star=star: np.max(np.abs(
            np.asarray(r["constrained_point"]) - star)) < 1e-8, "constrained point")))

    # counterexamples
    ts = [float(-rng.uniform(0.01, 0.2)), float(rng.uniform(0.01, 0.2))]
    cfgs.append(("counterexample.mixture", {
        "kind": "counterexample", "seed": 0, "name": "mixture",
        "params": {"r": 5.0, "t_values": ts, "kl_t_values": [1e-3, 3e-3, 1e-2, 3e-2]}},
        _verdict_check(lambda r: all(np.sign(m["mode"]) == np.sign(m["t"]) for m in r["modes"]),
                       "mixture mode on the heavier bump")))
    ns = sorted(int(n) for n in rng.choice([10, 20, 50, 100, 200], size=3, replace=False))
    cfgs.append(("counterexample.spike", {
        "kind": "counterexample", "seed": 0, "name": "spike", "params": {"n_values": ns}},
        _verdict_check(lambda r: all(abs(float(m["mode"]) * int(m["n"]) - 1.0) < 0.1
                                     for m in r["modes"] if m["n"] != "inf"),
                       "spike mode near 1/n")))
    cfgs.append(("counterexample.om_not_strong", {
        "kind": "counterexample", "seed": 0, "name": "om_not_strong",
        "params": {"levels": int(rng.integers(20, 31))}},
        _verdict_check(lambda r: all(math.isfinite(v) for v in r["ratio_limits"].values()),
                       "finite ratio limits")))
    return cfgs


def _ratio_check(oracle: float, rel_tol: float, draws: int = 0, free_dim: int = 0):
    def check(r) -> Outcome:
        return check_ratio(r["limit"], r["diagnostic"], r["se_limit"], r["method"], oracle,
                           rel_tol, draws, free_dim)
    return check


def _verdict_check(ok, what: str, counters=None):
    def check(r) -> Outcome:
        out = Outcome(counters=counters(r) if counters else {})
        if not ok(r):
            out.failed = f"{what}: contradicted"
        return out
    return check


def _classify_check(r) -> Outcome:
    if "no" in (r["strong"], r["global_weak"]):
        return Outcome(failed=f"mode verdicts strong={r['strong']} weak={r['global_weak']} "
                              "at the Gaussian mean")
    return Outcome()


def _cli_op(label: str, argv: list, out_dir: Path, first: dict, oracle) -> Op:
    """``ommap.cli.main`` on one config; the op returns the exit code and the
    bytes of results.json, which must equal those of the first execution."""
    def call():
        with contextlib.redirect_stdout(io.StringIO()):
            code = ommap.cli.main(argv)
        path = out_dir / "results.json"
        return code, path.read_bytes() if code == 0 and path.is_file() else None

    def check(res) -> Outcome:
        code, raw = res
        if code != 0 or raw is None:
            return Outcome(failed=f"exit code {code}")
        digest = hashlib.sha256(raw).hexdigest()[:16]
        if first.setdefault(label, raw) != raw:
            return Outcome(failed="results.json differs from the first round", digest=digest)
        out = oracle(json.loads(raw)["results"]) if oracle else Outcome()
        out.digest = digest
        return out

    return Op(label, call, check)


def cli_kinds_block(work: Path, configs: list, first: dict) -> list:
    """One round over the run configs and the four figures."""
    ops = []
    for i, (label, _, oracle) in enumerate(configs):
        path = work / f"{i:02d}-{label}.json"
        out = work / "out" / label
        ops.append(_cli_op(label, ["--out", str(out), "run", str(path)], out, first, oracle))
    for fig in FIGURES:
        out = work / "out" / fig
        ops.append(_cli_op(f"reproduce.{fig}", ["--out", str(out), "reproduce", fig],
                           out, first, None))
    return ops


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

#: blocks in a workload's op list: enough distinct inputs that the cost
#: of the list varies little with the seed, few enough that every op is
#: timed several times in a run
BLOCKS = {"mc_ratio": 2, "map_besov": 4, "gamma_probe": 1, "cli_kinds": 1}
#: seconds one block takes at the commit that introduced the benchmark
#: (2-core shared x86 sandbox, one BLAS thread); ``--seconds`` is turned
#: into a pass count with these, so a faster program runs the same ops
NOMINAL_BLOCK_S = {"mc_ratio": 3.2, "map_besov": 1.1, "gamma_probe": 3.4, "cli_kinds": 0.85}
WORKLOADS = tuple(NOMINAL_BLOCK_S)
#: whether the speed probe streams a large array as well (see probe.py):
#: only where the ops' time goes to large arrays, the Monte Carlo draws
PROBE_ARRAY = {"mc_ratio": True, "map_besov": False, "gamma_probe": False, "cli_kinds": False}
MIN_PASSES = 3


def passes_for(name: str, seconds: float) -> int:
    """Timed passes over the op list that fill ``seconds`` at nominal speed."""
    return max(MIN_PASSES, round(seconds / (BLOCKS[name] * NOMINAL_BLOCK_S[name])))


def build(name: str, seed: int, n_blocks: int, work: Path) -> Workload:
    """Generate every input of ``n_blocks`` blocks from the seed."""
    if name == "mc_ratio":
        return Workload(name, [mc_ratio_block(seed, b) for b in range(n_blocks)])
    if name == "map_besov":
        return Workload(name, [map_besov_block(seed, b) for b in range(n_blocks)])
    if name == "gamma_probe":
        functionals: list = []
        blocks = [gamma_probe_block(seed, b, functionals) for b in range(n_blocks)]
        return Workload(name, blocks, functionals)
    if name == "cli_kinds":
        configs = cli_configs(seed)
        for i, (label, cfg, _) in enumerate(configs):
            (work / f"{i:02d}-{label}.json").write_text(json.dumps(cfg))
        first: dict = {}
        return Workload(name, [cli_kinds_block(work, configs, first)
                               for _ in range(n_blocks)])
    raise ValueError(f"unknown workload {name!r}")
