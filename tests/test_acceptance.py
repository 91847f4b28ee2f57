"""Acceptance suite: one test per criterion, one printed verdict line each.

Each criterion runs at its stated tolerance; the printed line summarises
every sub-check so a log scan shows exactly what held and what did not.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

import ommap
from ommap import (BesovMeasure, CrossesMeasure, GaussianMeasure,
                   LiminfOnlyMeasure, LinearObservation, ModeConvOpts,
                   OmNotStrongMeasure, ProxOpts, RatioOpts,
                   SpectralOperator, WeightedSeqSpace, ball_mass, ball_ratio_curve,
                   besov_om_family, besov_recovery_sequence,
                   classify_mode, constrained_prior_minimum, crosses_ball_masses,
                   crosses_om_difference, equicoercivity_probe,
                   gaussian_om_family, gaussian_recovery_sequence, kkt_residual,
                   kl_gaussians, kl_gaussians_quadrature, liminf_only_ratios,
                   map_solve, map_solve_besov_linear,
                   mixture_kl_exponent, mixture_modes, mode_convergence_check,
                   om_not_strong_suite,
                   perturbation_experiment, posterior_om, prior_om, quadratic_potential,
                   radius_schedule, small_noise_experiment, spike_kl, spike_mode)
from ommap._seeds import child_rng
from ommap.counterexamples import E1
from ommap.gamma import _single_linkage
from l1_reference import coordinate_descent
from pinv_reference import apply, pinv_apply, sqrt_apply
from pointwise import pointwise


def _report(num: int, name: str, budget_s: float, t_start: float, checks):
    elapsed = time.time() - t_start
    checks = list(checks) + [("runtime", elapsed < budget_s, f"{elapsed:.1f}s of {budget_s:.0f}s")]
    failures = [f"{d} ({detail})" for d, ok, detail in checks if not ok]
    status = "PASS" if not failures else "FAIL"
    body = "; ".join(f"{d}: {'ok' if ok else 'VIOLATED'} [{detail}]"
                     for d, ok, detail in checks)
    line = f"ACCEPTANCE {num:02d} {name}: {status} -- {body}"
    print(line)
    assert not failures, line


def observation(matrix, noise_eigs, data):
    return LinearObservation(np.asarray(matrix, dtype=float),
                             SpectralOperator(np.asarray(noise_eigs, dtype=float)),
                             np.asarray(data, dtype=float))


def test_criterion_01_gaussian_kl_closed_form():
    t0 = time.time()
    checks = []
    for sigma in (0.1, 0.5, 2.0, 10.0):
        diff = abs(kl_gaussians(sigma) - kl_gaussians_quadrature(sigma))
        checks.append((f"sigma={sigma}", diff < 1e-8, f"|closed-quad|={diff:.2e}"))
    _report(1, "relative-entropy closed form", 1.0, t0, checks)


def _spike_kl_constant() -> float:
    """C = lim n*KL(limit||member) for the spike family, from scipy alone.

    The member's normaliser contributes log(1 + 1/(n sqrt 2)) ~ 1/(n sqrt 2);
    with x = y/n the spike 4 y^2 exp(-y^2) meets the limit density at height
    exp(-1/2)/sqrt(2 pi), so n*KL = C - O(1/n) with
    C = 1/sqrt(2) - (exp(-1/2)/sqrt(2 pi)) int_0^inf log(1 + 4 y^2 exp(1/2 - y^2)) dy.
    """
    spike_term = quad(lambda y: math.log1p(4.0 * y * y * math.exp(0.5 - y * y)),
                      0.0, math.inf)[0]
    return 1.0 / math.sqrt(2.0) - math.exp(-0.5) / math.sqrt(2.0 * math.pi) * spike_term


def test_criterion_02_spike_family():
    t0 = time.time()
    checks = []
    for n in (10, 50, 100):
        mode = spike_mode(n)
        checks.append((f"mode(n={n}) within 10% of 1/n",
                       abs(mode - 1.0 / n) <= 0.1 / n, f"mode={mode:.6f}"))
    checks.append(("mode(inf) = 1 within 1e-8", abs(spike_mode(math.inf) - 1.0) < 1e-8,
                   f"{spike_mode(math.inf)}"))
    c = _spike_kl_constant()
    for n in (20, 50, 200, 1000):
        ratio = n * spike_kl(n)
        gap = abs(ratio - c)
        checks.append((f"n*KL(limit||member) within 1/n of its limit C at n={n}",
                       gap <= 1.0 / n,
                       f"n*KL={ratio:.4f}, C={c:.6f}, |diff|={gap:.4f} <= {1.0 / n:.4f}"))
    # mode non-convergence: the member modes cluster at 0, not at 1
    ns = [2 ** k for k in range(2, 12)]
    modes = np.array([[spike_mode(n)] for n in ns])
    labels = _single_linkage(modes[-4:], 0.01)
    rep_pt = float(modes[-1][0])
    checks.append(("modes cluster at 0, away from the limit mode 1",
                   labels.max() == 0 and rep_pt < 0.01 and abs(rep_pt - 1.0) > 0.9,
                   f"cluster point={rep_pt:.5f}"))
    _report(2, "spike family", 10.0, t0, checks)


def test_criterion_03_mixture_family():
    t0 = time.time()
    checks = []
    m_plus = mixture_modes(0.05, 5.0).mode
    m_minus = mixture_modes(-0.05, 5.0).mode
    checks.append(("mode near +5 for t=+0.05", abs(m_plus - 5.0) < 0.1, f"{m_plus:.6f}"))
    checks.append(("mode near -5 for t=-0.05", abs(m_minus + 5.0) < 0.1, f"{m_minus:.6f}"))

    modes = np.array([[mixture_modes((-1.0) ** n / n, 5.0).mode]
                      for n in range(2, 82)])
    window = modes[-20:]
    labels = _single_linkage(window, 1e-3)
    reps = sorted(float(window[np.where(labels == c)[0][-1]][0])
                  for c in range(labels.max() + 1))
    oracle = sorted(mixture_modes(0.0, 5.0).local_maxima)
    two_ok = len(reps) == 2 and abs(reps[0] - oracle[0]) < 1e-4 \
        and abs(reps[1] - oracle[1]) < 1e-4
    checks.append(("alternating modes cluster at the two limit argmins within 1e-4",
                   two_ok, f"reps={reps}, oracle={oracle}"))

    slope, _ = mixture_kl_exponent([1e-3, 3e-3, 1e-2, 3e-2, 1e-1], 5.0)
    checks.append(("fitted relative-entropy exponent in [2.0, 2.5]",
                   2.0 <= slope <= 2.5, f"slope={slope:.4f}"))
    _report(3, "mixture family", 30.0, t0, checks)


def test_criterion_04_oscillating_dyadic_ratios():
    t0 = time.time()
    m = LiminfOnlyMeasure(depth=40)
    eps, delta = liminf_only_ratios(m, 30)
    expected_delta = np.array([math.ldexp(1.0, -(n + 2)) for n in range(1, 31)])
    checks = [
        ("ratios at radii 2 alpha_n exactly 2", bool(np.all(eps == 2.0)),
         f"max dev={np.max(np.abs(eps - 2.0)):.1e}"),
        ("ratios at radii alpha_n exactly 2^(-n-2)",
         bool(np.array_equal(delta, expected_delta)),
         f"max dev={np.max(np.abs(delta - expected_delta)):.1e}"),
    ]
    _report(4, "dyadic oscillation ratios", 1.0, t0, checks)


def test_criterion_05_singular_spike_measure():
    t0 = time.time()
    m = OmNotStrongMeasure(levels=30)
    rep = om_not_strong_suite(m, ks=(2, 3, 5), n_dip=10)
    checks = [(f"ratio limit vs k^2 within 1% (k={k})", err < 0.01, f"rel err={err:.2e}")
              for k, err in rep.ratio_rel_errors.items()]
    checks.append(("strong-mode curve dips to <= 0.72 at radius 1/(2 n^4), n=10",
                   rep.dip_value <= 0.72,
                   f"dip={rep.dip_value:.5f} (analytic floor {rep.dip_limit:.5f})"))
    checks.append(("classification: weak=yes", rep.weak_verdict == "yes",
                   rep.weak_verdict))
    checks.append(("classification: strong=no", rep.strong_verdict == "no",
                   rep.strong_verdict))
    _report(5, "functional minimiser not a strong mode", 10.0, t0, checks)


def test_criterion_06_crosses_norm_dependence():
    t0 = time.time()
    r = 0.125
    m1, mi = CrossesMeasure("1"), CrossesMeasure("inf")
    exact = [
        (crosses_ball_masses(m1, E1, r), 4.0 * r, "1-norm at e1"),
        (crosses_ball_masses(m1, -E1, r), 2.0 * math.sqrt(2.0) * r, "1-norm at -e1"),
        (crosses_ball_masses(mi, E1, r), 4.0 * r, "sup-norm at e1"),
        (crosses_ball_masses(mi, -E1, r), 4.0 * math.sqrt(2.0) * r, "sup-norm at -e1"),
    ]
    checks = [(f"mass formula {name}", got == want, f"{got} vs {want}")
              for got, want, name in exact]
    d1, di = crosses_om_difference("1"), crosses_om_difference("inf")
    log_rt2 = math.log(math.sqrt(2.0))
    checks.append(("functional difference +log sqrt2 under the 1-norm",
                   abs(d1 - log_rt2) < 1e-10, f"{d1:.12f}"))
    checks.append(("functional difference -log sqrt2 under the sup-norm",
                   abs(di + log_rt2) < 1e-10, f"{di:.12f}"))

    radii = radius_schedule(0.2, 4)
    competitors = [E1, -E1, np.array([1.5, 0.0]), np.array([-1.0 + 0.4 * math.sqrt(0.5),
                                                            0.4 * math.sqrt(0.5)])]
    flips = []
    for measure, winner, loser in ((m1, E1, -E1), (mi, -E1, E1)):
        win = classify_mode(measure, winner, competitors, radii)
        lose = classify_mode(measure, loser, competitors, radii)
        flips.append((win.strong == "yes" and win.global_weak == "yes",
                      lose.strong == "no" and lose.global_weak == "no"))
    checks.append(("1-norm mode at e1", flips[0][0] and flips[0][1],
                   f"winner={flips[0][0]}, loser ruled out={flips[0][1]}"))
    checks.append(("sup-norm mode at -e1", flips[1][0] and flips[1][1],
                   f"winner={flips[1][0]}, loser ruled out={flips[1][1]}"))
    _report(6, "two-crosses norm dependence", 1.0, t0, checks)


def test_criterion_07_gaussian_ratio_limits():
    # Monte Carlo curves, and beside them the exact curves of the same
    # balls (closed form in 1-d, Ruben's series above), whose interval is
    # the fit's model error alone
    t0 = time.time()
    trials, hits, exact_hits, worst_rel = 0, 0, 0, 0.0
    for k_dim in (1, 2, 3):
        for rep in range(34 if k_dim == 1 else 33):
            rng = child_rng(777, "c7", k_dim, rep)
            b = rng.normal(size=(k_dim, k_dim))
            cov = SpectralOperator.from_dense(b @ b.T + 0.3 * np.eye(k_dim))
            mean = rng.normal(size=k_dim)
            mu = GaussianMeasure(mean, cov)
            fn = prior_om(mu)
            w1, w2 = rng.normal(size=(2, k_dim)) * 0.6
            x1 = mean + sqrt_apply(cov, w1)
            x2 = mean + sqrt_apply(cov, w2)
            radii, space = radius_schedule(0.2, 10), WeightedSeqSpace.unweighted(2.0, k_dim)
            cur = ball_ratio_curve(mu, x1, x2, radii, space,
                                   RatioOpts(n_samples=40_000, method="mc",
                                             seed=int(rng.integers(2 ** 31))))
            exact = ball_ratio_curve(mu, x1, x2, radii, space, RatioOpts(method="exact"))
            expected = math.exp(fn.eval(x2) - fn.eval(x1))
            trials += 1
            if abs(cur.extrapolated_limit - expected) <= 3 * max(cur.se_limit, 1e-9):
                hits += 1
            if abs(exact.extrapolated_limit - expected) <= 3 * exact.se_limit:
                exact_hits += 1
            worst_rel = max(worst_rel, abs(exact.extrapolated_limit / expected - 1.0))
    _report(7, "gaussian functional vs ball-ratio limits", 300.0, t0,
            [("limit within 3 combined stderr in >= 95% of 100 trials",
              hits >= 95, f"{hits}/{trials}"),
             ("exact limit within 3 model stderr in every trial",
              exact_hits == trials, f"{exact_hits}/{trials}"),
             ("exact limit within 1e-5 relative in every trial",
              worst_rel < 1e-5, f"worst {worst_rel:.1e}")])


def test_criterion_08_gaussian_family_theorem():
    t0 = time.time()
    rng = child_rng(88, "c8")
    b = rng.normal(size=(3, 3))
    c_mat = b @ b.T + 0.4 * np.eye(3)
    d_raw = rng.normal(size=(3, 3))
    d_mat = d_raw @ d_raw.T
    mean = rng.normal(size=3)
    e1 = np.array([1.0, 0.0, 0.0])
    indices = [2 ** k for k in range(22)]
    limit = GaussianMeasure(mean, SpectralOperator.from_dense(c_mat))
    members = [GaussianMeasure(mean + e1 / n,
                               SpectralOperator.from_dense(c_mat + d_mat / n))
               for n in indices]
    seq = gaussian_om_family(members, limit, indices)

    worst_gap = -math.inf
    for _ in range(1000):
        w = rng.normal(size=3) * 0.8
        u = mean + sqrt_apply(limit.cov, w)
        target = seq.limit.eval(u)
        rec = gaussian_recovery_sequence(members, limit, u)
        worst_gap = max(worst_gap,
                        max(seq.members[i].eval(rec[i]) - target for i in range(len(rec))))
    checks = [("recovery inequality at 1000 random points",
               worst_gap <= 1e-12, f"worst gap={worst_gap:.2e}")]

    # the exact half-widths bound every point of each sublevel set; the
    # mapped sample points are a cross-check inside them
    for t in (0.5, 2.0):
        entry = equicoercivity_probe(seq, t, samples=910, seed=3)
        total = entry.samples_per_member * entry.n_members
        checks.append((f"exact sublevel envelope at t={t} passes, >= 10^4 mapped points inside",
                       entry.verdict == "pass" and entry.violations == 0 and total >= 10_000,
                       f"ratio={entry.ratio:.4g}, slope={entry.slope:.2g}, "
                       f"{entry.violations} violations, {total} points"))

    mode_rep = mode_convergence_check(seq, [m.mean for m in members])
    dist = min(np.linalg.norm(c - mean) for c in mode_rep.cluster_points)
    checks.append(("minimiser sequence clusters at the limit mean within 1e-6",
                   mode_rep.verdict == "pass" and dist < 1e-6, f"distance={dist:.2e}"))
    _report(8, "gaussian family variational theorem", 60.0, t0, checks)


def test_criterion_09_besov_family_theorem():
    t0 = time.time()
    k_dim = 50
    rng = child_rng(99, "c9")
    limit = BesovMeasure(1.0, 1, 1.0, k_dim)
    indices = [2 ** k for k in range(1, 17)]
    members = [BesovMeasure(1.0 + (-1.0) ** n / n, 1, 1.0, k_dim) for n in indices]
    seq = besov_om_family(members, limit, indices)

    worst = 0.0
    for _ in range(200):
        u = rng.laplace(scale=limit.gamma)
        target = seq.limit.eval(u)
        rec = besov_recovery_sequence(members, limit, u)
        worst = max(worst, max(abs(seq.members[i].eval(rec[i]) - target)
                               for i in range(len(rec))))
    checks = [("recovery value identity exact to 1e-12", worst <= 1e-12,
               f"worst |gap|={worst:.2e}")]

    entry = equicoercivity_probe(seq, 1.0, samples=1250, seed=4)
    total = entry.samples_per_member * entry.n_members
    checks.append(("exact envelope |u_k| <= gamma_n,k t passes, >= 10^4 mapped points inside",
                   entry.verdict == "pass" and entry.violations == 0 and total >= 10_000,
                   f"ratio={entry.ratio:.4g}, tail ratio={entry.tail_ratio:.4g}, "
                   f"{entry.violations} violations, {total} points"))

    o_mat = rng.normal(size=(25, k_dim))
    u_true = np.zeros(k_dim)
    u_true[[0, 1, 4]] = [3.0, -2.0, 1.5]
    y = o_mat @ u_true + 0.05 * rng.normal(size=25)
    obs = observation(o_mat, np.ones(25), y)
    sol_lim = map_solve_besov_linear(limit, obs, ProxOpts(tol=1e-10))
    sols = [map_solve_besov_linear(pr, obs, ProxOpts(tol=1e-10)).point
            for pr in members]
    post_members = [posterior_om(prior_om(pr), quadratic_potential(obs))
                    for pr in members]
    post_limit = posterior_om(prior_om(limit), quadratic_potential(obs))
    fam = ommap.FunctionalSequence(indices, post_members, post_limit)
    # the pointwise minima converge at the family's own 1/n rate, so the
    # value gap tolerance sits at that scale; the 1e-4 criterion applies
    # to the distance between minimisers, asserted below
    mode_rep = mode_convergence_check(fam, sols,
                                      ModeConvOpts(limit_min=sol_lim.objective,
                                                   value_tol=1e-4, min_tol=1e-3))
    dist = min(np.linalg.norm(np.asarray(c) - sol_lim.point)
               for c in mode_rep.cluster_points)
    checks.append(("sparse MAP solutions converge to the limit MAP within 1e-4",
                   mode_rep.verdict == "pass" and dist < 1e-4, f"distance={dist:.2e}"))
    _report(9, "besov family variational theorem", 120.0, t0, checks)


def test_criterion_10_map_transfer():
    t0 = time.time()
    rng = child_rng(1010, "c10")
    worst_conj = 0.0
    for _ in range(100):
        k = int(rng.integers(1, 7))
        j = int(rng.integers(1, 5))
        o_mat = rng.normal(size=(j, k))
        obs = observation(o_mat, rng.uniform(0.5, 2.0, j), rng.normal(size=j))
        prior = GaussianMeasure(rng.normal(size=k),
                                SpectralOperator(rng.uniform(0.2, 3.0, k)))
        sol = map_solve(prior, obs)
        c_mat = np.diag(prior.cov.eigenvalues)
        gain = c_mat @ o_mat.T @ np.linalg.inv(
            o_mat @ c_mat @ o_mat.T + np.diag(obs.noise_cov.eigenvalues))
        oracle = prior.mean + gain @ (obs.data - o_mat @ prior.mean)
        worst_conj = max(worst_conj, float(np.max(np.abs(sol.point - oracle))))
    checks = [("linear-gaussian MAP equals conjugacy mean to 1e-10 (100 problems)",
               worst_conj < 1e-10, f"worst={worst_conj:.2e}")]

    worst_cd, worst_kkt = 0.0, 0.0
    iters, cap_hits = 0, 0
    for _ in range(100):
        k = int(rng.integers(2, 21))
        j = int(rng.integers(1, 11))
        o_mat = rng.normal(size=(j, k))
        u_true = np.zeros(k)
        nnz = int(rng.integers(1, min(4, k) + 1))
        u_true[rng.choice(k, nnz, replace=False)] = rng.normal(size=nnz) * 2
        y = o_mat @ u_true + 0.1 * rng.normal(size=j)
        obs = observation(o_mat, rng.uniform(0.5, 2.0, j), y)
        prior = BesovMeasure(float(rng.uniform(0.6, 1.4)), 1, 1.0, k)
        sol = map_solve_besov_linear(prior, obs, ProxOpts(tol=1e-9))
        iters += sol.iterations
        cap_hits += sol.iterations >= ProxOpts().max_iter
        pot = quadratic_potential(obs)
        worst_kkt = max(worst_kkt,
                        kkt_residual(pot.gradient(sol.point), sol.point,
                                     1.0 / prior.gamma))
        oracle = coordinate_descent(obs, prior.gamma)
        worst_cd = max(worst_cd, float(np.max(np.abs(sol.point - oracle))))
    checks.append(("besov MAP matches coordinate-descent oracle within 1e-6",
                   worst_cd < 1e-6, f"worst={worst_cd:.2e}"))
    checks.append(("besov MAP KKT residual < 1e-8", worst_kkt < 1e-8,
                   f"worst={worst_kkt:.2e}"))
    checks.append(("besov MAP stops on a certificate: <= 10^4 homotopy events in all, "
                   "none at max_iter", iters <= 10_000 and cap_hits == 0,
                   f"events={iters}, max_iter hits={cap_hits}"))

    prior = GaussianMeasure(np.zeros(3), SpectralOperator(np.ones(3)))
    obs = observation(np.eye(3), 10.0 * np.ones(3), np.array([1.0, -0.5, 0.3]))
    idx = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1000]
    rep = perturbation_experiment("data", prior, obs,
                                  lambda n: obs.data + np.array([1.0, 0, 0]) / n, idx)
    dists = [e.distance_to_limit for e in rep.entries]
    burn = len(dists) // 4
    mono = all(b < a for a, b in zip(dists[burn:], dists[burn + 1:]))
    checks.append(("data-perturbation distances decrease monotonically, < 1e-4 at n=1000",
                   mono and dists[-1] < 1e-4, f"final={dists[-1]:.2e}"))

    k = 8
    o_mat = child_rng(1010, "c10", "galerkin").normal(size=(5, k)) / np.arange(1, k + 1)
    obs_g = observation(o_mat, np.ones(5), child_rng(1010, "c10", "gdata").normal(size=5))
    prior_g = GaussianMeasure(np.zeros(k), SpectralOperator(np.ones(k)))
    rep_g = perturbation_experiment("potential_projection", prior_g, obs_g,
                                    lambda n: n, list(range(1, k + 1)))
    dg = [e.distance_to_limit for e in rep_g.entries]
    burn = len(dg) // 4
    mono_g = all(b <= a + 1e-14 for a, b in zip(dg[burn:], dg[burn + 1:]))
    checks.append(("projection distances decrease monotonically, < 1e-4 at n=K",
                   mono_g and dg[-1] < 1e-4, f"final={dg[-1]:.2e}"))
    _report(10, "MAP transfer and stability", 300.0, t0, checks)


def test_criterion_11_small_noise_limit():
    t0 = time.time()
    prior = GaussianMeasure(np.zeros(2), SpectralOperator(np.ones(2)))
    obs = observation([[1.0, 1.0]], [1.0], [1.0])
    rep = small_noise_experiment(prior, obs, [1, 10, 100, 1000, 10_000])
    star_err = float(np.max(np.abs(rep.constrained_point - np.array([0.5, 0.5]))))
    checks = [
        ("constrained point is (1/2, 1/2)", star_err < 1e-10, f"err={star_err:.2e}"),
        ("trajectory distance < 1e-3 at n=1e4", rep.distances[-1] < 1e-3,
         f"distance={rep.distances[-1]:.2e}"),
        ("variational limit explicitly not asserted",
         rep.gamma_liminf_asserted is False, str(rep.gamma_liminf_asserted)),
    ]

    bprior = BesovMeasure(1.0, 1, 1.0, 2)  # weights (1, 2^(-1/2))
    star = constrained_prior_minimum(bprior, obs)
    fn = prior_om(bprior)
    grid = np.linspace(-2.0, 3.0, 250_001)
    vals = np.abs(1.0 - grid) + math.sqrt(2.0) * np.abs(grid)
    brute = np.array([1.0 - grid[np.argmin(vals)], grid[np.argmin(vals)]])
    checks.append(("weighted-l1 constrained point matches brute force within 1e-3",
                   float(np.max(np.abs(star - brute))) < 1e-3
                   and fn.eval(star) <= vals.min() + 1e-9,
                   f"point={star.round(6).tolist()} vs {brute.tolist()}"))
    _report(11, "small-noise limit", 30.0, t0, checks)


def test_criterion_12_property_suite():
    t0 = time.time()
    checks = []

    # open vs closed balls: the same curves for atomless laws on the line
    def open_closed(measure, x1, x2, radii):
        return [ball_ratio_curve(measure, x1, x2, radii, None, RatioOpts(closed=closed))
                for closed in (False, True)]

    m = LiminfOnlyMeasure(depth=40)
    radii = np.array([m.eps_radius(n) for n in range(1, 11)])
    osc_open, osc_closed = open_closed(m, -1.0, 1.0, radii)
    good = np.isfinite(osc_open.ratios) & np.isfinite(osc_closed.ratios)
    osc_disc = float(np.max(np.abs(osc_open.ratios[good] - osc_closed.ratios[good]), initial=0.0))
    g1 = GaussianMeasure(np.zeros(1), SpectralOperator(np.ones(1)))
    g_open, g_closed = open_closed(g1, np.array([1.0]), np.array([0.0]), radius_schedule(0.5, 8))
    g_disc = abs(g_open.extrapolated_limit - g_closed.extrapolated_limit)
    checks.append(("open and closed ball ratio limits agree",
                   osc_disc == 0.0 and g_disc < 1e-10,
                   f"osc={osc_disc:.1e}, gauss={g_disc:.1e}"))

    # ... and not where the law charges a ball's boundary: N(0, diag(1, 0))
    # lives on the line u_2 = 0, which the sup-norm sphere of radius 0.05
    # about (0, 0.05) touches
    edge = GaussianMeasure(np.zeros(2), SpectralOperator(np.array([1.0, 0.0])))
    sup = WeightedSeqSpace.unweighted(math.inf, 2)
    r_edge = radius_schedule(0.2, 6)
    masses = np.array([[ball_mass(edge, np.array([0.0, 0.05]), r, sup,
                                  RatioOpts(closed=closed)).estimate for r in r_edge]
                       for closed in (False, True)])
    differ = masses[0] != masses[1]
    at = int(np.argmax(differ))
    checks.append(("closed ball holds the boundary line's mass, open ball none, at r = 0.05 only",
                   r_edge[differ].tolist() == [0.05] and masses[0, at] == 0.0
                   and masses[1, at] == pytest.approx(math.erf(0.05 / math.sqrt(2.0)), rel=1e-12),
                   f"r={r_edge[at]:g}: closed={masses[1, at]:.5f}, open={masses[0, at]:.5f}, "
                   f"differ at {int(differ.sum())} of {len(r_edge)} radii"))

    # minimum-norm pseudoinverse property
    rng = child_rng(12, "pinv")
    ok_pinv = True
    for _ in range(50):
        lam = np.abs(rng.normal(size=4))
        lam[rng.integers(0, 4)] = 0.0
        op = SpectralOperator(lam)
        x = rng.normal(size=4)
        y = apply(op, x)
        x_star = pinv_apply(op, y)
        ok_pinv &= np.linalg.norm(apply(op, x_star) - y) < 1e-10
        ok_pinv &= np.linalg.norm(x_star) <= np.linalg.norm(x) + 1e-12
    checks.append(("minimum-norm pseudoinverse property", ok_pinv, "50 random operators"))

    # gradient vs finite differences
    ok_grad = True
    for _ in range(20):
        k = int(rng.integers(1, 6))
        o_mat = rng.normal(size=(3, k))
        obs = observation(o_mat, rng.uniform(0.5, 2.0, 3), rng.normal(size=3))
        pot = quadratic_potential(obs)
        u = rng.normal(size=k)
        h = 1e-6
        fd = np.array([(pot.eval(u + h * e) - pot.eval(u - h * e)) / (2 * h) for e in np.eye(k)])
        g = pot.gradient(u)
        ok_grad &= np.linalg.norm(g - fd) <= 1e-6 * max(1.0, np.linalg.norm(g))
    checks.append(("potential gradients match central differences", ok_grad,
                   "20 random quadratic misfits"))

    # homogeneity of the two functional classes
    mu_g = GaussianMeasure(rng.normal(size=3), SpectralOperator(rng.uniform(0.5, 2, 3)))
    fn_g = prior_om(mu_g)
    mu_b = BesovMeasure(1.0, 1, 1.0, 5)
    fn_b = prior_om(mu_b)
    ok_homog = True
    for _ in range(200):
        h = rng.normal(size=3)
        c = float(rng.uniform(-3, 3))
        ok_homog &= abs(fn_g.eval(mu_g.mean + c * h) - c * c * fn_g.eval(mu_g.mean + h)) \
            <= 1e-10 * max(1.0, abs(fn_g.eval(mu_g.mean + h)))
        v = rng.normal(size=5)
        ok_homog &= abs(fn_b.eval(c * v) - abs(c) * fn_b.eval(v)) <= 1e-10 * max(1.0, fn_b.eval(v))
    checks.append(("functional homogeneity (quadratic / absolutely one-homogeneous)",
                   ok_homog, "200 random points"))

    # posterior difference identity
    prior_fn = prior_om(mu_g)
    phi = lambda u: float(np.sin(u[0]) - 0.3 * u[1] ** 2 + u[2])
    post = posterior_om(prior_fn, pointwise(phi, 3))
    ok_post = True
    for _ in range(200):
        x1, x2 = rng.normal(size=(2, 3))
        lhs = (post.eval(x1) - post.eval(x2)) - (prior_fn.eval(x1) - prior_fn.eval(x2))
        ok_post &= abs(lhs - (phi(x1) - phi(x2))) < 1e-12
    checks.append(("reweighted-functional difference identity", ok_post,
                   "200 random pairs"))
    _report(12, "property suite", 120.0, t0, checks)
