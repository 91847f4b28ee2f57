"""Potentials, MAP solvers, and the perturbation/small-noise experiments."""

import math

import numpy as np
import pytest

from ommap import bip
from ommap import (BesovMeasure, GaussianMeasure, InputError, LinearObservation,
                   ParameterError, Potential, ProxOpts,
                   SpectralOperator, constrained_prior_minimum, continuous_convergence_probe,
                   kkt_residual, map_solve, map_solve_besov, map_solve_besov_linear,
                   perturbation_experiment, posterior_om, prior_om, projected_potential,
                   quadratic_potential, small_noise_experiment)


def observation(matrix, noise_eigs, data):
    return LinearObservation(np.asarray(matrix, dtype=float),
                             SpectralOperator(np.asarray(noise_eigs, dtype=float)),
                             np.asarray(data, dtype=float))


def random_problem(rng, k, j, prior="gaussian"):
    o = rng.normal(size=(j, k))
    noise = rng.uniform(0.5, 2.0, j)
    y = rng.normal(size=j)
    obs = observation(o, noise, y)
    if prior == "gaussian":
        mean = rng.normal(size=k)
        eigs = rng.uniform(0.2, 3.0, k)
        return GaussianMeasure(mean, SpectralOperator(eigs)), obs
    s = rng.uniform(0.5, 1.5)
    return BesovMeasure(s, 1, 1.0, k), obs


def conjugacy_mean(prior, obs):
    """Independent oracle: Kalman-form posterior mean, valid for any
    SPSD prior covariance."""
    c_mat = np.diag(prior.cov.eigenvalues)
    if prior.cov.basis is not None:
        c_mat = prior.cov.basis @ c_mat @ prior.cov.basis.T
    o = obs.matrix
    n_mat = np.diag(obs.noise_cov.eigenvalues)
    gain = c_mat @ o.T @ np.linalg.inv(o @ c_mat @ o.T + n_mat)
    return prior.mean + gain @ (obs.data - o @ prior.mean)


def cd_oracle(obs, gamma, sweeps=20000, tol=1e-14):
    """Independent cyclic coordinate descent for the weighted-l1 MAP."""
    w = 1.0 / np.sqrt(obs.noise_cov.eigenvalues)
    a = obs.matrix * w[:, None]
    b = obs.data * w
    k = a.shape[1]
    g = a.T @ a
    rhs = a.T @ b
    u = np.zeros(k)
    thr = 1.0 / np.asarray(gamma, dtype=float)
    for _ in range(sweeps):
        delta = 0.0
        for i in range(k):
            if g[i, i] == 0.0:
                continue
            rho = rhs[i] - g[i] @ u + g[i, i] * u[i]
            new = math.copysign(max(abs(rho) - thr[i], 0.0), rho) / g[i, i]
            delta = max(delta, abs(new - u[i]))
            u[i] = new
        if delta < tol:
            break
    return u


class TestPotential:
    def test_gradient_validated_against_finite_differences(self):
        good = Potential(eval=lambda u: float(u @ u), gradient=lambda u: 2.0 * u, dim=3)
        assert good.lipschitz_grad is None
        with pytest.raises(ParameterError):
            Potential(eval=lambda u: float(u @ u), gradient=lambda u: 3.0 * u, dim=3)

    def test_quadratic_values(self):
        obs = observation([[1.0]], [1.0], [2.0])
        pot = quadratic_potential(obs)
        assert pot(np.array([2.0])) == 0.0
        np.testing.assert_allclose(pot.gradient(np.array([2.0])), [0.0])
        assert pot(np.array([0.0])) == pytest.approx(2.0)

    def test_quadratic_gradient_random(self):
        rng = np.random.default_rng(0)
        _, obs = random_problem(rng, 4, 3)
        pot = quadratic_potential(obs)
        u = rng.normal(size=4)
        h = 1e-6
        fd = np.array([(pot(u + h * e) - pot(u - h * e)) / (2 * h)
                       for e in np.eye(4)])
        g = pot.gradient(u)
        assert np.linalg.norm(g - fd) < 1e-6 * max(1.0, np.linalg.norm(g))

    def test_lower_bound_sampled(self):
        rng = np.random.default_rng(1)
        _, obs = random_problem(rng, 3, 2)
        pot = quadratic_potential(obs)
        for _ in range(1000):
            assert pot(rng.normal(size=3) * 3) >= 0.0

    def test_noise_must_be_positive_definite(self):
        with pytest.raises(ParameterError):
            observation([[1.0]], [0.0], [1.0])

    def test_projected_potential(self):
        rng = np.random.default_rng(2)
        _, obs = random_problem(rng, 4, 3)
        pot = quadratic_potential(obs)
        proj = projected_potential(pot, 2)
        u = rng.normal(size=4)
        u_cut = u.copy()
        u_cut[2:] = 0.0
        assert proj(u) == pot(u_cut)
        assert proj.gradient(u)[3] == 0.0


class TestGaussianLinearSolver:
    def test_data_at_prior_mean(self):
        prior = GaussianMeasure(np.array([1.0, -2.0]), SpectralOperator(np.array([2.0, 1.0])))
        obs = observation([[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0], prior.mean)
        sol = map_solve(prior, obs)
        np.testing.assert_allclose(sol.point, prior.mean, atol=1e-12)

    def test_scalar_closed_form(self):
        prior = GaussianMeasure(np.zeros(1), SpectralOperator(np.ones(1)))
        sol = map_solve(prior, observation([[1.0]], [1.0], [2.0]))
        assert sol.point[0] == pytest.approx(1.0, abs=1e-14)

    def test_large_noise_returns_to_mean(self):
        prior = GaussianMeasure(np.array([0.7]), SpectralOperator(np.ones(1)))
        sol = map_solve(prior, observation([[1.0]], [1e12], [5.0]))
        assert sol.point[0] == pytest.approx(0.7, abs=1e-9)

    def test_conjugacy_oracle_random(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            prior, obs = random_problem(rng, rng.integers(1, 6), rng.integers(1, 5))
            sol = map_solve(prior, obs)
            np.testing.assert_allclose(sol.point, conjugacy_mean(prior, obs), atol=1e-10)
            assert sol.optimality_residual < 1e-10

    def test_degenerate_prior_stays_on_support(self):
        prior = GaussianMeasure(np.zeros(2), SpectralOperator(np.array([1.0, 0.0])))
        obs = observation([[1.0, 1.0]], [1.0], [2.0])
        sol = map_solve(prior, obs)
        assert sol.point[1] == 0.0  # no mass off the support line
        np.testing.assert_allclose(sol.point, conjugacy_mean(prior, obs), atol=1e-12)

    def test_affine_dependence_on_data(self):
        rng = np.random.default_rng(4)
        prior, obs = random_problem(rng, 4, 3)

        def solve_for(y):
            return map_solve(
                prior, observation(obs.matrix, obs.noise_cov.eigenvalues, y)).point

        y0, y1, y2 = rng.normal(size=(3, 3))
        lhs = solve_for(y1 + y2 - y0)
        rhs = solve_for(y1) + solve_for(y2) - solve_for(y0)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


class TestBesovSolver:
    def test_zero_potential_returns_zero(self):
        prior = BesovMeasure(1.0, 1, 1.0, 3)
        pot = Potential(eval=lambda u: 0.0, gradient=lambda u: np.zeros(3), dim=3,
                        lipschitz_grad=1.0)
        sol = map_solve_besov(prior, pot)
        np.testing.assert_array_equal(sol.point, np.zeros(3))

    def test_scalar_soft_threshold(self):
        prior = BesovMeasure(0.5, 1, 1.0, 1)  # gamma_1 = 1
        sol = map_solve_besov_linear(prior, observation([[1.0]], [1.0], [2.0]))
        assert sol.point[0] == pytest.approx(1.0, abs=1e-9)
        assert sol.optimality_residual < 1e-8

    def test_matches_coordinate_descent_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(15):
            prior, obs = random_problem(rng, 5, 4, prior="besov")
            sol = map_solve_besov_linear(prior, obs)
            oracle = cd_oracle(obs, prior.gamma)
            np.testing.assert_allclose(sol.point, oracle, atol=1e-6)

    def test_kkt_residual_at_solution(self):
        rng = np.random.default_rng(6)
        prior, obs = random_problem(rng, 6, 4, prior="besov")
        sol = map_solve_besov_linear(prior, obs)
        pot = quadratic_potential(obs)
        res = kkt_residual(pot.gradient(sol.point), sol.point, 1.0 / prior.gamma)
        assert res < 1e-8
        assert "not-converged" not in sol.flags

    def test_map_is_argmin_of_posterior_functional(self):
        rng = np.random.default_rng(7)
        prior, obs = random_problem(rng, 4, 3, prior="besov")
        sol = map_solve_besov_linear(prior, obs)
        post = posterior_om(prior_om(prior), quadratic_potential(obs))
        best = post(sol.point)
        for _ in range(1000):
            assert best <= post(sol.point + 0.5 * rng.normal(size=4)) + 1e-12

    def test_non_unique_minimiser_flagged(self):
        # gamma = 1: with two equal columns every split of the coefficient
        # between them has the same objective
        prior = BesovMeasure(0.5, 1, 1.0, 2)
        np.testing.assert_array_equal(prior.gamma, [1.0, 1.0])
        opts = ProxOpts(check_uniqueness=True)
        equal = map_solve(prior, observation([[1.0, 1.0], [0.5, 0.5]], [1.0, 1.0],
                                             [2.0, 1.0]), opts)
        assert "non-unique-minimiser" in equal.flags
        distinct = map_solve(prior, observation([[1.0, 0.3], [0.5, -0.2]], [1.0, 1.0],
                                                [2.0, 1.0]), opts)
        assert "non-unique-minimiser" not in distinct.flags

    def test_stops_on_active_set_certificate(self):
        # a sparse problem drawn like acceptance criterion 10 on which plain
        # FISTA crawls to max_iter = 10^5: the exact solve on the settled
        # support certifies the minimiser within a few residual checks
        rng = np.random.default_rng(17)
        o = rng.normal(size=(5, 8))
        u_true = np.zeros(8)
        nnz = int(rng.integers(1, 5))
        u_true[rng.choice(8, nnz, replace=False)] = rng.normal(size=nnz) * 2
        y = o @ u_true + 0.1 * rng.normal(size=5)
        obs = observation(o, rng.uniform(0.5, 2.0, 5), y)
        prior = BesovMeasure(float(rng.uniform(0.6, 1.4)), 1, 1.0, 8)
        sol = map_solve_besov_linear(prior, obs)
        assert sol.iterations <= 200
        assert sol.solver == "fista+active-set-polish"
        assert sol.flags == ()
        res = kkt_residual(quadratic_potential(obs).gradient(sol.point), sol.point,
                           1.0 / prior.gamma)
        assert res == sol.optimality_residual < ProxOpts().tol
        np.testing.assert_allclose(sol.point, cd_oracle(obs, prior.gamma), atol=1e-6)

    def test_genuine_stall_stays_visible(self):
        prior, obs = random_problem(np.random.default_rng(6), 6, 4, prior="besov")
        # the generic solver has no second certificate
        opts = ProxOpts(max_iter=20)
        assert map_solve_besov(prior, quadratic_potential(obs), opts).flags == ("not-converged",)
        # one residual check: no sign pattern to compare, so no polish
        stalled = map_solve_besov_linear(prior, obs, ProxOpts(max_iter=1))
        assert stalled.solver == "fista-backtracking"
        assert stalled.iterations == 1
        assert stalled.optimality_residual >= ProxOpts().tol
        assert stalled.flags == ("not-converged",)

    def test_linear_solve_skips_the_finite_difference_check(self, monkeypatch):
        # the solver's own misfit has an analytic gradient; a Potential that
        # a caller or quadratic_potential builds is still checked
        calls = []
        central = bip._central_diff
        monkeypatch.setattr(bip, "_central_diff", lambda f, u: calls.append(u) or central(f, u))
        prior, obs = random_problem(np.random.default_rng(6), 6, 4, prior="besov")
        map_solve_besov_linear(prior, obs, ProxOpts(check_uniqueness=True))
        assert calls == []
        quadratic_potential(obs)
        assert len(calls) == 5

    def test_gradient_required(self):
        prior = BesovMeasure(1.0, 1, 1.0, 2)
        pot = Potential(eval=lambda u: 0.0, gradient=None, dim=2)
        with pytest.raises(InputError):
            map_solve_besov(prior, pot)


class TestPerturbation:
    def test_zero_data_schedule_constant(self):
        rng = np.random.default_rng(8)
        prior, obs = random_problem(rng, 3, 2)
        rep = perturbation_experiment("data", prior, obs, lambda n: obs.data,
                                      list(range(1, 13)))
        assert all(e.distance_to_limit < 1e-12 for e in rep.entries)
        assert rep.mode_convergence.verdict == "pass"

    def test_data_shift_decays_linearly(self):
        rng = np.random.default_rng(9)
        prior, obs = random_problem(rng, 3, 3)
        direction = np.array([1.0, 0.0, 0.0])
        rep = perturbation_experiment("data", prior, obs,
                                      lambda n: obs.data + direction / n,
                                      [1, 2, 4, 8, 16, 32, 64, 128])
        d = np.array([e.distance_to_limit for e in rep.entries])
        # map is affine in the data, so distance is exactly c / n
        np.testing.assert_allclose(d[:-1] / d[1:], 2.0 * np.ones(len(d) - 1), rtol=1e-8)
        assert "potential_continuous_convergence" in rep.prerequisite_probes

    def test_data_members_skip_the_finite_difference_check(self, monkeypatch):
        # only the limit potential is a Potential, checked at 5 points; the 32
        # members' misfits give the probe the values their Potentials would
        prior, obs = random_problem(np.random.default_rng(13), 10, 6, prior="besov")
        direction = np.eye(1, 6, 0).ravel()
        schedule = lambda n: obs.data + direction / n
        indices = list(range(1, 33))
        calls, central = [], bip._central_diff
        monkeypatch.setattr(bip, "_central_diff", lambda f, u: calls.append(u) or central(f, u))
        rep = perturbation_experiment("data", prior, obs, schedule, indices)
        assert len(calls) == 5
        pots = [quadratic_potential(observation(obs.matrix, obs.noise_cov.eigenvalues,
                                                schedule(n))) for n in indices]
        ref = continuous_convergence_probe(pots, quadratic_potential(obs),
                                           [rep.limit_solution.point], indices)
        probe = rep.prerequisite_probes["potential_continuous_convergence"]
        np.testing.assert_array_equal(probe[0].suprema, ref[0].suprema)
        assert probe[0].verdict == ref[0].verdict

    def test_projection_members_skip_the_finite_difference_check(self, monkeypatch):
        # each member is the limit potential's value on P_n u; only the limit
        # potential is a Potential, checked at 5 points, not 5 more per member
        prior, obs = random_problem(np.random.default_rng(14), 10, 6)
        indices = list(range(1, 11))
        calls, central = [], bip._central_diff
        monkeypatch.setattr(bip, "_central_diff", lambda f, u: calls.append(u) or central(f, u))
        rep = perturbation_experiment("potential_projection", prior, obs, lambda n: n, indices)
        assert len(calls) == 5
        limit_pot = quadratic_potential(obs)
        ref = continuous_convergence_probe([projected_potential(limit_pot, n) for n in indices],
                                           limit_pot, [rep.limit_solution.point], indices)
        probe = rep.prerequisite_probes["potential_continuous_convergence"]
        np.testing.assert_array_equal(probe[0].suprema, ref[0].suprema)
        assert probe[0].verdict == ref[0].verdict

    def test_projection_experiment_reaches_limit(self):
        rng = np.random.default_rng(10)
        prior, obs = random_problem(rng, 5, 4)
        rep = perturbation_experiment("potential_projection", prior, obs,
                                      lambda n: n, [1, 2, 3, 4, 5])
        assert rep.entries[-1].distance_to_limit == 0.0

    def test_prior_family_besov(self):
        rng = np.random.default_rng(11)
        prior, obs = random_problem(rng, 6, 4, prior="besov")
        schedule = lambda n: BesovMeasure(prior.s + (-1.0) ** n / n, prior.d,
                                          prior.eta, prior.dim)
        rep = perturbation_experiment("prior", prior, obs, schedule,
                                      [4, 8, 16, 32, 64, 128, 256, 512])
        dists = [e.distance_to_limit for e in rep.entries]
        assert dists[-1] < 1e-3
        assert rep.prerequisite_probes["prior_recovery_max_gap"] < 1e-10

    def test_prior_family_on_a_short_doubling_schedule(self):
        # six members: the liminf probe extrapolates from a window of three
        rng = np.random.default_rng(11)
        prior, obs = random_problem(rng, 6, 4, prior="besov")
        schedule = lambda n: BesovMeasure(prior.s + (-1.0) ** n / n, prior.d,
                                          prior.eta, prior.dim)
        rep = perturbation_experiment("prior", prior, obs, schedule, [1, 2, 4, 8, 16, 32])
        assert len(rep.entries) == 6

    def test_unknown_kind(self):
        rng = np.random.default_rng(12)
        prior, obs = random_problem(rng, 2, 2)
        with pytest.raises(InputError):
            perturbation_experiment("bogus", prior, obs, lambda n: obs.data, [1])


class _RotatedBesov(BesovMeasure):
    basis = property(lambda self: np.array([[0.6, -0.8], [0.8, 0.6]]))


class _ShiftedBesov(BesovMeasure):
    mean = property(lambda self: np.array([0.5, 0.0]))


@pytest.mark.parametrize("prior", [_RotatedBesov(1.0, 1, 1.0, 2), _ShiftedBesov(1.0, 1, 1.0, 2)],
                         ids=["rotated", "shifted"])
def test_weighted_l1_rules_refuse_a_form_they_cannot_read(prior):
    # the rules read a Laplace-factor prior as sum_k |u_k| / gamma_k, which
    # is its functional only when it is centred in the coordinate basis
    obs = observation([[1.0, 0.5]], [0.1], [3.0])
    plain = map_solve(BesovMeasure(1.0, 1, 1.0, 2), obs).point  # (2.9, 0)
    assert prior_om(prior)(plain) != prior_om(BesovMeasure(1.0, 1, 1.0, 2))(plain)
    for solve in (lambda: map_solve(prior, obs),
                  lambda: map_solve_besov(prior, quadratic_potential(obs)),
                  lambda: map_solve_besov_linear(prior, obs),
                  lambda: constrained_prior_minimum(prior, obs)):
        with pytest.raises(InputError, match="centred prior in the coordinate basis"):
            solve()


class TestSmallNoise:
    def test_gaussian_constrained_point(self):
        prior = GaussianMeasure(np.zeros(2), SpectralOperator(np.ones(2)))
        obs = observation([[1.0, 1.0]], [1.0], [1.0])
        star = constrained_prior_minimum(prior, obs)
        np.testing.assert_allclose(star, [0.5, 0.5], atol=1e-12)
        rep = small_noise_experiment(prior, obs, [1, 10, 100, 1000, 10000])
        assert rep.distances[-1] < 1e-3
        assert not rep.gamma_liminf_asserted

    def test_besov_constrained_point_weighted(self):
        # weights (1, 2^(-1/2)): the first coordinate is cheaper, so the
        # constrained minimiser puts all mass there
        prior = BesovMeasure(1.0, 1, 1.0, 2)
        obs = observation([[1.0, 1.0]], [1.0], [1.0])
        star = constrained_prior_minimum(prior, obs)
        np.testing.assert_allclose(star, [1.0, 0.0], atol=1e-9)

    def test_besov_brute_force_on_solution_line(self):
        prior = BesovMeasure(1.0, 1, 1.0, 2)
        obs = observation([[1.0, 1.0]], [1.0], [1.0])
        star = constrained_prior_minimum(prior, obs)
        fn = prior_om(prior)
        best = min(fn(np.array([1.0 - a, a])) for a in np.linspace(-2, 2, 100001))
        assert fn(star) <= best + 1e-9

    def test_pointwise_table_diverges_off_feasible_set(self):
        prior = GaussianMeasure(np.zeros(2), SpectralOperator(np.ones(2)))
        obs = observation([[1.0, 1.0]], [1.0], [1.0])
        rep = small_noise_experiment(prior, obs, [1, 10, 100],
                                     probe_points=[np.array([0.5, 0.5]),
                                                   np.array([0.0, 0.0])])
        feasible, infeasible = rep.pointwise_table
        assert feasible["phi"] == pytest.approx(0.0, abs=1e-12)
        assert np.all(np.diff(feasible["values"]) == 0.0)
        assert infeasible["values"][-1] > infeasible["values"][0]

    def test_n_must_be_positive(self):
        prior = GaussianMeasure(np.zeros(1), SpectralOperator(np.ones(1)))
        obs = observation([[1.0]], [1.0], [1.0])
        with pytest.raises(InputError):
            small_noise_experiment(prior, obs, [0, 1])
