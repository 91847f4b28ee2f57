"""Potentials, MAP solvers, and the perturbation/small-noise experiments."""

import math

import numpy as np
import pytest

from ommap import bip, om
from ommap import (BesovMeasure, GaussianMeasure, InputError, LinearObservation,
                   NumericsError, ParameterError, Potential, ProxOpts,
                   SpectralOperator, constrained_prior_minimum, continuous_convergence_probe,
                   kkt_residual, map_solve, map_solve_besov, map_solve_besov_linear,
                   perturbation_experiment, posterior_om, prior_om, project,
                   projected_potential, quadratic_potential, small_noise_experiment)
from l1_reference import basis_pursuit, coordinate_descent
from pointwise import pointwise


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


class TestFiniteParameters:
    @pytest.mark.parametrize("matrix,data", [([[1.0, 0.0], [0.0, 1.0]], [math.nan, 1.0]),
                                             ([[1.0, math.inf], [0.0, 1.0]], [0.5, 1.0]),
                                             ([[1.0, 0.0], [math.nan, 1.0]], [0.5, 1.0])],
                             ids=["nan-data", "inf-matrix", "nan-matrix"])
    def test_observation_refuses_non_finite_entries(self, matrix, data):
        with pytest.raises(InputError, match="finite"):
            observation(matrix, [1.0, 1.0], data)

    @pytest.mark.parametrize("mean", [[math.nan, 0.0], [0.0, -math.inf]])
    def test_gaussian_refuses_a_non_finite_mean(self, mean):
        with pytest.raises(InputError, match="finite"):
            GaussianMeasure(np.array(mean), SpectralOperator(np.ones(2)))


class TestPotential:
    def test_gradient_validated_against_finite_differences(self):
        pointwise(lambda u: float(u @ u), 3, gradient=lambda u: 2.0 * u)
        with pytest.raises(ParameterError):
            pointwise(lambda u: float(u @ u), 3, gradient=lambda u: 3.0 * u)

    @pytest.mark.parametrize("scale", [1e5, 1e6])
    def test_exact_gradient_accepted_at_large_data(self, scale):
        # the misfit's values (about scale^2 / 2) lose digits at step 1e-6:
        # relative disagreements of 3.7e-6 and 5.5e-6, within their round-off
        data = np.array([scale, 5.0])
        obs = observation(np.eye(2), [1.0, 1.0], data)
        pot = quadratic_potential(obs)
        np.testing.assert_array_equal(pot.gradient(np.zeros(2)), -data)
        prior = GaussianMeasure(np.zeros(2), SpectralOperator(np.ones(2)))
        rep = small_noise_experiment(prior, obs, [1, 10, 100])
        np.testing.assert_allclose(rep.constrained_point, data, rtol=1e-12)
        # at n, the minimiser of n |u - y|^2 / 2 + |u|^2 / 2 is n y / (n + 1)
        for n, point in zip(rep.n_values, rep.points):
            np.testing.assert_allclose(point, n * data / (n + 1), rtol=1e-12)

    @pytest.mark.parametrize("scale", [1.0, 1e5, 1e6])
    def test_gradient_off_by_1e_3_refused_at_every_data_scale(self, scale):
        # the misfit's kernel and exact gradient, unchecked
        kernel, grad = bip._misfit(np.eye(2), np.array([scale, 5.0]))
        with pytest.raises(ParameterError, match="finite differences"):
            Potential(kernel, lambda u: (1.0 + 1e-3) * grad(u), 2)

    @pytest.mark.parametrize("value", [np.zeros(1), np.zeros(4), np.zeros((3, 1)), 0.0],
                             ids=["short", "long", "column", "scalar"])
    def test_gradient_of_the_wrong_shape_is_refused(self, value):
        # a (1,) zero gradient of a constant would pass a broadcast comparison
        # with the finite differences, and the solver would fail on it later
        with pytest.raises(ParameterError, match=r"gradient has shape .*expected \(3,\)"):
            pointwise(lambda u: 0.0, 3, gradient=lambda u: value)

    def test_quadratic_values(self):
        obs = observation([[1.0]], [1.0], [2.0])
        pot = quadratic_potential(obs)
        assert pot.eval(np.array([2.0])) == 0.0
        np.testing.assert_allclose(pot.gradient(np.array([2.0])), [0.0])
        assert pot.eval(np.array([0.0])) == pytest.approx(2.0)

    def test_quadratic_gradient_random(self):
        rng = np.random.default_rng(0)
        _, obs = random_problem(rng, 4, 3)
        pot = quadratic_potential(obs)
        u = rng.normal(size=4)
        h = 1e-6
        fd = np.array([(pot.eval(u + h * e) - pot.eval(u - h * e)) / (2 * h)
                       for e in np.eye(4)])
        g = pot.gradient(u)
        assert np.linalg.norm(g - fd) < 1e-6 * max(1.0, np.linalg.norm(g))

    def test_lower_bound_sampled(self):
        rng = np.random.default_rng(1)
        _, obs = random_problem(rng, 3, 2)
        pot = quadratic_potential(obs)
        for _ in range(1000):
            assert pot.eval(rng.normal(size=3) * 3) >= 0.0

    @pytest.mark.parametrize("dim", [1, 2, 6, 20])
    def test_values_rows_are_eval_bit_for_bit(self, dim):
        # each row of the stacked products has the bits of its one-row
        # products, and eval has the bits of w_y - W @ u and r @ r
        rng = np.random.default_rng(30 + dim)
        _, obs = random_problem(rng, dim, 3)
        w_mat, w_y = obs.whitened()
        pot = quadratic_potential(obs)
        proj = projected_potential(pot, max(1, dim // 2))
        pts = 2.0 * rng.normal(size=(50, dim))
        for p in (pot, proj):
            np.testing.assert_array_equal(p.values(pts), [p.eval(u) for u in pts])
        for u in pts:
            r = w_y - w_mat @ u
            assert pot.eval(u) == 0.5 * float(r @ r)
            assert proj.eval(u) == pot.eval(project(u, max(1, dim // 2)))

    def test_values_refuses_a_wrong_shape(self):
        pot = quadratic_potential(observation([[1.0, 2.0]], [1.0], [0.5]))
        with pytest.raises(InputError, match=r"\(n, 2\) array"):
            pot.values(np.zeros((4, 3)))

    def test_gradient_check_reads_each_point_in_one_kernel_call(self):
        obs = random_problem(np.random.default_rng(31), 6, 3)[1]
        kernel, shapes = quadratic_potential(obs).kernel, []
        pot = Potential(lambda pts: shapes.append(pts.shape) or kernel(pts),
                        quadratic_potential(obs).gradient, 6)
        assert shapes == [(12, 6)] * 5
        with pytest.raises(ParameterError):
            Potential(kernel, lambda u: 2.0 * pot.gradient(u), 6)

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
        assert proj.eval(u) == pot.eval(u_cut)
        assert proj.gradient(u)[3] == 0.0
        # the projection's range rule refuses n when the potential is built
        for n in (0, 5):
            with pytest.raises(InputError, match=rf"projection dimension {n} out of range \[1, 4\]"):
                projected_potential(pot, n)


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
        pot = pointwise(lambda u: 0.0, 3, gradient=lambda u: np.zeros(3))
        sol = map_solve_besov(prior, pot)
        np.testing.assert_array_equal(sol.point, np.zeros(3))

    def test_scalar_soft_threshold(self):
        prior = BesovMeasure(0.5, 1, 1.0, 1)  # gamma_1 = 1
        sol = map_solve_besov_linear(prior, observation([[1.0]], [1.0], [2.0]))
        assert sol.point[0] == pytest.approx(1.0, abs=1e-9)
        assert sol.optimality_residual < 1e-8

    def test_diagonal_map_far_below_the_path_start(self):
        # lam_max = 1e10 lies 1e10 above the weight: the path still joins
        # column 2 at its own correlation and ends at the soft-threshold point
        prior = BesovMeasure(1.0, 1, 1.0, 2)
        data = np.array([1e10, 5.0])
        sol = map_solve(prior, observation(np.eye(2), [1.0, 1.0], data))
        np.testing.assert_allclose(sol.point, data - 1.0 / prior.gamma, rtol=1e-15, atol=0)
        assert sol.flags == ()

    def test_matches_coordinate_descent_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(15):
            prior, obs = random_problem(rng, 5, 4, prior="besov")
            sol = map_solve_besov_linear(prior, obs)
            oracle = coordinate_descent(obs, prior.gamma)
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
        best = post.eval(sol.point)
        for _ in range(1000):
            assert best <= post.eval(sol.point + 0.5 * rng.normal(size=4)) + 1e-12

    def test_non_unique_minimiser_flagged(self):
        # gamma = 1: with two equal columns every split of the coefficient
        # between them has the same objective
        prior = BesovMeasure(0.5, 1, 1.0, 2)
        np.testing.assert_array_equal(prior.gamma, [1.0, 1.0])
        equal = map_solve(prior, observation([[1.0, 1.0], [0.5, 0.5]], [1.0, 1.0],
                                             [2.0, 1.0]))
        assert "non-unique-minimiser" in equal.flags
        distinct = map_solve(prior, observation([[1.0, 0.3], [0.5, -0.2]], [1.0, 1.0],
                                                [2.0, 1.0]))
        assert "non-unique-minimiser" not in distinct.flags
        # columns equal once scaled by gamma: the minimisers form a segment,
        # and the flag needs no option
        prior = BesovMeasure(1.0, 1, 1.0, 2)
        obs = observation([1.0 / prior.gamma], [0.01], [1.0])
        sol = map_solve(prior, obs)
        assert "non-unique-minimiser" in sol.flags
        assert "not-converged" not in sol.flags
        assert sol.optimality_residual < 1e-12

    def test_proximal_newton_certifies_criterion_10_problems_at_the_linear_point(self):
        # 200 problems drawn like acceptance criterion 10: the general solver
        # on the quadratic potential certifies every point, by a residual
        # recomputed here from the potential's gradient, and lands on the
        # homotopy's exact point
        rng = np.random.default_rng(10)
        for _ in range(200):
            k, j = int(rng.integers(2, 21)), int(rng.integers(1, 11))
            o = rng.normal(size=(j, k))
            u_true = np.zeros(k)
            nnz = int(rng.integers(1, min(4, k) + 1))
            u_true[rng.choice(k, nnz, replace=False)] = rng.normal(size=nnz) * 2
            obs = observation(o, rng.uniform(0.5, 2.0, j), o @ u_true + 0.1 * rng.normal(size=j))
            prior = BesovMeasure(float(rng.uniform(0.6, 1.4)), 1, 1.0, k)
            pot = quadratic_potential(obs)
            sol = map_solve_besov(prior, pot, ProxOpts(tol=1e-12))
            assert sol.solver == "proximal-newton"
            assert sol.flags == ()
            assert kkt_residual(pot.gradient(sol.point), sol.point,
                                1.0 / prior.gamma) == sol.optimality_residual <= 1e-12
            exact = map_solve_besov_linear(prior, obs)
            assert exact.flags == ()
            assert exact.optimality_residual <= 1e-12
            np.testing.assert_allclose(sol.point, exact.point, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("a", [0.1, 0.5, 2.0])
    def test_separable_cubic_points_are_roots_of_their_branch(self, a):
        # G(u)_k = u_k + a u_k^3 observed directly: the objective separates,
        # and a nonzero coordinate x of sign s is stationary iff it is a root
        # of (x + a x^3 - y)(1 + 3 a x^2) + s sigma^2 / gamma, a degree-5
        # polynomial; zero is stationary iff |y| / sigma^2 <= 1 / gamma.  The
        # problem is nonconvex, and the certificate is stationarity only
        rng = np.random.default_rng(2014)
        for _ in range(20):
            k = int(rng.integers(2, 9))
            y, var = 3.0 * rng.normal(size=k), rng.uniform(0.5, 2.0, k)
            prior = BesovMeasure(float(rng.uniform(0.6, 1.4)), 1, 1.0, k)
            gamma = prior.gamma
            pot = Potential(
                lambda pts: 0.5 * ((y - pts - a * pts ** 3) ** 2 / var).sum(axis=1),
                lambda u: -(y - u - a * u ** 3) * (1.0 + 3.0 * a * u * u) / var, k)
            sol = map_solve_besov(prior, pot, ProxOpts(tol=1e-12))
            assert sol.flags == ()
            for x, yk, vk, gk in zip(sol.point, y, var, gamma):
                if x == 0.0:
                    assert abs(yk) / vk <= 1.0 / gk
                    continue
                poly = [3.0 * a * a, 0.0, 4.0 * a, -3.0 * a * yk, 1.0,
                        -yk + math.copysign(vk / gk, x)]
                assert np.min(np.abs(x - np.roots(poly))) <= 1e-8

    def test_step_cap_on_a_nonconvex_potential(self):
        # the cubic forward map O(u + u^3/2): every cap below the steps the
        # run needs stops it flagged not-converged, after that many steps
        # once the cap covers the 5 homotopy events of its first step, and
        # at that first step, where it began, before
        rng = np.random.default_rng(1010)
        o, var, y = rng.normal(size=(4, 6)), rng.uniform(0.5, 2.0, 4), 3.0 * rng.normal(size=4)
        pot = Potential(
            lambda pts: 0.5 * (((pts + 0.5 * pts ** 3) @ o.T - y) ** 2 / var).sum(axis=1),
            lambda u: (1.0 + 1.5 * u * u) * (o.T @ ((o @ (u + 0.5 * u ** 3) - y) / var)), 6)
        prior = BesovMeasure(1.0, 1, 1.0, 6)
        full = map_solve_besov(prior, pot)
        assert full.flags == () and full.iterations > 6
        for cap in range(1, full.iterations):
            capped = map_solve_besov(prior, pot, ProxOpts(max_iter=cap))
            assert capped.flags == ("not-converged",)
            if cap < 5:
                assert capped.iterations == 1
                np.testing.assert_array_equal(capped.point, np.zeros(6))
            else:
                assert capped.iterations == cap

    def test_tol_below_the_gradients_round_off_stops_at_once(self):
        # the cubic forward map O(u + u^3/2) on 8 coordinates: its gradient's
        # round-off keeps the residual near 1e-12, so tol = 1e-13 is out of
        # reach; the run ends at the first step of round-off size, flagged,
        # a few steps after the point that certifies at tol = 1e-10
        rng = np.random.default_rng(6)
        o, var = rng.normal(size=(6, 8)), rng.uniform(0.5, 2.0, 6)
        u_true = np.zeros(8)
        u_true[:3] = 2.0 * rng.normal(size=3)
        y = o @ (u_true + 0.5 * u_true ** 3) + 0.1 * rng.normal(size=6)
        pot = Potential(
            lambda pts: 0.5 * (((pts + 0.5 * pts ** 3) @ o.T - y) ** 2 / var).sum(axis=1),
            lambda u: (1.0 + 1.5 * u * u) * (o.T @ ((o @ (u + 0.5 * u ** 3) - y) / var)), 8)
        prior = BesovMeasure(1.0, 1, 1.0, 8)
        loose = map_solve_besov(prior, pot, ProxOpts(tol=1e-10))
        assert loose.flags == ()
        tight = map_solve_besov(prior, pot, ProxOpts(tol=1e-13))
        assert tight.flags == ("not-converged",)
        assert 1e-13 <= tight.optimality_residual < 1e-10
        assert tight.iterations <= loose.iterations + 5
        np.testing.assert_allclose(tight.point, loose.point, rtol=0, atol=1e-10)

    def test_drop_and_rejoin_with_the_other_sign(self):
        # on this path u_2 joins positive, drops at zero and joins again
        # negative: four events, the last of which a rule that kept a dropped
        # coordinate out of the next piece altogether would miss
        prior = BesovMeasure(0.5, 1, 1.0, 2)  # gamma = 1
        obs = observation([[-0.4, -0.2], [-0.5, -2.9], [0.1, -1.1]], np.ones(3),
                          [-4.0, -2.6, 2.9])
        sol = map_solve_besov_linear(prior, obs)
        assert sol.iterations == 4
        assert sol.flags == ()
        assert sol.point[1] < 0
        assert sol.optimality_residual < 1e-12
        np.testing.assert_allclose(sol.point, coordinate_descent(obs, prior.gamma), atol=1e-9)

    def test_stops_on_active_set_certificate(self):
        # a sparse problem drawn like acceptance criterion 10 on which plain
        # FISTA crawls to max_iter = 10^5: the homotopy's exact solve on its
        # final active set certifies the minimiser after a few events
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
        assert sol.solver == "lasso-homotopy"
        assert sol.flags == ()
        res = kkt_residual(quadratic_potential(obs).gradient(sol.point), sol.point,
                           1.0 / prior.gamma)
        assert res == sol.optimality_residual < ProxOpts().tol
        np.testing.assert_allclose(sol.point, coordinate_descent(obs, prior.gamma), atol=1e-6)

    def test_genuine_stall_stays_visible(self):
        prior, obs = random_problem(np.random.default_rng(6), 6, 4, prior="besov")
        # the general solver: max_iter = 1 allows one step, whose homotopy
        # stops after one of its two events short of the step's minimiser;
        # the partial path is not taken, and the run ends where it began
        capped = map_solve_besov(prior, quadratic_potential(obs), ProxOpts(max_iter=1))
        assert capped.iterations == 1
        np.testing.assert_array_equal(capped.point, np.zeros(6))
        assert capped.optimality_residual >= ProxOpts().tol
        assert capped.flags == ("not-converged",)
        assert map_solve_besov(prior, quadratic_potential(obs), ProxOpts(max_iter=2)).flags == ()
        # one homotopy event: the path stops short of its end
        stalled = map_solve_besov_linear(prior, obs, ProxOpts(max_iter=1))
        assert stalled.solver == "lasso-homotopy"
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
        map_solve_besov_linear(prior, obs)
        assert calls == []
        quadratic_potential(obs)
        assert len(calls) == 5

    def test_gradient_required(self):
        prior = BesovMeasure(1.0, 1, 1.0, 2)
        pot = pointwise(lambda u: 0.0, 2)
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
        # no potential is checked, the limit's included; the 32 members'
        # misfits give the probe the values their Potentials would
        prior, obs = random_problem(np.random.default_rng(13), 10, 6, prior="besov")
        direction = np.eye(1, 6, 0).ravel()
        schedule = lambda n: obs.data + direction / n
        indices = list(range(1, 33))
        calls, central = [], bip._central_diff
        monkeypatch.setattr(bip, "_central_diff", lambda f, u: calls.append(u) or central(f, u))
        rep = perturbation_experiment("data", prior, obs, schedule, indices)
        assert len(calls) == 0
        pots = [quadratic_potential(observation(obs.matrix, obs.noise_cov.eigenvalues,
                                                schedule(n))) for n in indices]
        ref = continuous_convergence_probe(pots, quadratic_potential(obs),
                                           [rep.limit_solution.point], indices)
        probe = rep.prerequisite_probes["potential_continuous_convergence"]
        np.testing.assert_array_equal(probe[0].suprema, ref[0].suprema)
        assert probe[0].verdict == ref[0].verdict

    def test_projection_members_skip_the_finite_difference_check(self, monkeypatch):
        # each member is the misfit of the observation with its columns past n
        # zeroed, the limit potential's value on P_n u; no potential is checked
        prior, obs = random_problem(np.random.default_rng(14), 10, 6)
        indices = list(range(1, 11))
        calls, central = [], bip._central_diff
        monkeypatch.setattr(bip, "_central_diff", lambda f, u: calls.append(u) or central(f, u))
        rep = perturbation_experiment("potential_projection", prior, obs, lambda n: n, indices)
        assert len(calls) == 0
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

    @pytest.mark.parametrize("kind", ["data", "potential_projection", "prior"])
    def test_empty_schedule_is_refused_before_any_solve(self, monkeypatch, kind):
        prior, obs = random_problem(np.random.default_rng(12), 3, 2)
        solves = []
        monkeypatch.setattr(bip, "map_solve", lambda *args: solves.append(args))
        with pytest.raises(InputError, match="perturbation schedule has no indices"):
            perturbation_experiment(kind, prior, obs, lambda n: pytest.fail("schedule read"), [])
        assert solves == []

    def test_out_of_range_projection_is_refused_by_project(self):
        prior, obs = random_problem(np.random.default_rng(12), 3, 2)
        with pytest.raises(InputError, match=r"projection dimension 4 out of range \[1, 3\]"):
            perturbation_experiment("potential_projection", prior, obs, lambda n: n + 2, [1, 2])

    @pytest.mark.parametrize("noise", ["diagonal", "rotated"])
    @pytest.mark.parametrize("prior_type", ["gaussian", "besov"])
    def test_projection_members_are_the_projected_limit_potential(self, monkeypatch, prior_type,
                                                                  noise):
        # a member's potential is the misfit of the observation with its columns
        # past n zeroed: bit for bit the limit misfit composed with the projection
        rng = np.random.default_rng(15)
        prior, obs = random_problem(rng, 5, 3, prior=prior_type)
        if noise == "rotated":
            q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
            obs = LinearObservation(obs.matrix, SpectralOperator(obs.noise_cov.eigenvalues, q),
                                    1e3 * obs.data)
        seen, probe = [], bip.continuous_convergence_probe
        monkeypatch.setattr(bip, "continuous_convergence_probe",
                            lambda pots, lim, *rest: seen.append((pots, lim)) or
                            probe(pots, lim, *rest))
        indices = [1, 2, 3, 4, 5]
        perturbation_experiment("potential_projection", prior, obs, lambda n: n, indices)
        [(pots, limit)] = seen
        full = quadratic_potential(obs)
        pts = rng.normal(size=(40, 5)) * 10.0 ** rng.uniform(-3, 3, size=(40, 1))
        assert limit.gradient is None
        assert limit.values(pts).tobytes() == full.values(pts).tobytes()
        for n, pot in zip(indices, pots):
            want = projected_potential(full, n)
            assert pot.gradient is None
            assert pot.values(pts).tobytes() == want.values(pts).tobytes()
            assert [pot.eval(u) for u in pts] == [want.eval(u) for u in pts]

    def test_prior_members_build_each_functional_once(self, monkeypatch):
        # the posterior family reads the om_family functionals: one per member
        # and one for the limit, n + 1 product functionals in all
        built, product = [], om._product_om
        monkeypatch.setattr(om, "_product_om", lambda mu: built.append(mu) or product(mu))
        prior, obs = random_problem(np.random.default_rng(11), 6, 4, prior="besov")
        schedule = lambda n: BesovMeasure(prior.s + (-1.0) ** n / n, prior.d, prior.eta,
                                          prior.dim)
        indices = [1, 2, 4, 8, 16, 32]
        perturbation_experiment("prior", prior, obs, schedule, indices)
        assert len(built) == len(indices) + 1


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
    assert prior_om(prior).eval(plain) != prior_om(BesovMeasure(1.0, 1, 1.0, 2)).eval(plain)
    for solve in (lambda: map_solve(prior, obs),
                  lambda: map_solve_besov(prior, quadratic_potential(obs)),
                  lambda: map_solve_besov_linear(prior, obs),
                  lambda: constrained_prior_minimum(prior, obs)):
        with pytest.raises(InputError, match="centred prior in the coordinate basis"):
            solve()


class TestSmallNoise:
    def test_empty_schedule_is_refused_before_any_solve(self, monkeypatch):
        prior, obs = random_problem(np.random.default_rng(12), 3, 2)
        rules = []
        monkeypatch.setattr(bip, "_factor_rule", lambda prior: rules.append(prior))
        with pytest.raises(InputError, match="noise-scaling schedule has no indices"):
            small_noise_experiment(prior, obs, [])
        assert rules == []

    @pytest.mark.parametrize("prior_type", ["gaussian", "besov"])
    def test_pointwise_table_skips_the_finite_difference_check(self, monkeypatch, prior_type):
        # the table reads the misfit's values, those of quadratic_potential
        calls, central = [], bip._central_diff
        monkeypatch.setattr(bip, "_central_diff", lambda f, u: calls.append(u) or central(f, u))
        prior, obs = random_problem(np.random.default_rng(17), 4, 2, prior=prior_type)
        rep = small_noise_experiment(prior, obs, [1, 10, 100])
        assert calls == []
        pot = quadratic_potential(obs)
        assert [row["phi"] for row in rep.pointwise_table] == \
            [pot.eval(np.array(row["x"])) for row in rep.pointwise_table]

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
        best = min(fn.eval(np.array([1.0 - a, a])) for a in np.linspace(-2, 2, 100001))
        assert fn.eval(star) <= best + 1e-9

    def test_pointwise_table_diverges_off_feasible_set(self):
        prior = GaussianMeasure(np.zeros(2), SpectralOperator(np.ones(2)))
        obs = observation([[1.0, 1.0]], [1.0], [1.0])
        rep = small_noise_experiment(prior, obs, [1, 10, 100])
        # the default table: the constrained point, then that point + 0.1
        feasible, infeasible = rep.pointwise_table
        assert feasible["phi"] == pytest.approx(0.0, abs=1e-12)
        assert np.all(np.diff(feasible["values"]) == 0.0)
        assert infeasible["values"][-1] > infeasible["values"][0]

    def test_flags_kept_per_n(self):
        # gamma = (1, 2^(-1/2)) and O = (1/gamma_1, 1/gamma_2): the two scaled
        # columns are equal, so every solve has a segment of minimisers
        prior = BesovMeasure(1, 1, 1, 2)
        obs = observation([1.0 / prior.gamma], [0.01], [1.0])
        n_list = [1, 10, 100, 1000, 10_000]
        rep = small_noise_experiment(prior, obs, n_list)
        assert rep.flags == [("non-unique-minimiser",)] * len(n_list)
        gauss = small_noise_experiment(GaussianMeasure(np.zeros(2), SpectralOperator(np.ones(2))),
                                       obs, n_list)
        assert gauss.flags == [()] * len(n_list)

    def test_besov_constrained_point_is_basis_pursuit_on_random_problems(self):
        # the homotopy's end as lam -> 0+ against the linear program, 500
        # problems of 2-12 unknowns and 1 to as many rows
        rng = np.random.default_rng(45)
        for _ in range(500):
            k = int(rng.integers(2, 13))
            prior, obs = random_problem(rng, k, int(rng.integers(1, k + 1)), prior="besov")
            star, ref = constrained_prior_minimum(prior, obs), basis_pursuit(obs, prior.scale)
            fn = prior_om(prior)
            assert np.linalg.norm(star - ref) <= 1e-10 * max(1.0, np.linalg.norm(ref))
            assert abs(fn.eval(star) - fn.eval(ref)) <= 1e-10 * fn.eval(ref)
            assert np.linalg.norm(obs.matrix @ star - obs.data) <= 1e-10

    def test_besov_one_row_limit(self):
        # every inactive correlation reaches 0 with the active one at the
        # path's end: that is the end, not a second column joining
        prior = BesovMeasure(1.0, 1, 1.0, 3)
        obs = observation([[1.0, 0.5, -0.25]], [1.0], [0.7])
        star = constrained_prior_minimum(prior, obs)
        np.testing.assert_allclose(star, basis_pursuit(obs, prior.scale), rtol=0, atol=1e-14)
        np.testing.assert_allclose(star, [0.7, 0.0, 0.0], rtol=0, atol=1e-15)

    def test_besov_three_row_limit_and_its_rate(self):
        # three active columns: O_A u_A = y gives (220, -152.5, 40) / 53, and
        # past the trajectory's last event its distance is c / n exactly
        prior = BesovMeasure(1.0, 1, 1.0, 4)
        obs = observation([[1.0, 0.4, 0.0, -0.3], [0.0, 1.0, 0.5, 0.2], [0.3, 0.0, 1.0, 0.6]],
                          [0.5, 1.0, 2.0], [3.0, -2.5, 2.0])
        n_list = [1, 10, 100, 1000, 10000]
        rep = small_noise_experiment(prior, obs, n_list)
        exact = np.array([220.0, -152.5, 40.0, 0.0]) / 53.0
        np.testing.assert_allclose(rep.constrained_point, exact, rtol=0, atol=1e-14)
        np.testing.assert_allclose(rep.constrained_point, basis_pursuit(obs, prior.scale),
                                   rtol=0, atol=1e-12)
        rate = np.array(rep.distances[1:]) * n_list[1:]
        np.testing.assert_allclose(rate, rate[0], rtol=1e-9)
        assert rate[0] == pytest.approx(6.08, abs=1e-3)
        assert rep.flags == [()] * len(n_list)

    def test_besov_trajectory_far_below_the_path_start(self):
        # at n = 1e7 column 2 joins at 7e-7, 1e-11 lam_max, above the weight 1e-7
        prior = BesovMeasure(1.0, 1, 1.0, 2)
        data = np.array([1e4, 1e-6])
        n_list = [1, 10 ** 7]
        rep = small_noise_experiment(prior, observation(np.eye(2), [1.0, 1.0], data), n_list)
        for n, point in zip(n_list, rep.points):
            exact = np.maximum(data - 1.0 / (n * prior.gamma), 0.0)
            np.testing.assert_allclose(point, exact, rtol=1e-9, atol=0)

    @pytest.mark.parametrize("matrix, data, exact", [
        ([[1.0, 0.0], [0.0, 1e-3]], [1.0, 1e-7], [1.0, 1e-4]),
        ([[1.0, 0.0], [0.0, 1.0]], [1.0, 1e-9], [1.0, 1e-9]),
    ], ids=["scaled-column", "small-datum"])
    def test_besov_limit_keeps_a_column_of_small_correlation(self, matrix, data, exact):
        # column 2 joins below _TIE lam_max, but column 1 alone leaves a
        # residual: a real join, which the limit must keep
        prior = BesovMeasure(1.0, 1, 1.0, 2)
        obs = observation(matrix, [1.0, 1.0], data)
        star = constrained_prior_minimum(prior, obs)
        np.testing.assert_allclose(star, exact, rtol=1e-12, atol=0)
        np.testing.assert_allclose(star, basis_pursuit(obs, prior.scale), rtol=1e-9, atol=0)

    @pytest.mark.parametrize("prior", [GaussianMeasure(np.zeros(2), SpectralOperator(np.ones(2))),
                                       BesovMeasure(1.0, 1, 1.0, 2)], ids=["gaussian", "besov1"])
    def test_an_observation_no_point_meets_is_refused(self, prior):
        obs = observation([[1.0, 0.0], [1.0, 0.0]], [1.0, 1.0], [1.0, 2.0])
        with pytest.raises(NumericsError, match="not attained"):
            constrained_prior_minimum(prior, obs)

    def test_n_must_be_positive(self):
        prior = GaussianMeasure(np.zeros(1), SpectralOperator(np.ones(1)))
        obs = observation([[1.0]], [1.0], [1.0])
        with pytest.raises(InputError):
            small_noise_experiment(prior, obs, [0, 1])
