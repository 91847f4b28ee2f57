"""Functionals, difference checks, domain probes, mode classification."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ommap import (BesovMeasure, CrossesMeasure, Density1D, GaussianMeasure,
                   InputError, LiminfOnlyMeasure, LinearObservation, OmFunctional,
                   OmNotStrongMeasure, Potential,
                   RatioOpts, SpectralOperator, WeightedSeqSpace,
                   ball_ratio_curve, classify_mode, density_om,
                   m_property_probe, om_difference_check, posterior_om,
                   prior_om, quadratic_potential, radius_schedule,
                   sup_ball_mass, weighted_norm)
from ommap import measures, om
from ommap.counterexamples import _mixture_density1d, _spike_density1d
from pinv_reference import in_range_sqrt, sqrt_apply, sqrt_pinv_apply
from pointwise import pointwise


def std_gaussian(k):
    return GaussianMeasure(np.zeros(k), SpectralOperator(np.ones(k)))


class TestGaussianFunctional:
    def test_anchor_is_zero_and_unique_minimum(self):
        mu = GaussianMeasure(np.array([0.5, -1.0]), SpectralOperator(np.array([2.0, 1.0])))
        fn = prior_om(mu)
        assert fn.eval(mu.mean) == 0.0
        rng = np.random.default_rng(0)
        for _ in range(50):
            u = mu.mean + rng.normal(size=2)
            assert fn.eval(u) > 0.0

    def test_halved_squared_preimage(self):
        mu = GaussianMeasure(np.zeros(2), SpectralOperator(np.array([4.0, 1.0])))
        assert prior_om(mu).eval(np.array([2.0, 0.0])) == pytest.approx(0.5, abs=1e-15)

    def test_off_range_is_infinite(self):
        mu = GaussianMeasure(np.zeros(2), SpectralOperator(np.array([4.0, 0.0])))
        fn = prior_om(mu)
        assert fn.eval(np.array([0.0, 1.0])) == math.inf
        assert not fn.domain_test(np.array([0.0, 1.0]))

    @given(st.floats(min_value=-4, max_value=4, allow_nan=False),
           st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_two_homogeneous_about_mean(self, c, seed):
        rng = np.random.default_rng(seed)
        mu = GaussianMeasure(rng.normal(size=3),
                             SpectralOperator(rng.uniform(0.5, 2.0, 3)))
        fn = prior_om(mu)
        h = rng.normal(size=3)
        lhs = fn.eval(mu.mean + c * h)
        rhs = c * c * fn.eval(mu.mean + h)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


class TestBesovFunctional:
    def test_values(self):
        mu = BesovMeasure(1.0, 1, 1.0, 4)
        fn = prior_om(mu)
        assert fn.eval(np.zeros(4)) == 0.0
        assert fn.eval(np.array([1.0, 0, 0, 0])) == 1.0
        assert fn.eval(np.array([1.0, 1.0, 0, 0])) == pytest.approx(1 + math.sqrt(2), abs=1e-14)

    @given(st.floats(min_value=-3, max_value=3, allow_nan=False),
           st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_one_homogeneous(self, c, seed):
        rng = np.random.default_rng(seed)
        mu = BesovMeasure(1.0, 1, 1.0, 5)
        fn = prior_om(mu)
        u = rng.normal(size=5)
        assert fn.eval(c * u) == pytest.approx(abs(c) * fn.eval(u), rel=1e-12, abs=1e-12)


def _reference_gaussian_om(mu, u) -> float:
    """One-point Cameron-Martin value from the spectral primitives."""
    v = u - mu.mean
    if not in_range_sqrt(mu.cov, v):
        return math.inf
    w = sqrt_pinv_apply(mu.cov, v)
    return 0.5 * float(w @ w)


class TestBatchValues:
    @given(st.integers(min_value=1, max_value=6), st.booleans(),
           st.integers(min_value=0, max_value=6),
           st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_gaussian_matches_reference(self, k, rotated, n_zero, seed):
        rng = np.random.default_rng(seed)
        eig = rng.uniform(0.3, 3.0, k)
        eig[:min(n_zero, k)] = 0.0
        basis = np.linalg.qr(rng.normal(size=(k, k)))[0] if rotated else None
        mu = GaussianMeasure(rng.normal(size=k), SpectralOperator(eig, basis))
        # rows in the Cameron-Martin range, then rows pushed off it along
        # the kernel directions (none when the covariance has full rank)
        inside = mu.mean + np.array([sqrt_apply(mu.cov, rng.normal(size=k)) for _ in range(7)])
        kernel = np.zeros(k)
        kernel[eig == 0.0] = rng.uniform(0.5, 2.0, int(np.sum(eig == 0.0)))
        off = inside[:3] + (kernel if basis is None else basis @ kernel)
        pts = np.vstack([inside, mu.mean, off]) if np.any(kernel) else \
            np.vstack([inside, mu.mean])
        fn = prior_om(mu)
        got = fn.values(pts)
        want = np.array([_reference_gaussian_om(mu, u) for u in pts])
        assert np.all(np.isfinite(got[:8]))
        assert np.all(np.isinf(got[8:]))
        np.testing.assert_array_equal(np.isinf(got), np.isinf(want))
        np.testing.assert_allclose(got[:8], want[:8], rtol=1e-12, atol=0)
        # the scalar eval is the one-row case of the same kernel; summation
        # order may differ with the row count, so only to rounding
        np.testing.assert_allclose([fn.eval(u) for u in pts], got, rtol=1e-12, atol=0)

    @given(st.integers(min_value=1, max_value=60),
           st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_besov_matches_reference(self, k, seed):
        rng = np.random.default_rng(seed)
        mu = BesovMeasure(float(rng.uniform(0.6, 1.4)), 1, 1.0, k)
        pts = rng.laplace(scale=mu.gamma, size=(9, k))
        pts[0] = 0.0
        fn = prior_om(mu)
        want = [weighted_norm(u, mu.coefficient_space()) for u in pts]
        np.testing.assert_allclose(fn.values(pts), want, rtol=1e-12, atol=0)

    def test_loop_fallback_matches_eval(self):
        box = Density1D(pdf=lambda x: 1.0 if 0.0 <= x <= 1.0 else 0.0, support=((0.0, 1.0),))
        fn = density_om(box, anchor=0.5)
        pts = np.array([[0.2], [0.9], [1.5], [-0.1]])
        np.testing.assert_array_equal(fn.values(pts), [0.0, 0.0, math.inf, math.inf])
        spike = density_om(_spike_density1d(5), anchor=0.2)
        pts = np.linspace(-2.0, 2.0, 11)[:, None]
        np.testing.assert_array_equal(spike.values(pts), [spike.eval(u) for u in pts])

    def test_shape_guard(self):
        fn = prior_om(std_gaussian(3))
        assert fn.values(np.zeros((0, 3))).shape == (0,)
        for bad in (np.zeros(3), np.zeros((2, 2))):
            with pytest.raises(InputError):
                fn.values(bad)

    @pytest.mark.parametrize("bad,message", [
        (np.zeros((1, 3)), r"expected a vector, got array of shape \(1, 3\)"),
        (np.zeros(2), "dimension mismatch: expected 3, got 2"),
        ([0.1, 0.2, 0.3, 0.4], "dimension mismatch: expected 3, got 4"),
        (0.5, "dimension mismatch: expected 3, got 1"),
        (np.float64(0.5), "dimension mismatch: expected 3, got 1")])
    def test_eval_refuses_anything_but_one_point(self, bad, message):
        fn = prior_om(std_gaussian(3))
        with pytest.raises(InputError, match=f"^{message}$"):
            fn.eval(bad)

    def test_eval_reads_sequences_and_a_scalar_at_k_1(self):
        u = np.array([0.3, -1.2, 0.7])
        fn = prior_om(GaussianMeasure(np.array([0.1, 0.0, -0.4]),
                                      SpectralOperator(np.array([2.0, 0.5, 1.5]))))
        want = float(fn.kernel(u[None, :])[0])
        assert fn.eval(u) == fn.eval(list(u)) == fn.eval(tuple(u)) == want
        assert fn.eval(u.astype(np.float32)) == float(fn.kernel(
            u.astype(np.float32).astype(float)[None, :])[0])
        one = prior_om(GaussianMeasure(np.array([0.2]), SpectralOperator(np.array([3.0]))))
        want = float(one.kernel(np.array([[1.7]]))[0])
        for scalar in (1.7, np.float64(1.7), np.array(1.7), [1.7], (1.7,), np.array([1.7])):
            assert one.eval(scalar) == want


class TestPosteriorFunctional:
    def test_zero_potential_is_identity(self):
        mu = std_gaussian(2)
        prior = prior_om(mu)
        post = posterior_om(prior, pointwise(lambda u: 0.0, 2))
        rng = np.random.default_rng(1)
        for _ in range(20):
            u = rng.normal(size=2)
            assert post.eval(u) == prior.eval(u)

    def test_scalar_posterior_minimiser(self):
        prior = prior_om(std_gaussian(1))
        post = posterior_om(prior, pointwise(lambda u: 0.5 * (2.0 - u[0]) ** 2, 1))
        xs = np.linspace(-1, 3, 4001)
        best = xs[np.argmin([post.eval(np.array([x])) for x in xs])]
        assert best == pytest.approx(1.0, abs=1e-3)

    def test_constant_shift(self):
        prior = prior_om(std_gaussian(1))
        post = posterior_om(prior, pointwise(lambda u: 7.0, 1))
        assert post.eval(np.array([0.3])) == pytest.approx(prior.eval(np.array([0.3])) + 7.0)

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_difference_identity(self, seed):
        rng = np.random.default_rng(seed)
        prior = prior_om(std_gaussian(3))
        phi = lambda u: float(np.sin(u[0]) + u[1] ** 2)
        post = posterior_om(prior, pointwise(phi, 3))
        x1, x2 = rng.normal(size=(2, 3))
        lhs = (post.eval(x1) - post.eval(x2)) - (prior.eval(x1) - prior.eval(x2))
        assert lhs == pytest.approx(phi(x1) - phi(x2), abs=1e-12)


def _posterior_priors():
    """(measure, points on its domain, points off it) for the posterior cases."""
    rng = np.random.default_rng(21)
    degenerate = _rotated_gaussian(5, 2, 22)
    on = degenerate.mean + np.array([sqrt_apply(degenerate.cov, g)
                                     for g in rng.normal(size=(8, 5))])
    off = degenerate.mean + rng.normal(size=(4, 5))
    return {
        "gaussian-diagonal": (GaussianMeasure(rng.normal(size=5),
                                              SpectralOperator(rng.uniform(0.5, 2.0, 5))),
                              rng.normal(size=(8, 5)), np.empty((0, 5))),
        "gaussian-rotated": (_rotated_gaussian(5, 0, 23), rng.normal(size=(8, 5)),
                             np.empty((0, 5))),
        "gaussian-degenerate": (degenerate, on, off),
        "besov1": (BesovMeasure(1.2, 1, 1.0, 5), rng.laplace(size=(8, 5)), np.empty((0, 5))),
    }


class TestPosteriorKernel:
    @pytest.mark.parametrize("name", ["gaussian-diagonal", "gaussian-rotated",
                                      "gaussian-degenerate", "besov1"])
    def test_eval_is_prior_plus_potential_bit_for_bit(self, name):
        mu, on, off = _posterior_priors()[name]
        rng = np.random.default_rng(24)
        obs = LinearObservation(rng.normal(size=(3, 5)), SpectralOperator(np.ones(3)),
                                rng.normal(size=3))
        misfit, seen = quadratic_potential(obs), []
        pot = Potential(lambda pts: seen.append(pts.copy()) or misfit.kernel(pts), None, 5)
        prior = prior_om(mu)
        post = posterior_om(prior, pot)
        for u in on:
            assert post.eval(u) == prior.eval(u) + pot.eval(u)
        seen.clear()
        for u in off:
            assert post.eval(u) == math.inf
        vals = post.values(np.vstack([on, off]))
        assert np.all(np.isfinite(vals[:len(on)])) and np.all(np.isinf(vals[len(on):]))
        # the potential read only the rows on the prior's domain
        assert len(seen) == 1 and np.array_equal(seen[0], on)

    def test_dimensions_must_agree(self):
        with pytest.raises(InputError, match="do not add"):
            posterior_om(prior_om(std_gaussian(2)), pointwise(lambda u: 0.0, 3))


class TestOmDifferenceCheck:
    def test_same_point(self):
        mu = std_gaussian(1)
        rep = om_difference_check(mu, prior_om(mu), np.zeros(1), np.zeros(1),
                                  radius_schedule(0.5, 8))
        assert rep.verdict == "pass"
        assert rep.expected == 1.0

    def test_1d_gaussian(self):
        mu = std_gaussian(1)
        rep = om_difference_check(mu, prior_om(mu), np.array([1.0]), np.array([0.0]),
                                  radius_schedule(0.5, 10),
                                  abs_tol=1e-3)
        assert rep.expected == pytest.approx(math.exp(-0.5))
        assert rep.verdict == "pass"

    def test_gaussian_2d_monte_carlo(self):
        mu = GaussianMeasure(np.zeros(2), SpectralOperator(np.array([4.0, 1.0])))
        sp = WeightedSeqSpace.unweighted(2.0, 2)
        rep = om_difference_check(
            mu, prior_om(mu), np.array([2.0, 0.0]), np.zeros(2),
            radius_schedule(0.2, 10), sp,
            RatioOpts(n_samples=40_000, seed=2), abs_tol=5e-3)
        assert rep.expected == pytest.approx(math.exp(-0.5))
        assert rep.verdict == "pass"

    def test_besov_k2(self):
        mu = BesovMeasure(1.0, 1, 1.0, 2)
        rep = om_difference_check(
            mu, prior_om(mu), np.array([1.0, 1.0]), np.zeros(2),
            radius_schedule(0.2, 10), None,
            RatioOpts(n_samples=60_000, seed=3), abs_tol=5e-3)
        assert rep.expected == pytest.approx(math.exp(-(1 + math.sqrt(2))))
        assert rep.verdict == "pass"

    def test_integer_spike_pairs(self):
        m = OmNotStrongMeasure()
        fn = m.om_functional()
        for k in (2, 3):
            rep = om_difference_check(
                m, fn, np.array([1.0]), np.array([float(k)]),
                radius_schedule(1e-8, 8, factor=4.0), None,
                RatioOpts(), abs_tol=1e-2)
            assert rep.expected == pytest.approx(float(k * k))
            assert rep.verdict == "pass"

    def test_requires_domain_points(self):
        mu = GaussianMeasure(np.zeros(2), SpectralOperator(np.array([1.0, 0.0])))
        with pytest.raises(InputError):
            om_difference_check(mu, prior_om(mu), np.array([0.0, 1.0]), np.zeros(2),
                                radius_schedule(0.5, 5))


class TestMPropertyProbe:
    def test_gaussian_point_mass_direction(self):
        mu = GaussianMeasure(np.zeros(2), SpectralOperator(np.array([1.0, 0.0])))
        rep = m_property_probe(mu, prior_om(mu), [np.array([0.0, 1.0])],
                               radius_schedule(0.4, 8),
                               WeightedSeqSpace.unweighted(2.0, 2),
                               RatioOpts(n_samples=5_000, seed=4))
        entry = rep.entries[0]
        assert entry.min_ratio == 0.0
        assert entry.verdict == "pass"

    def test_oscillating_measure_along_special_radii(self):
        m = LiminfOnlyMeasure(depth=40)
        fn = OmFunctional(lambda pts: np.where(np.abs(pts[:, 0] - 1.0) < 1e-12, 0.0, math.inf),
                          np.array([1.0]))
        radii = np.array([m.delta_radius(n) for n in range(1, 13)])
        rep = m_property_probe(m, fn, [np.array([-1.0])], radii)
        entry = rep.entries[0]
        np.testing.assert_allclose(
            entry.ratios, [math.ldexp(1.0, -(n + 2)) for n in range(1, 13)], rtol=1e-12)
        assert entry.verdict == "pass"

    def test_singular_spike_interior_point(self):
        m = OmNotStrongMeasure()
        fn = m.om_functional()
        radii = radius_schedule(1e-4, 8, factor=4.0)
        rep = m_property_probe(m, fn, [np.array([2.1])], radii)
        assert rep.entries[0].verdict == "pass"

    def test_refuses_an_empty_point_list(self):
        # a probe over nothing checks nothing: no all_pass over no entries
        mu = GaussianMeasure(np.zeros(2), SpectralOperator(np.array([1.0, 0.0])))
        with pytest.raises(InputError, match="outside_points is empty"):
            m_property_probe(mu, prior_om(mu), [], radius_schedule(0.5, 4))
        assert om.MPropertyReport(np.zeros(2), []).all_pass is False

    def test_rejects_domain_points(self):
        mu = std_gaussian(1)
        with pytest.raises(InputError):
            m_property_probe(mu, prior_om(mu), [np.zeros(1)], radius_schedule(0.5, 4))

    def test_full_rank_gaussian_has_no_off_domain_points(self):
        # refused from the functional's meta, before any point is tested
        mu = GaussianMeasure(np.zeros(2), SpectralOperator(np.array([1.0, 0.5])))
        with pytest.raises(InputError) as err:
            m_property_probe(mu, prior_om(mu), [np.array([0.0, 1.0])],
                             radius_schedule(0.5, 4))
        assert str(err.value) == ("the gaussian functional is finite on all of R^2 (no eigen "
                                  "coordinate is degenerate), so the measure has no "
                                  "off-domain points to probe")
        degenerate = GaussianMeasure(np.zeros(2), SpectralOperator(np.array([1.0, 0.0])))
        assert "finite_everywhere" not in prior_om(degenerate).meta

    def test_one_mass_table_for_every_point(self, monkeypatch):
        # the anchor and the three points share one Monte Carlo table, and
        # each curve is the one ball_ratio_curve draws for its point alone:
        # batches of one chunk each, drawn whole by the probe and by the curve
        mc_calls = []
        mc_mass_batches = measures._mc_mass_batches

        def spy(*args):
            mc_calls.append(args[1])
            return mc_mass_batches(*args)

        monkeypatch.setattr(measures, "_mc_mass_batches", spy)
        mu = GaussianMeasure(np.array([0.2, -0.1]), SpectralOperator(np.array([1.5, 0.0])))
        fn = prior_om(mu)
        pts = [np.array([0.2, 0.0]), np.array([-0.5, -0.25]), np.array([1.0, 0.05])]
        radii, space = radius_schedule(0.4, 6), WeightedSeqSpace.unweighted(2.0, 2)
        opts = RatioOpts(n_samples=2 * measures._MC_CHUNK * 20, n_batches=20, seed=7,
                         method="mc")
        rep = m_property_probe(mu, fn, pts, radii, space, opts)
        assert len(mc_calls) == 1
        for x, entry in zip(pts, rep.entries):
            curve = ball_ratio_curve(mu, x, fn.anchor, radii, space, opts)
            np.testing.assert_array_equal(entry.ratios, np.nan_to_num(curve.ratios))
            # the balls about each point reach the support at the larger radii only
            assert entry.ratios[0] > 0.0 and entry.ratios[-1] == 0.0
        assert rep.all_pass


class TestClassifyMode:
    def test_standard_gaussian_mean_is_strong_and_weak(self):
        mu = std_gaussian(1)
        comp = [np.array([x]) for x in (-1.0, -0.3, 0.4, 1.2)]
        res = classify_mode(mu, np.zeros(1), comp, radius_schedule(0.5, 8))
        assert res.strong == "yes"
        assert res.global_weak == "yes"
        assert res.weak_worst_ratio <= 1.0 + 1e-9

    def test_oscillation_breaks_weak_mode(self):
        m = LiminfOnlyMeasure(depth=40)
        radii = np.array([2.0 * m.delta_radius(n) for n in range(1, 13)])
        res = classify_mode(m, np.array([1.0]), [np.array([-1.0])], radii)
        assert res.global_weak == "no"
        assert res.weak_worst_ratio == pytest.approx(2.0, rel=1e-12)

    def test_strong_yes_implies_weak_yes(self):
        mu = std_gaussian(1)
        res = classify_mode(mu, np.zeros(1), [np.array([0.5])], radius_schedule(0.5, 8))
        if res.strong == "yes":
            assert res.global_weak == "yes"

    def test_mode_minimiser_correspondence_gaussian(self):
        # the argmin of the functional (the mean) is the classified mode
        # over a dense competitor grid
        mu = GaussianMeasure(np.array([0.7]), SpectralOperator(np.array([1.5])))
        fn = prior_om(mu)
        grid = [np.array([x]) for x in np.linspace(-2, 3, 41)]
        res = classify_mode(mu, np.array([0.7]), grid, radius_schedule(0.25, 8))
        assert res.global_weak == "yes"
        vals = [fn.eval(g) for g in grid]
        assert fn.eval(np.array([0.7])) <= min(vals) + 1e-12

    def test_mode_minimiser_correspondence_besov(self):
        mu = BesovMeasure(1.0, 1, 1.0, 1)
        fn = prior_om(mu)
        grid = [np.array([x]) for x in np.linspace(-1.5, 1.5, 31)]
        res = classify_mode(mu, np.zeros(1), grid, radius_schedule(0.25, 8))
        assert res.global_weak == "yes"
        assert fn.eval(np.zeros(1)) <= min(fn.eval(g) for g in grid) + 1e-12


class TestSupremumPaths:
    def test_refine_off_uses_the_mean(self):
        # the competitor set alone makes (0.5, 0) look like the supremum;
        # the ball at the mean has about 1 / 0.88 of its mass
        mu = GaussianMeasure(np.zeros(2), SpectralOperator(np.array([1.0, 0.5])))
        res = classify_mode(mu, np.array([0.5, 0.0]), [np.array([0.9, 0.3])],
                            radius_schedule(0.2, 3), WeightedSeqSpace.unweighted(math.inf, 2))
        assert res.strong == "no"
        np.testing.assert_allclose(res.strong_ratio_curve, math.exp(-0.125), rtol=1e-2)
        assert res.caveat == om._EXACT_CAVEAT

    def test_exact_rules_run_no_search(self):
        mu = GaussianMeasure(np.array([0.3, -0.2]), SpectralOperator(np.array([1.0, 0.5])))
        res = classify_mode(mu, mu.mean, [np.array([0.5, 0.0])], radius_schedule(0.2, 4),
                            WeightedSeqSpace.unweighted(math.inf, 2))
        assert res.strong == "yes"
        assert np.all(res.strong_ratio_curve == 1.0)
        m = OmNotStrongMeasure(levels=6)
        radii = np.array([0.5 / n ** 4 for n in range(2, 7)])
        res = classify_mode(m, np.array([1.0]), [np.array([2.0])], radii)
        assert res.strong == "no"
        assert res.caveat == om._EXACT_CAVEAT
        # at r >= 1/4 there is no rule: the competitor set only
        res = classify_mode(m, np.array([1.0]), [np.array([2.0])], np.array([0.3, 0.01]))
        assert res.caveat == f"{om._COMPETITORS_CAVEAT}; {om._EXACT_CAVEAT}"

    def test_monte_carlo_mean_reads_one(self, monkeypatch):
        # forced Monte Carlo for these l2 balls of a 2-d Gaussian: the
        # candidate's and the mean's masses are estimates on the same draws
        mc_calls = []
        mc_mass_batches = measures._mc_mass_batches

        def spy(*args):
            mc_calls.append(args[1])
            return mc_mass_batches(*args)

        monkeypatch.setattr(measures, "_mc_mass_batches", spy)
        mu = GaussianMeasure(np.array([0.3, -0.2]), SpectralOperator(np.array([1.0, 0.5])))
        opts = RatioOpts(n_samples=2000, n_batches=4, seed=4, method="mc")
        res = classify_mode(mu, mu.mean, [], radius_schedule(0.5, 6), None, opts)
        assert len(mc_calls) == 1  # one table: no separate mass for the mean
        assert np.all(res.strong_ratio_stderr > 0)  # the masses are estimates
        np.testing.assert_array_equal(res.strong_ratio_curve, 1.0)
        assert res.strong == "yes"
        assert res.caveat == om._EXACT_CAVEAT

    def test_high_dimension_masses_do_not_underflow(self):
        # sup-norm balls of N(0, I_200): below r = 0.03 every mass underflows
        # a float; the strong curve, a ratio, is formed from log masses
        mu, sp = std_gaussian(200), WeightedSeqSpace.unweighted(math.inf, 200)
        radii, e1 = radius_schedule(0.2, 10), np.eye(200)[0]
        res = classify_mode(mu, mu.mean, [0.01 * e1], radii, sp)
        assert (res.strong, res.global_weak) == ("yes", "yes")
        np.testing.assert_array_equal(res.strong_ratio_curve, 1.0)
        # off the mean only the first coordinate's factor differs: the
        # curve is the one-dimensional one, where nothing underflows
        res = classify_mode(mu, 0.5 * e1, [], radii, sp)
        one = classify_mode(std_gaussian(1), np.array([0.5]), [], radii,
                            WeightedSeqSpace.unweighted(math.inf, 1))
        assert res.strong == one.strong == "no"
        np.testing.assert_allclose(res.strong_ratio_curve, one.strong_ratio_curve, rtol=1e-12)

    @pytest.mark.parametrize("measure, x", [(lambda: _mixture_density1d(0.0, 5.0), 4.3),
                                            (lambda: _spike_density1d(10), 0.5)],
                             ids=["mixture", "spike"])
    def test_candidate_alone_reads_inconclusive(self, measure, x):
        # no rule names these measures' heaviest centres and no competitor is
        # given: M_r is the candidate's own mass, so the curve is 1 by
        # construction and says nothing of a strong mode
        res = classify_mode(measure(), np.array([x]), [], radius_schedule(0.2, 6))
        np.testing.assert_array_equal(res.strong_ratio_curve, 1.0)
        assert res.strong == "inconclusive"
        assert res.caveat == om._COMPETITORS_CAVEAT

    @pytest.mark.parametrize("seed", [8, 14, 16, 32, 37])
    def test_rotated_gaussian_below_p1_reads_the_competitors(self, seed):
        # no rule names the heaviest centre of a rotated basis under p < 1,
        # so M_r is the largest of the candidate's and the competitor's
        # masses, both on the candidate's draws: the mean stays a strong mode
        basis = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
        mu = GaussianMeasure(np.zeros(2), SpectralOperator(np.array([1.0, 0.25]), basis))
        sp = WeightedSeqSpace.unweighted(0.5, 2)
        assert sup_ball_mass(mu, 0.1, sp) is None
        opts = RatioOpts(n_samples=2000, n_batches=4, seed=seed)
        res = classify_mode(mu, mu.mean, [np.array([0.3, 0.0])], radius_schedule(0.2, 4),
                            sp, opts)
        assert res.strong == "yes"
        np.testing.assert_array_equal(res.strong_ratio_curve, 1.0)
        assert res.caveat == om._COMPETITORS_CAVEAT


class _CountedOmNotStrong(OmNotStrongMeasure):
    """OmNotStrongMeasure whose ``mass_table`` cells are counted in ``calls``."""

    calls = []

    def mass_table(self, centers, radii):
        self.calls.extend((float(np.asarray(c).reshape(())), float(r))
                          for c in centers for r in radii)
        return super().mass_table(centers, radii)


def _liminf_case():
    m = LiminfOnlyMeasure(depth=40)
    radii = np.array([2.0 * m.delta_radius(n) for n in range(1, 13)])
    return m, np.array([1.0]), [np.array([-1.0])], radii, RatioOpts()


def _crosses_case(norm_choice):
    return (CrossesMeasure(norm_choice), np.array([1.0, 0.0]),
            [np.array([-1.0, 0.0]), np.array([1.5, 0.0])], radius_schedule(0.2, 4),
            RatioOpts())


#: exact measures: (measure, candidate, competitors, radii, opts)
EXACT_CASES = {
    "gaussian-1d": lambda: (std_gaussian(1), np.zeros(1),
                            [np.array([x]) for x in (-1.0, -0.3, 0.0, 0.4, 1.2)],
                            radius_schedule(0.5, 8), RatioOpts()),
    "liminf-only": _liminf_case,
    "om-not-strong": lambda: (OmNotStrongMeasure(levels=6), np.array([1.0]),
                              [np.array([float(k)]) for k in (1, 2, 3, 5)],
                              radius_schedule(1e-8, 8, factor=4.0),
                              RatioOpts()),
    "crosses-1": lambda: _crosses_case("1"),
    "crosses-inf": lambda: _crosses_case("inf"),
}


class TestMassTable:
    def test_empty_radius_schedule_refused(self):
        # no radius gives no mass, no curve and no verdict
        mu = GaussianMeasure(np.zeros(2), SpectralOperator(np.array([1.0, 0.0])))
        x, none = np.array([0.0, 1.0]), np.array([])
        for call in (lambda: ball_ratio_curve(mu, x, np.zeros(2), none),
                     lambda: m_property_probe(mu, prior_om(mu), [x], none),
                     lambda: classify_mode(mu, np.zeros(2), [x], none)):
            with pytest.raises(InputError, match="radius schedule is empty"):
                call()

    def test_nearby_competitor_enters_the_weak_check(self):
        # 1 and 1 + 5e-7 are distinct points at radii down to 1e-10: the
        # spike at 1 makes the competitor's mass dominate the candidate's
        m = OmNotStrongMeasure(levels=6)
        cand, comp = np.array([1.0 + 5e-7]), np.array([1.0])
        radii = radius_schedule(1e-10, 8, factor=4.0)
        res = classify_mode(m, cand, [comp], radii)
        curve = ball_ratio_curve(m, comp, cand, radii)
        assert curve.extrapolated_limit > 100.0
        assert res.weak_worst_ratio == max(float(np.max(curve.ratios[-5:])),
                                           curve.extrapolated_limit)
        assert res.global_weak == "no"

    def test_each_mass_is_computed_once(self):
        m = _CountedOmNotStrong(levels=6)
        comps = [np.array([1.0]), np.array([2.0]), np.array([3.0])]
        radii = radius_schedule(1e-3, 5, factor=4.0)
        m.calls.clear()
        res = classify_mode(m, np.array([1.0]), comps, radii)
        assert res.caveat == om._EXACT_CAVEAT
        # the candidate, its three competitors and the integers 4..6 that
        # are not rows yet: 1 is computed twice, as candidate and competitor
        assert len(m.calls) == 7 * len(radii)
        assert len(set(m.calls)) == 6 * len(radii)

    @pytest.mark.parametrize("case", sorted(EXACT_CASES))
    def test_ball_ratio_curve_stays_the_reference(self, case):
        measure, cand, comps, radii, opts = EXACT_CASES[case]()
        res = classify_mode(measure, cand, comps, radii, None, opts)
        n_fit = min(measures._FIT_POINTS, len(radii))
        worst = 0.0
        for w in comps:
            if np.array_equal(w, cand):
                continue
            curve = ball_ratio_curve(measure, w, cand, radii, None, opts)
            window = curve.ratios[-n_fit:]
            limit = curve.extrapolated_limit
            worst = max(worst, float(np.max(window[np.isfinite(window)], initial=0.0)),
                        limit if math.isfinite(limit) else 0.0)
        assert res.weak_worst_ratio == worst


class TestDensityFunctional:
    def test_matches_negative_log_density(self):
        d = _spike_density1d(5)
        fn = density_om(d, anchor=0.2)
        x = 0.7
        assert fn.eval(np.array([x])) == pytest.approx(-math.log(d.pdf(x)))
        assert fn.eval(np.array([-30.0])) > 100 or math.isinf(fn.eval(np.array([-30.0])))


def _rotated_gaussian(k, n_pinned, seed):
    rng = np.random.default_rng(seed)
    eig = rng.uniform(0.5, 2.0, k)
    eig[:n_pinned] = 0.0
    basis = np.linalg.qr(rng.normal(size=(k, k)))[0]
    return GaussianMeasure(rng.normal(size=k), SpectralOperator(eig, basis))


def _conformance_cases():
    """(functional, points) for every functional constructor, the points
    on and off its domain."""
    rng = np.random.default_rng(12)
    aligned = GaussianMeasure(rng.normal(size=4), SpectralOperator(rng.uniform(0.5, 2.0, 4)))
    rotated, degenerate = _rotated_gaussian(4, 0, 1), _rotated_gaussian(4, 2, 2)
    besov = BesovMeasure(1.1, 1, 1.0, 6)
    on_degenerate = degenerate.mean + np.array([sqrt_apply(degenerate.cov, g)
                                                for g in rng.normal(size=(6, 4))])
    obs = LinearObservation(rng.normal(size=(2, 4)), SpectralOperator(np.ones(2)),
                            rng.normal(size=2))
    line = np.linspace(-3.0, 6.0, 37)[:, None]
    integers = np.concatenate([line, np.arange(0.0, 33.0)[:, None], [[1.0 + 1e-10]]])
    liminf = LiminfOnlyMeasure(depth=40)
    return {
        "gaussian-aligned": (prior_om(aligned), rng.normal(size=(12, 4))),
        "gaussian-rotated": (prior_om(rotated), rng.normal(size=(12, 4))),
        "gaussian-degenerate": (prior_om(degenerate),
                                np.vstack([on_degenerate, rng.normal(size=(6, 4))])),
        "besov1": (prior_om(besov), rng.laplace(scale=besov.gamma, size=(12, 6))),
        "density-mixture": (density_om(_mixture_density1d(0.05), anchor=5.0), line * 10.0),
        "density-spike": (density_om(_spike_density1d(5), anchor=0.2), line),
        "posterior": (posterior_om(prior_om(degenerate), quadratic_potential(obs)),
                      np.vstack([on_degenerate, rng.normal(size=(6, 4))])),
        "liminf-only": (prior_om(liminf), np.vstack([line, [[1.0]]])),
        "om-not-strong": (OmNotStrongMeasure().om_functional(), integers),
        # sum_rule_check sums a family member and a potential this way
        "sum-rule-member": (posterior_om(prior_om(besov),
                                         pointwise(lambda u: float(np.sin(u[0])), 6)),
                            rng.laplace(scale=besov.gamma, size=(12, 6))),
    }


#: product priors, and posteriors over them, evaluate a batch by one matrix
#: product, whose sums may round differently from those of a one-row product
_BATCHED = ("gaussian-aligned", "gaussian-rotated", "gaussian-degenerate", "besov1",
            "posterior", "sum-rule-member")


@pytest.mark.parametrize("name", list(_conformance_cases()))
def test_eval_values_and_domain_test_derive_from_one_kernel(name):
    fn, pts = _conformance_cases()[name]
    one_by_one = np.array([fn.eval(u) for u in pts])
    got = fn.values(pts)
    assert got.shape == (len(pts),) and got.dtype == float
    np.testing.assert_array_equal(np.isinf(got), np.isinf(one_by_one))
    if name in _BATCHED:
        np.testing.assert_allclose(got, one_by_one, rtol=1e-12, atol=0)
    else:
        np.testing.assert_array_equal(got, one_by_one)
    assert [fn.domain_test(u) for u in pts] == [math.isfinite(v) for v in one_by_one]
    assert math.isfinite(fn.eval(fn.anchor))
    if name in ("gaussian-degenerate", "posterior", "liminf-only", "om-not-strong"):
        assert not np.all(np.isfinite(one_by_one)), "no off-domain point in the case"
