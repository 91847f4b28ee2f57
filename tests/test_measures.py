"""Measures, sampling, ball masses, and ratio curves."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import ndtr
from scipy.stats import chi2, kstest

from ommap import (BallOpts, BesovMeasure, CrossesMeasure, Density1D, GaussianMeasure,
                   InputError, LiminfOnlyMeasure, OmNotStrongMeasure,
                   ParameterError, RatioOpts, SpectralOperator, WeightedSeqSpace,
                   ball_mass, ball_ratio_curve, besov_weights,
                   measure_from_json, measure_to_json, open_vs_closed_check,
                   prior_om, radius_schedule, sample, sup_ball_mass)
from ommap.measures import (NormalFactor, _CenterPlan, _Draws, _ProductSetup,
                            _log_mean_exp, _mc_mass_batches, _uniform_pball)


def std_gaussian(k):
    return GaussianMeasure(np.zeros(k), SpectralOperator(np.ones(k)))


class TestBesovWeights:
    def test_unit_smoothness(self):
        tau, t, gamma, delta = besov_weights(1.0, 1, 1.0, 4)
        assert tau == pytest.approx(2.0 / 3.0)
        assert t == pytest.approx(-1.0)
        # exponent arithmetic: 1 - 1/tau = 1/2 - s/d = -1/2 and
        # 2 + eta - 1/tau = 3/2 + eta - s/d = 3/2
        assert gamma[1] == pytest.approx(2.0 ** -0.5, abs=1e-15)
        assert delta[1] == pytest.approx(2.0 ** 1.5, abs=1e-15)

    def test_first_weight_is_one(self):
        for s, d, eta in [(2.0, 1, 0.5), (-0.3, 2, 1.0), (1.0, 3, 2.0)]:
            _, _, gamma, delta = besov_weights(s, d, eta, 3)
            assert gamma[0] == 1.0 and delta[0] == 1.0

    def test_flat_weights_at_half_dimension_smoothness(self):
        _, _, gamma, _ = besov_weights(1.5, 3, 1.0, 5)  # s = d/2
        np.testing.assert_array_equal(gamma, np.ones(5))

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            besov_weights(-1.0, 1, 1.0, 3)  # tau <= 0
        with pytest.raises(ParameterError):
            besov_weights(1.0, 1, -0.5, 3)

    def test_measure_derived_fields(self):
        mu = BesovMeasure(1.0, 1, 1.0, 4)
        assert mu.tau == pytest.approx(2.0 / 3.0)
        assert mu.delta[1] / mu.gamma[1] == pytest.approx(2.0 ** (1 + mu.eta))


class TestSampling:
    def test_gaussian_mean_clt_bound(self):
        mu = GaussianMeasure(np.array([1.0, -2.0]), SpectralOperator(np.ones(2)))
        n = 10 ** 5
        draws = sample(mu, n, seed=0)
        err = np.abs(draws.mean(axis=0) - mu.mean)
        assert np.all(err < 4.0 / math.sqrt(n))

    def test_besov_laplace_variance(self):
        mu = BesovMeasure(1.0, 1, 1.0, 3)
        draws = sample(mu, 10 ** 5, seed=1)
        v = draws[:, 0].var()
        assert abs(v - 2.0) / 2.0 < 0.03  # Var = 2 gamma_1^2 = 2

    def test_deterministic(self):
        mu = std_gaussian(3)
        np.testing.assert_array_equal(sample(mu, 50, seed=9), sample(mu, 50, seed=9))

    def test_requires_product_measure(self):
        d = Density1D(pdf=lambda x: 1.0, support=((0.0, 1.0),), total_mass=1.0)
        with pytest.raises(InputError):
            sample(d, 10, seed=0)


class TestBallMass:
    def test_uniform_density(self):
        d = Density1D(pdf=lambda x: 1.0, support=((0.0, 1.0),))
        bm = ball_mass(d, 0.5, 0.1)
        assert bm.estimate == pytest.approx(0.2, abs=1e-12)

    def test_radius_must_be_positive(self):
        with pytest.raises(InputError):
            ball_mass(std_gaussian(1), np.zeros(1), 0.0)

    def test_chi_square_oracle_2d(self):
        # euclidean ball of the standard 2-d Gaussian: P(chi2_2 <= 1)
        expected = chi2.cdf(1.0, 2)
        assert expected == pytest.approx(1.0 - math.exp(-0.5), abs=1e-12)
        sp = WeightedSeqSpace.unweighted(2.0, 2)
        bm = ball_mass(std_gaussian(2), np.zeros(2), 1.0, sp,
                       BallOpts(n_samples=200_000, seed=3))
        assert abs(bm.estimate - expected) < 4 * bm.stderr + 1e-4

    def test_sup_norm_mc_matches_product_formula(self):
        mu = GaussianMeasure(np.array([0.2, -0.1, 0.4]),
                             SpectralOperator(np.array([1.0, 0.5, 2.0])))
        sp = WeightedSeqSpace(math.inf, np.array([1.0, 2.0, 0.7]))
        c = np.array([0.3, 0.0, -0.2])
        exact = ball_mass(mu, c, 0.5, sp).estimate
        mc = ball_mass(mu, c, 0.5, sp, BallOpts(n_samples=400_000, seed=4, method="mc"))
        assert abs(mc.estimate - exact) < 3 * mc.stderr

    def test_besov_sup_norm_product(self):
        mu = BesovMeasure(1.0, 1, 1.0, 2)
        sp = WeightedSeqSpace(math.inf, np.ones(2))
        got = ball_mass(mu, np.zeros(2), 0.5, sp).estimate
        per = [1.0 - math.exp(-0.5 / g) for g in mu.gamma]
        assert got == pytest.approx(per[0] * per[1], abs=1e-14)

    def test_one_dimensional_basis_sign(self):
        # a 1-d eigenbasis of -1 maps the center and the mean alike
        mu = GaussianMeasure(np.array([1.0]),
                             SpectralOperator(np.array([1.0]), np.array([[-1.0]])))
        expected = ndtr(0.01) - ndtr(-0.01)
        got = ball_mass(mu, np.array([1.0]), 0.01).estimate
        assert got == pytest.approx(expected, rel=1e-12)

    def test_monotone_in_radius(self):
        mu = std_gaussian(2)
        sp = WeightedSeqSpace.unweighted(2.0, 2)
        opts = BallOpts(n_samples=50_000, seed=5)
        masses = [ball_mass(mu, np.zeros(2), r, sp, opts).estimate
                  for r in [0.25, 0.5, 1.0, 2.0]]
        assert all(a <= b * (1 + 1e-6) for a, b in zip(masses, masses[1:]))
        assert masses[-1] <= 1.0

    def test_space_dimension_guard(self):
        with pytest.raises(InputError):
            ball_mass(std_gaussian(2), np.zeros(3), 0.5,
                      WeightedSeqSpace.unweighted(2.0, 3))

    def test_exact_method_unavailable_raises(self):
        sp = WeightedSeqSpace.unweighted(2.0, 2)
        with pytest.raises(InputError):
            ball_mass(std_gaussian(2), np.zeros(2), 0.5, sp,
                      BallOpts(method="exact"))

    def test_low_confidence_flag(self):
        # thin sliver: a ball barely reaching a degenerate rotated support
        # has a tiny hit rate, so the relative stderr blows up
        th = math.pi / 4
        v = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
        mu = GaussianMeasure(np.zeros(2), SpectralOperator(np.array([1.0, 0.0]), v))
        sp = WeightedSeqSpace.unweighted(2.0, 2)
        bm = ball_mass(mu, 0.3 * v[:, 1], 0.300001, sp,
                       BallOpts(n_samples=2000, seed=12, max_rel_err=0.2))
        assert bm.low_confidence

    def test_degenerate_direction_zero_mass(self):
        mu = GaussianMeasure(np.zeros(2), SpectralOperator(np.array([1.0, 0.0])))
        sp = WeightedSeqSpace.unweighted(2.0, 2)
        bm = ball_mass(mu, np.array([0.0, 1.0]), 0.5, sp,
                       BallOpts(n_samples=10_000, seed=6))
        assert bm.estimate == 0.0

    def test_rotated_point_mass_is_exact(self):
        # no free coordinate: all mass sits at the mean, in any norm
        mu = GaussianMeasure(np.zeros(2),
                             SpectralOperator(np.zeros(2), np.array([[0.0, 1.0], [1.0, 0.0]])))
        sp = WeightedSeqSpace.unweighted(2.0, 2)
        at_mean = ball_mass(mu, np.zeros(2), 0.1, sp)
        assert (at_mean.estimate, at_mean.stderr, at_mean.method) == (1.0, 0.0, "closed-form")
        # |(0.06, 0.06)|_2 = 0.085 < 0.1 < |(0.08, 0.08)|_2 = 0.113; a
        # sup-norm test would put both inside
        inside = ball_mass(mu, np.array([0.06, 0.06]), 0.1, sp)
        outside = ball_mass(mu, np.array([0.08, 0.08]), 0.1, sp)
        assert (inside.estimate, inside.stderr) == (1.0, 0.0)
        assert (outside.estimate, outside.stderr) == (0.0, 0.0)
        mc = ball_mass(mu, np.array([0.06, 0.06]), 0.1, sp,
                       BallOpts(method="mc", n_samples=1000))
        assert (mc.estimate, mc.stderr) == (1.0, 0.0)
        curve = ball_ratio_curve(mu, np.array([0.0, 0.03]), np.zeros(2),
                                 np.array([0.1, 0.05]), sp)
        np.testing.assert_array_equal(curve.ratios, [1.0, 1.0])

    @pytest.mark.parametrize("method", ["quadrature", "exakt", "MC"])
    def test_unknown_method_rejected(self, method):
        with pytest.raises(ParameterError, match="method"):
            BallOpts(method=method)

    def test_density1d_refuses_what_it_cannot_do(self):
        plain = Density1D(pdf=lambda x: 0.5, support=((-1.0, 1.0),))
        with_fn = Density1D(pdf=lambda x: 0.5, support=((-1.0, 1.0),),
                            mass_fn=lambda c, r: min(c + r, 1.0) / 2 - max(c - r, -1.0) / 2)
        for dens in (plain, with_fn):
            with pytest.raises(InputError, match="Monte Carlo"):
                ball_mass(dens, 0.0, 0.2, None, BallOpts(method="mc"))
        with pytest.raises(InputError, match="mass_fn"):
            ball_mass(plain, 0.0, 0.2, None, BallOpts(method="exact"))
        assert ball_mass(plain, 0.0, 0.2).method == "quadrature"
        exact = ball_mass(with_fn, 0.0, 0.2, None, BallOpts(method="exact"))
        assert (exact.method, exact.estimate) == ("closed-form", pytest.approx(0.2))

    def test_besov_coordinate_density_normalised(self):
        mu = BesovMeasure(1.2, 1, 0.7, 3)
        for g in mu.gamma:
            total, _ = quad(lambda x: 0.5 / g * math.exp(-abs(x) / g),
                            -np.inf, np.inf)
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_besov_ambient_norm_mean_bound(self):
        # E |u|_{l1_delta} = sum_k gamma_k / delta_k = sum_k k^(-1-eta)
        mu = BesovMeasure(1.0, 1, 1.0, 20)
        draws = sample(mu, 40_000, seed=7)
        norms = np.sum(np.abs(draws) / mu.delta, axis=1)
        bound = np.sum((np.arange(1, 21, dtype=float)) ** -2.0)
        se = norms.std(ddof=1) / math.sqrt(len(norms))
        assert norms.mean() <= bound + 3 * se
        assert norms.mean() == pytest.approx(bound, abs=4 * se)


class TestRatioCurve:
    def test_same_point_identically_one(self):
        mu = std_gaussian(2)
        sp = WeightedSeqSpace.unweighted(2.0, 2)
        x = np.array([0.4, -0.2])
        cur = ball_ratio_curve(mu, x, x, radius_schedule(0.2, 6), sp,
                               RatioOpts(n_samples=20_000, seed=8))
        np.testing.assert_array_equal(cur.ratios, np.ones(6))
        assert cur.extrapolated_limit == pytest.approx(1.0, abs=1e-14)

    def test_1d_gaussian_against_functional(self):
        mu = std_gaussian(1)
        cur = ball_ratio_curve(mu, np.array([1.0]), np.array([0.0]),
                               radius_schedule(0.5, 10))
        assert cur.method == "closed-form"
        assert cur.extrapolated_limit == pytest.approx(math.exp(-0.5), abs=2e-4)

    def test_radii_validation(self):
        mu = std_gaussian(1)
        with pytest.raises(InputError):
            ball_ratio_curve(mu, np.zeros(1), np.zeros(1), [0.1, 0.2])

    def test_denominator_outside_support(self):
        mu = GaussianMeasure(np.zeros(2), SpectralOperator(np.array([1.0, 0.0])))
        sp = WeightedSeqSpace.unweighted(2.0, 2)
        cur = ball_ratio_curve(mu, np.zeros(2), np.array([0.0, 2.0]),
                               radius_schedule(0.5, 5), sp,
                               RatioOpts(n_samples=5_000, seed=10))
        assert cur.diagnostic == "x2 outside support"

    def test_mc_matches_functional_2d(self):
        mu = GaussianMeasure(np.zeros(2), SpectralOperator(np.array([2.0, 0.5])))
        sp = WeightedSeqSpace.unweighted(2.0, 2)
        x1, x2 = np.array([0.5, 0.2]), np.array([-0.3, 0.1])
        fn = prior_om(mu)
        expected = math.exp(fn(x2) - fn(x1))
        cur = ball_ratio_curve(mu, x1, x2, radius_schedule(0.2, 10), sp,
                               RatioOpts(n_samples=40_000, seed=11))
        half = 0.5 * (cur.ci[1] - cur.ci[0])
        assert abs(cur.extrapolated_limit - expected) < max(3 * cur.se_limit, half) + 1e-4

    def test_interval_is_the_exact_intercept_variance(self):
        # the intercept of the log-ratio fit is linear in the log ratios, so
        # its sd is sqrt(sum_i (P[0, i] se_i / y_i)^2) with P the pseudoinverse
        mu = GaussianMeasure(np.zeros(2), SpectralOperator(np.array([2.0, 0.5])))
        mc = ball_ratio_curve(mu, np.array([0.5, 0.2]), np.array([-0.3, 0.1]),
                              radius_schedule(0.2, 10), WeightedSeqSpace.unweighted(2.0, 2),
                              RatioOpts(n_samples=40_000, seed=11))
        besov = BesovMeasure(1.0, 1, 1.0, 4)
        exact = ball_ratio_curve(besov, np.array([0.3, -0.2, 0.1, 0.0]), np.zeros(4),
                                 radius_schedule(0.5, 8), WeightedSeqSpace(math.inf, np.ones(4)))
        assert mc.method == "monte-carlo" and exact.method == "closed-form"
        for cur in (mc, exact):
            idx = np.argsort(cur.radii)[:5]
            a = np.column_stack([np.ones(5), cur.radii[idx]])
            logy, se_log = np.log(cur.ratios[idx]), cur.stderr[idx] / cur.ratios[idx]
            pinv = np.linalg.lstsq(a, np.eye(5), rcond=None)[0]
            c0 = pinv[0] @ logy
            se_fit = math.sqrt(np.sum((pinv[0] * se_log) ** 2))
            se_model = math.sqrt(np.mean((logy - a @ (pinv @ logy)) ** 2))
            assert se_model > 0
            half = 1.96 * se_fit + 2.0 * se_model
            np.testing.assert_allclose(cur.ci, np.exp([c0 - half, c0 + half]), rtol=1e-12)
            assert cur.se_limit == pytest.approx(math.exp(c0) * math.hypot(se_fit, se_model),
                                                 rel=1e-12)
            if cur is mc:
                assert se_fit > 10 * se_model
                # what a parametric bootstrap of the intercept would estimate
                noise = np.random.default_rng(0).standard_normal((200_000, 5)) * se_log
                boots = np.linalg.lstsq(a, (logy + noise).T, rcond=None)[0][0]
                assert np.std(boots, ddof=1) == pytest.approx(se_fit, rel=0.02)
            else:
                assert se_fit == 0.0

    def test_single_radius_interval_stays_positive(self):
        # one radius: a degree-0 fit, ci = exp(log y -+ 1.96 se / y)
        mu = BesovMeasure(1, 1, 1, 20)
        x1 = np.zeros(20)
        x1[:3] = [0.8, -0.6, 0.5]
        cur = ball_ratio_curve(mu, x1, np.zeros(20), [1.5], WeightedSeqSpace.unweighted(2.0, 20),
                               RatioOpts(n_samples=400, n_batches=8, seed=8))
        y, se = cur.ratios[0], cur.stderr[0]
        assert se / y > 0.5  # wide enough that y - 1.96 se < 0
        assert cur.diagnostic == "single-radius-no-extrapolation"
        assert cur.extrapolated_limit == pytest.approx(y, rel=1e-15)
        assert cur.ci[0] > 0
        np.testing.assert_allclose(cur.ci, y * np.exp([-1.96 * se / y, 1.96 * se / y]),
                                   rtol=1e-12)
        assert cur.se_limit == pytest.approx(se, rel=1e-15)


    def test_besov_dim100_small_radii_no_underflow(self):
        # the masses themselves underflow (log mass ~ -1000 at the smallest
        # radius), but their ratio tends to exp(-I(x1)) with I(x) = sum |x_k|/gamma_k
        mu = BesovMeasure(0.9, 1, 1.0, 100)
        x1 = np.zeros(100)
        x1[[0, 2, 3]] = np.array([0.3, -0.25, 0.15]) * mu.gamma[[0, 2, 3]]
        sp = WeightedSeqSpace.unweighted(2.0, 100)
        cur = ball_ratio_curve(mu, x1, np.zeros(100), radius_schedule(0.2, 10), sp,
                               RatioOpts(n_samples=100_000, n_batches=20, seed=13))
        assert cur.method == "monte-carlo"
        assert np.all(np.isfinite(cur.ratios))
        assert cur.diagnostic is None
        assert cur.extrapolated_limit == pytest.approx(math.exp(-0.7), rel=0.05)

    def test_sup_norm_200d_exact_limit(self):
        # each coordinate's interval mass is ~3e-4 at the smallest radius,
        # so the 200-d product is far below the smallest double
        x1 = np.where(np.arange(200) % 2 == 0, 1.0, -1.0) * math.sqrt(0.00125)
        sp = WeightedSeqSpace(math.inf, np.ones(200))
        cur = ball_ratio_curve(std_gaussian(200), x1, np.zeros(200),
                               radius_schedule(0.2, 10), sp)
        assert cur.method == "closed-form"
        assert cur.diagnostic is None
        assert cur.extrapolated_limit == pytest.approx(math.exp(-0.125), abs=1e-3)

    def test_bounded_memory(self):
        # drawing all 2e5 x 100 points up front would take 160 MB; with
        # every coordinate of x1 nonzero, broadcasting the Laplace expansion
        # over the 10 scales at once would build a 10 x 5e3 x 100 array (40 MB)
        sp = WeightedSeqSpace.unweighted(2.0, 100)
        sparse_mu, dense_mu = BesovMeasure(1.0, 1, 1.0, 100), BesovMeasure(0.9, 1, 1.0, 100)
        sparse = np.zeros(100)
        sparse[0] = 0.5
        dense = 0.01 * dense_mu.gamma * np.where(np.arange(100) % 2 == 0, 1.0, -1.0)
        cases = [(sparse_mu, sparse, 4, RatioOpts(n_samples=200_000, n_batches=20, seed=14), 48e6),
                 (dense_mu, dense, 10, RatioOpts(n_samples=100_000, n_batches=20, seed=16), 24e6)]
        for mu, x1, n_radii, opts, bound in cases:
            tracemalloc.start()
            try:
                ball_ratio_curve(mu, x1, np.zeros(100), radius_schedule(0.2, n_radii), sp, opts)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound  # a few arrays of one 1e4 or 5e3 x 100 batch


def _direct_log_density(factor, pts, mean, spread):
    """Product log density of free coordinates, evaluated term by term."""
    if isinstance(factor, NormalFactor):
        return (-0.5 * np.sum((pts - mean) ** 2 / spread, axis=1)
                - 0.5 * np.sum(np.log(2.0 * math.pi * spread)))
    return -np.sum(np.abs(pts) / spread, axis=1) - np.sum(np.log(2.0 * spread))


def _direct_norm_mc_batches(measure, centers, radii, space, n_samples, n_batches, rng,
                            closed):
    """Rotated-basis ``_mc_mass_batches`` with the ball indicator taken per
    radius from the direct norm of rho zb + offset."""
    setup = _ProductSetup(measure, space)
    plans = [_CenterPlan(setup, c) for c in centers]
    props = [np.array([plan.proposal(float(r)) for r in radii]).T for plan in plans]
    cmp = np.less_equal if closed else np.less
    out = np.empty((len(plans), len(radii), n_batches))
    for b in range(n_batches):
        z = _uniform_pball(rng, n_samples // n_batches, setup.k_free, setup.draw_p)
        draws = _Draws(setup, z)
        for ci, (center, plan, (scales, logv)) in enumerate(zip(centers, plans, props)):
            ld = plan.log_density(draws, scales)
            # ambient offset of the pinned coordinates from the mean
            offset = np.zeros(measure.dim)
            offset[setup.zero] = (setup.mean_e - setup.to_eigen(center))[setup.zero]
            offset = setup.basis @ offset
            for ri, (r, rho) in enumerate(zip(radii, scales)):
                diff = np.abs(rho * draws.zb + offset) / space.weights
                if math.isinf(space.p):
                    norms = diff.max(axis=1)
                else:
                    norms = (diff ** space.p).sum(axis=1) ** (1.0 / space.p)
                ld[ri, ~cmp(norms, r)] = -np.inf
            out[ci, :, b] = _log_mean_exp(ld) + logv
    return out


class TestMcKernel:
    @given(st.sampled_from(["aligned", "rotated", "besov"]),
           st.integers(min_value=2, max_value=6),
           st.sampled_from([1.0, 2.0, 3.0, math.inf]),
           st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_expanded_log_density_matches_direct(self, kind, k, p, seed):
        rng = np.random.default_rng(seed)
        weights = rng.uniform(0.5, 2.0, k)
        sp = WeightedSeqSpace(p, weights)
        center = rng.normal(0.0, 1.0, k)
        if kind == "besov":
            mu = BesovMeasure(float(rng.uniform(0.6, 1.4)), 1, 1.0, k)
            center[rng.random(k) < 0.5] = 0.0
            c_free, m_free, spread, w = center, np.zeros(k), mu.gamma, weights
        else:
            eig = rng.uniform(0.3, 3.0, k)
            basis = None
            if kind == "rotated":
                basis = np.linalg.qr(rng.normal(size=(k, k)))[0]
                eig[0] = 0.0  # pinned coordinate
            mu = GaussianMeasure(rng.normal(0.0, 1.0, k), SpectralOperator(eig, basis))
            free = eig > 0
            c_e, m_e = mu.cov.to_eigen(center), mu.cov.to_eigen(mu.mean)
            c_free, m_free, spread = c_e[free], m_e[free], eig[free]
            w = weights[free] if basis is None else np.ones(int(free.sum()))
        setup = _ProductSetup(mu, sp)
        plan = _CenterPlan(setup, center)
        z = _uniform_pball(rng, 50, len(c_free), setup.draw_p)
        scales = np.array([0.0, 1e-3, 0.1, 1.7])
        got = plan.log_density(_Draws(setup, z), scales)
        for s, row in zip(scales, got):
            want = _direct_log_density(setup.factor, c_free + s * w * z, m_free, spread)
            np.testing.assert_allclose(row, want, rtol=0, atol=1e-9)

    @given(st.integers(min_value=2, max_value=6),
           st.sampled_from([0.5, 1.0, 1.5, 2.0, math.inf]),
           st.booleans(), st.booleans(),
           st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_rotated_indicator_matches_direct_norm(self, k, p, closed, pinned, seed):
        rng = np.random.default_rng(seed)
        sp = WeightedSeqSpace(p, rng.uniform(0.5, 2.0, k))
        eig = rng.uniform(0.3, 3.0, k)
        if pinned:
            eig[rng.permutation(k)[:int(rng.integers(1, k + 1))]] = 0.0
        basis = np.linalg.qr(rng.normal(size=(k, k)))[0]
        mu = GaussianMeasure(rng.normal(0.0, 1.0, k), SpectralOperator(eig, basis))
        # on the mean in the pinned coordinates, then off it (when any is pinned)
        on_mean = mu.mean + basis @ np.where(eig > 0, rng.normal(0.0, 0.5, k), 0.0)
        centers = [on_mean, mu.mean + rng.normal(0.0, 0.5, k)]
        radii = radius_schedule(2.0, 6)
        args = (mu, centers, radii, sp, 2_000, 4)
        got = _mc_mass_batches(*args, np.random.default_rng(seed), closed)
        want = _direct_norm_mc_batches(*args, np.random.default_rng(seed), closed)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_l2_sampler_uniform(self, k):
        z = _uniform_pball(np.random.default_rng(15), 20_000, k, 2.0)
        norms = np.linalg.norm(z, axis=1)
        assert np.all(norms < 1.0)
        # the radius of a uniform point in the unit k-ball has P(|z| < t) = t^k
        assert kstest(norms ** k, "uniform").pvalue > 1e-3

    @pytest.mark.parametrize("p", [1.0, 1.5])
    @pytest.mark.parametrize("seed", [0, 1, 7, 2024])
    def test_pball_draws_match_gamma_formula(self, p, seed):
        # the gamma(1/p) magnitudes, uniform signs and exponential slack,
        # written out here so that a change of numpy's gamma(1) stream
        # shows up as a failure
        rng = np.random.default_rng(seed)
        g = rng.gamma(1.0 / p, 1.0, size=(300, 9))
        signs = np.where(rng.random(size=(300, 9)) < 0.5, -1.0, 1.0)
        e = rng.standard_exponential(300)
        want = signs * g ** (1.0 / p) / ((g.sum(axis=1) + e) ** (1.0 / p))[:, None]
        got = _uniform_pball(np.random.default_rng(seed), 300, 9, p)
        assert got.tobytes() == want.tobytes()


class TestSupBallMass:
    @given(st.sampled_from(["aligned", "rotated", "besov"]),
           st.integers(min_value=1, max_value=4),
           st.sampled_from([0.5, 1.0, 2.0, math.inf]),
           st.booleans(),
           st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_no_centre_beats_the_supremum(self, kind, k, p, closed, seed):
        # exact paths only: balls factorise in the sup norm, and every norm
        # of R^1 is exact; a rotated basis is exact in 1-d or with no
        # free coordinate (a point mass)
        rng = np.random.default_rng(seed)
        weights = rng.uniform(0.3, 3.0, k) if rng.random() < 0.5 else np.ones(k)
        if kind == "besov":
            mu = BesovMeasure(float(rng.uniform(0.6, 1.4)), 1, 1.0, k)
            mean = np.zeros(k)
        else:
            eig = rng.uniform(0.1, 3.0, k)
            eig[rng.random(k) < 0.3] = 0.0  # degenerate directions
            basis = None
            if kind == "rotated":
                basis = np.linalg.qr(rng.normal(size=(k, k)))[0]
                if k > 1:
                    eig[:] = 0.0
            mean = rng.normal(0.0, 1.0, k)
            mu = GaussianMeasure(mean, SpectralOperator(eig, basis))
        if k > 1 and kind != "rotated":
            p = math.inf
        sp = WeightedSeqSpace(p, weights)
        opts = BallOpts(method="exact", closed=closed)
        radius = float(10.0 ** rng.uniform(-3.0, 0.5))
        sup = sup_ball_mass(mu, radius, sp, opts)
        if kind == "rotated" and k > 1 and p < 1:
            assert sup is None  # the ball is not convex, and not aligned
            return
        assert sup.estimate == ball_mass(mu, mean, radius, sp, opts).estimate
        centres = [mean + radius * rng.normal(0.0, 1.0, k) * rng.uniform(0.0, 2.0)
                   for _ in range(8)] + [mean + 1e-9 * rng.normal(size=k)]
        for c in centres:
            # ball_mass rounds each interval end c_k +- r w_k - mean_k to the
            # float grid, which moves a small ball's mass by up to about
            # ulp / (r w_k) relative in each coordinate
            ulp = math.ulp(1.0 + np.abs(c).max() + radius * weights.max())
            slack = 1e-12 + 4 * k * ulp / (radius * weights.min())
            assert ball_mass(mu, c, radius, sp, opts).estimate <= sup.estimate * (1 + slack)


class TestOpenVsClosed:
    def test_uniform_interior_pair(self):
        d = Density1D(pdf=lambda x: 1.0, support=((0.0, 1.0),))
        rep = open_vs_closed_check(d, 0.4, 0.6, radius_schedule(0.1, 6))
        assert rep.max_ratio_discrepancy == 0.0
        assert rep.agree

    def test_gaussian_1d(self):
        rep = open_vs_closed_check(std_gaussian(1), np.array([1.0]), np.array([0.0]),
                                   radius_schedule(0.5, 8))
        assert rep.limit_discrepancy < 1e-10


class TestSerialization:
    def test_gaussian_roundtrip(self):
        mu = GaussianMeasure(np.array([1.0, 2.0]), SpectralOperator(np.array([3.0, 0.5])))
        back = measure_from_json(measure_to_json(mu))
        np.testing.assert_array_equal(back.mean, mu.mean)
        np.testing.assert_array_equal(back.cov.eigenvalues, mu.cov.eigenvalues)

    def test_besov_roundtrip(self):
        mu = BesovMeasure(1.5, 2, 0.8, 6)
        back = measure_from_json(measure_to_json(mu))
        assert back == mu

    @pytest.mark.parametrize("mu", [LiminfOnlyMeasure(depth=12, variant="standard"),
                                    OmNotStrongMeasure(levels=7), CrossesMeasure("inf")],
                             ids=lambda m: type(m).__name__)
    def test_example_measure_roundtrip(self, mu):
        back = measure_from_json(measure_to_json(mu))
        assert type(back) is type(mu)
        assert measure_to_json(back) == measure_to_json(mu)

    def test_registered_names(self):
        m = measure_from_json({"type": "density1d", "name": "liminf_only",
                               "params": {"depth": 12}})
        assert m.depth == 12
        with pytest.raises(ParameterError):
            measure_from_json({"type": "density1d", "name": "nope"})
