"""Measures, sampling, ball masses, and ratio curves."""

import contextlib
import dataclasses
import io
import json
import math
import threading
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import ndtr
from scipy.stats import chi2, kstest

from ommap import (BallRatioEstimate, BesovMeasure, CrossesMeasure, Density1D, GaussianMeasure,
                   InputError, LiminfOnlyMeasure, OmNotStrongMeasure,
                   ParameterError, ProductMeasure, RatioOpts, SpectralOperator, WeightedSeqSpace,
                   ball_mass, ball_ratio_curve, besov_weights, measure_from_json,
                   default_space, prior_om, radius_schedule, sample, sup_ball_mass)
from ommap._seeds import child_rng
import ommap.cli
import ommap.counterexamples
import ommap.measures
from ommap.measures import (LaplaceFactor, NormalFactor, _CenterPlan, _Draws, _heaviest_centers,
                            _log_mass_table, _ProductSetup, _log_mean_exp, _mc_mass_batches,
                            _log_mean_of_parts, _log_sum_exp_parts, _merge_log_sum_exp,
                            _product_exact_log_mass, _ratio_curves, _uniform_pball,
                            _LOW_CONFIDENCE_REL_ERR)


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

    def test_negative_seed_refused(self):
        with pytest.raises(InputError, match="seed must be a non-negative integer"):
            sample(std_gaussian(3), 3, -1)


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
                       RatioOpts(n_samples=200_000, seed=3))
        assert abs(bm.estimate - expected) < 4 * bm.stderr + 1e-4

    def test_sup_norm_mc_matches_product_formula(self):
        mu = GaussianMeasure(np.array([0.2, -0.1, 0.4]),
                             SpectralOperator(np.array([1.0, 0.5, 2.0])))
        sp = WeightedSeqSpace(math.inf, np.array([1.0, 2.0, 0.7]))
        c = np.array([0.3, 0.0, -0.2])
        exact = ball_mass(mu, c, 0.5, sp).estimate
        mc = ball_mass(mu, c, 0.5, sp, RatioOpts(n_samples=400_000, seed=4, method="mc"))
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
        opts = RatioOpts(n_samples=50_000, seed=5)
        masses = [ball_mass(mu, np.zeros(2), r, sp, opts).estimate
                  for r in [0.25, 0.5, 1.0, 2.0]]
        assert all(a <= b * (1 + 1e-6) for a, b in zip(masses, masses[1:]))
        assert masses[-1] <= 1.0

    def test_space_dimension_guard(self):
        with pytest.raises(InputError):
            ball_mass(std_gaussian(2), np.zeros(3), 0.5,
                      WeightedSeqSpace.unweighted(2.0, 3))

    @pytest.mark.parametrize("entry", ["ball_mass", "ball_ratio_curve", "sup_ball_mass"])
    def test_a_space_of_another_dimension_is_named(self, entry):
        # the Monte Carlo setup trusts the check its caller made
        mu, space = std_gaussian(2), WeightedSeqSpace.unweighted(2.0, 3)
        opts = RatioOpts(method="mc", n_samples=400, n_batches=4)
        calls = {"ball_mass": lambda: ball_mass(mu, np.zeros(2), 0.5, space, opts),
                 "ball_ratio_curve": lambda: ball_ratio_curve(
                     mu, np.zeros(2), np.zeros(2), radius_schedule(0.5, 3), space, opts),
                 "sup_ball_mass": lambda: sup_ball_mass(mu, 0.5, space, opts)}
        with pytest.raises(InputError, match="norm dimension 3 differs from measure dimension 2"):
            calls[entry]()

    @pytest.mark.parametrize("entry", ["ball_mass", "ball_ratio_curve"])
    def test_a_centre_of_another_dimension_is_named(self, entry):
        mu, space = std_gaussian(2), WeightedSeqSpace.unweighted(1.0, 2)
        opts = RatioOpts(method="mc", n_samples=400, n_batches=4)
        calls = {"ball_mass": lambda: ball_mass(mu, np.zeros(3), 0.5, space, opts),
                 "ball_ratio_curve": lambda: ball_ratio_curve(
                     mu, np.zeros(2), np.zeros(3), radius_schedule(0.5, 3), space, opts)}
        with pytest.raises(InputError, match="dimension mismatch: expected 2, got 3"):
            calls[entry]()

    @pytest.mark.parametrize("entry", ["ball_mass", "ball_ratio_curve"])
    def test_a_list_centre_is_the_array_centre(self, entry):
        # centres are converted once, before the Monte Carlo table draws
        mu, space = BesovMeasure(1.0, 1, 1.0, 5), WeightedSeqSpace.unweighted(2.0, 5)
        opts = RatioOpts(n_samples=4_000, n_batches=4, seed=2)
        x1 = [0.3, -0.2, 0.1, 0.0, 0.05]
        if entry == "ball_mass":
            got, want = (ball_mass(mu, x, 0.5, space, opts) for x in (x1, np.array(x1)))
            assert got.method == "monte-carlo"
            assert (got.estimate, got.stderr) == (want.estimate, want.stderr)
        else:
            got, want = (ball_ratio_curve(mu, x, x2, radius_schedule(0.5, 4), space, opts)
                         for x, x2 in ((x1, [0.0] * 5), (np.array(x1), np.zeros(5))))
            assert got.method == "monte-carlo"
            _assert_same_estimate(got, want)

    def test_exact_method_unavailable_raises(self):
        # no exact rule for a Gaussian's l1 balls in two dimensions
        sp = WeightedSeqSpace.unweighted(1.0, 2)
        with pytest.raises(InputError):
            ball_mass(std_gaussian(2), np.zeros(2), 0.5, sp,
                      RatioOpts(method="exact"))

    def test_low_confidence_flag(self):
        # thin sliver: a ball barely reaching a degenerate rotated support
        # has a tiny hit rate, so the relative stderr blows up
        th = math.pi / 4
        v = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
        mu = GaussianMeasure(np.zeros(2), SpectralOperator(np.array([1.0, 0.0]), v))
        sp = WeightedSeqSpace.unweighted(2.0, 2)
        bm = ball_mass(mu, 0.3 * v[:, 1], 0.300001, sp,
                       RatioOpts(n_samples=2000, seed=12, method="mc"))
        assert bm.low_confidence

    def test_degenerate_direction_zero_mass(self):
        mu = GaussianMeasure(np.zeros(2), SpectralOperator(np.array([1.0, 0.0])))
        sp = WeightedSeqSpace.unweighted(2.0, 2)
        bm = ball_mass(mu, np.array([0.0, 1.0]), 0.5, sp,
                       RatioOpts(n_samples=10_000, seed=6))
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
                       RatioOpts(method="mc", n_samples=1000))
        assert (mc.estimate, mc.stderr) == (1.0, 0.0)
        curve = ball_ratio_curve(mu, np.array([0.0, 0.03]), np.zeros(2),
                                 np.array([0.1, 0.05]), sp)
        np.testing.assert_array_equal(curve.ratios, [1.0, 1.0])

    @pytest.mark.parametrize("method", ["quadrature", "exakt", "MC"])
    def test_unknown_method_rejected(self, method):
        with pytest.raises(ParameterError, match="method"):
            RatioOpts(method=method)

    @pytest.mark.parametrize("field,value", [
        ("n_batches", 0), ("n_batches", 1), ("n_samples", 0), ("fit_points", 0),
        ("fit_in", "r^2")],
        ids=["n_batches=0", "n_batches=1", "n_samples=0", "fit_points=0", "fit_in=r^2"])
    def test_unusable_monte_carlo_sizes_refused(self, field, value):
        # one batch has no stderr, an empty batch no estimate, no fit point no
        # limit, and an unknown abscissa would label a fit in r as something else
        with pytest.raises(ParameterError, match=field):
            RatioOpts(**{field: value})

    def test_mc_mass_at_large_p_stays_inside_the_sup_ball(self):
        # B_p is inside B_inf; |x|^5000 underflows unless each row is scaled by its max
        th = 0.3
        rot = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
        mu = GaussianMeasure(np.zeros(2), SpectralOperator(np.array([1.0, 0.5]), rot))
        opts = RatioOpts(n_samples=400_000, seed=1)
        big_p, sup = (ball_mass(mu, np.zeros(2), 0.3, WeightedSeqSpace.unweighted(p, 2), opts)
                      for p in (5000.0, math.inf))
        assert big_p.method == sup.method == "monte-carlo"
        assert big_p.estimate <= sup.estimate + 4 * math.hypot(big_p.stderr, sup.stderr)

    def test_density1d_refuses_what_it_cannot_do(self):
        plain = Density1D(pdf=lambda x: 0.5, support=((-1.0, 1.0),))
        with pytest.raises(InputError, match="Monte Carlo"):
            ball_mass(plain, 0.0, 0.2, None, RatioOpts(method="mc"))
        with pytest.raises(InputError, match="quadrature"):
            ball_mass(plain, 0.0, 0.2, None, RatioOpts(method="exact"))
        assert ball_mass(plain, 0.0, 0.2).method == "quadrature"

    def test_density1d_curve_names_quadrature(self):
        # the curve's masses come from quadrature, and it says so
        dens = Density1D(pdf=lambda x: 0.5, support=((-1.0, 1.0),))
        curve = ball_ratio_curve(dens, 0.0, 0.5, radius_schedule(0.2, 4))
        assert curve.method == "quadrature"
        np.testing.assert_allclose(curve.ratios, 1.0, rtol=1e-12)

    def test_density1d_on_the_whole_line(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dens = Density1D(lambda x: 0.5 * math.exp(-abs(x)), ((-math.inf, math.inf),))
        assert ball_mass(dens, 0.0, 1.0).estimate == pytest.approx(1.0 - math.exp(-1.0))

    def test_density1d_negative_far_out_is_refused(self):
        # negative beyond |x| > 5 only: the check must sample finite points there
        with pytest.raises(ParameterError, match="negative"):
            Density1D(lambda x: 0.5 * math.exp(-abs(x)) - (0.01 if abs(x) > 5.0 else 0.0),
                      ((-math.inf, math.inf),), total_mass=1.0)

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


def _reference_exact_log_mass(measure, center, radius, space, closed) -> float:
    """One radius's factorising log mass: the coordinates' log interval
    masses, reflected above the mean and summed as one vector."""
    inside = np.less_equal if closed else np.less
    c, mean = measure.to_eigen(center), measure.eigen_mean
    sd, log_sf = measure.scale, measure.factor.log_sf
    half = radius * space.weights
    pinned = sd == 0.0
    if not np.all(inside(np.abs(c - mean)[pinned], half[pinned])):
        return -math.inf
    free = ~pinned
    lo = (c - half - mean)[free] / sd[free]
    hi = (c + half - mean)[free] / sd[free]
    below = lo + hi < 0
    lo, hi = np.where(below, -hi, lo), np.where(below, -lo, hi)
    ls_lo = log_sf(lo)
    return float(np.sum(ls_lo + np.log(-np.expm1(log_sf(hi) - ls_lo))))


def _exact_table_case(kind, dim):
    """A product measure with a closed form in a weighted sup norm, and
    centres about it.  A Gaussian pins its first coordinate at 0 when
    dim > 1; the last centre sits there on the edge of the fourth ball."""
    rng = np.random.default_rng(dim)
    radii = radius_schedule(0.5, 10)
    if kind == "gaussian":
        eig = rng.uniform(0.5, 2.0, dim)
        mean = rng.normal(0.0, 0.5, dim)
        if dim > 1:
            eig[0] = mean[0] = 0.0
        mu = GaussianMeasure(mean, SpectralOperator(eig))
    else:
        mu = BesovMeasure(1.0, 1, 1.0, dim)
    space = WeightedSeqSpace(math.inf, rng.uniform(0.5, 2.0, dim))
    centers = [mu.mean.copy()] + [mu.mean + rng.normal(0.0, s, dim) for s in (0.05, 1.0, 30.0)]
    centers[1][0] = mu.mean[0]
    centers[-1][0] = mu.mean[0] + radii[3] * space.weights[0]
    return mu, centers, radii, space


class TestMassTable:
    @pytest.mark.parametrize("closed", [False, True], ids=["open", "closed"])
    @pytest.mark.parametrize("dim", [1, 50, 200])
    @pytest.mark.parametrize("kind", ["gaussian", "besov1"])
    def test_exact_rows_are_the_per_radius_sums(self, kind, dim, closed):
        # each row sums every radius's coordinates in the order one radius
        # alone would: bit for bit, pinned coordinate and ball edge included
        mu, centers, radii, space = _exact_table_case(kind, dim)
        table, method = _log_mass_table(mu, centers, radii, space, RatioOpts(closed=closed))
        assert (method, table.shape) == ("closed-form", (len(centers), len(radii), 1))
        ref = [[_reference_exact_log_mass(mu, c, float(r), space, closed) for r in radii]
               for c in centers]
        np.testing.assert_array_equal(table[:, :, 0], ref)
        assert np.all(np.isfinite(table[:2]))  # on the mean in the pinned coordinate
        if kind == "gaussian" and dim > 1:  # the edge centre: in the closed ball only
            missed = np.flatnonzero(np.isneginf(table[-1, :, 0])).tolist()
            assert missed == list(range(4 if closed else 3, len(radii)))

    @pytest.mark.parametrize("closed", [False, True], ids=["open", "closed"])
    def test_exact_ball_mass_is_the_one_cell_table(self, closed):
        mu, centers, radii, space = _exact_table_case("gaussian", 50)
        for c in centers:
            for r in radii[::3]:
                got = ball_mass(mu, c, float(r), space, RatioOpts(method="exact", closed=closed))
                ref = _reference_exact_log_mass(mu, c, float(r), space, closed)
                assert (got.estimate, got.stderr, got.method) == (float(np.exp(ref)), 0.0,
                                                                   "closed-form")
                assert not got.low_confidence

    @pytest.mark.parametrize("closed", [False, True], ids=["open", "closed"])
    def test_monte_carlo_ball_mass_keeps_its_draws(self, closed):
        # the one-cell table draws from the "ball-mass" stream, as before
        mu = GaussianMeasure(np.array([0.3, -0.2, 0.1]),
                             SpectralOperator(np.array([1.0, 0.5, 0.0])))
        space = WeightedSeqSpace(2.0, np.array([1.0, 2.0, 0.7]))
        c, r = np.array([0.5, 0.0, 0.1]), 0.6
        opts = RatioOpts(n_samples=4000, n_batches=8, seed=11, method="mc", closed=closed)
        got = ball_mass(mu, c, r, space, opts)
        batches = np.exp(_mc_mass_batches(mu, [c], np.array([r]), space, opts.n_samples,
                                          opts.n_batches, opts.seed, "ball-mass", closed)[0, 0])
        est = float(np.mean(batches))
        se = float(np.std(batches, ddof=1) / math.sqrt(len(batches)))
        assert (got.estimate, got.stderr, got.method) == (est, se, "monte-carlo")
        assert got.low_confidence == (se > _LOW_CONFIDENCE_REL_ERR * est)
        # in this weighted l2 norm "auto" reads the exact series mass, the
        # Monte Carlo mass's expectation
        exact = ball_mass(mu, c, r, space, replace(opts, method="auto"))
        assert (exact.method, exact.stderr, exact.low_confidence) == ("series", 0.0, False)
        assert abs(exact.estimate - got.estimate) < 4 * got.stderr
        assert ball_mass(mu, c, r, space, replace(opts, method="exact")) == exact

    def test_monte_carlo_closed_sup_ball_whose_pinned_offset_is_the_radius(self):
        # N(0, diag(1, 0)) about (0, 0.05) at r = 0.05: the pinned offset
        # equals r, so the closed ball holds the segment |u_1| <= 0.05 and
        # the open ball nothing
        mu = GaussianMeasure(np.zeros(2), SpectralOperator(np.array([1.0, 0.0])))
        space, c, r = WeightedSeqSpace.unweighted(math.inf, 2), np.array([0.0, 0.05]), 0.05
        opts = RatioOpts(n_samples=40_000, method="mc", closed=True)
        closed = ball_mass(mu, c, r, space, opts)
        assert closed.method == "monte-carlo" and not closed.low_confidence
        assert abs(closed.estimate - math.erf(0.05 / math.sqrt(2.0))) < 4 * closed.stderr
        assert ball_mass(mu, c, r, space, replace(opts, closed=False)).estimate == 0.0


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
        expected = math.exp(fn.eval(x2) - fn.eval(x1))
        cur = ball_ratio_curve(mu, x1, x2, radius_schedule(0.2, 10), sp,
                               RatioOpts(n_samples=40_000, seed=11))
        half = 0.5 * (cur.ci[1] - cur.ci[0])
        assert abs(cur.extrapolated_limit - expected) < max(3 * cur.se_limit, half) + 1e-4

    def test_interval_is_the_exact_intercept_variance(self):
        # the intercept of the log-ratio fit is linear in the log ratios, so
        # its sd is sqrt(sum_i (P[0, i] se_i / y_i)^2) with P the pseudoinverse.
        # A Laplace centre's zero coordinates add s |z|.(w / b) to the log
        # density at z and at -z alike, so antithetic pairs leave its
        # sampling noise above the fit residual, unlike a Gaussian's
        besov, x1 = BesovMeasure(1.0, 1, 1.0, 4), np.array([0.3, -0.2, 0.1, 0.0])
        mc = ball_ratio_curve(besov, x1, np.zeros(4), radius_schedule(0.2, 10),
                              WeightedSeqSpace.unweighted(2.0, 4),
                              RatioOpts(n_samples=1_000, seed=11))
        exact = ball_ratio_curve(besov, x1, np.zeros(4), radius_schedule(0.5, 8),
                                 WeightedSeqSpace(math.inf, np.ones(4)))
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
        # one radius: a degree-0 fit, ci = exp(log y -+ 1.96 se / y); a ball
        # wide against the Laplace scales keeps 25 draws a batch noisy
        mu = BesovMeasure(1, 1, 1, 20)
        x1 = np.zeros(20)
        x1[:3] = [1.6, -1.2, 1.0]
        cur = ball_ratio_curve(mu, x1, np.zeros(20), [5.0], WeightedSeqSpace.unweighted(2.0, 20),
                               RatioOpts(n_samples=400, n_batches=8, seed=0))
        y, se = cur.ratios[0], cur.stderr[0]
        assert se / y > 0.5  # wide enough that y - 1.96 se < 0
        assert cur.diagnostic == "single-radius-no-extrapolation"
        assert cur.extrapolated_limit == pytest.approx(y, rel=1e-15)
        assert cur.ci[0] > 0
        np.testing.assert_allclose(cur.ci, y * np.exp([-1.96 * se / y, 1.96 * se / y]),
                                   rtol=1e-12)
        assert cur.se_limit == pytest.approx(se, rel=1e-15)


    @pytest.mark.parametrize("x2,limit,diagnostic", [
        (37.66, 1.1959838987166928e308, None),
        (37.67, 1.7431767699699768e308, "ci-upper-overflow"),
        (37.675, math.inf, "limit-overflow"),
        (37.68, math.nan, "infinite-ratios-in-fit-window")])
    def test_ratios_near_the_largest_float(self, x2, limit, diagnostic):
        # log ratio x2^2 / 2 in the limit: 709.1 at 37.66, past log(float max)
        # = 709.78 from 37.68; the fit window's ratios rise towards it
        cur = ball_ratio_curve(std_gaussian(1), [0.0], [x2], radius_schedule(0.2, 6),
                               WeightedSeqSpace(math.inf, np.ones(1)))
        assert cur.diagnostic == diagnostic
        if math.isnan(limit):
            assert np.isposinf(cur.ratios[-1]) and math.isnan(cur.extrapolated_limit)
            return
        assert np.all(np.isfinite(cur.ratios))
        assert cur.extrapolated_limit == pytest.approx(limit, rel=1e-12)
        assert cur.ci[0] < cur.extrapolated_limit <= cur.ci[1]
        assert math.isinf(cur.ci[1]) == (diagnostic is not None)

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


def _one_curve(log_num, log_den, radii, opts):
    """One ratio curve and its fit as the per-curve code computed them
    before the fits were batched: two least-squares solves per curve."""
    def log_mean_exp(x):
        top = np.max(x, axis=1, keepdims=True)
        top[~np.isfinite(top)] = 0.0
        with np.errstate(divide="ignore"):
            return top[:, 0] + np.log(np.mean(np.exp(x - top), axis=1))

    def exp_or_inf(v):
        try:
            return math.exp(v)
        except OverflowError:
            return math.inf

    log1, log2 = log_mean_exp(log_num), log_mean_exp(log_den)
    outside = np.isneginf(log2)
    with np.errstate(invalid="ignore", over="ignore"):
        rb = np.where(np.isneginf(log_den), np.nan, np.exp(log_num - log_den))
        ratios = np.where(outside, np.nan, np.exp(log1 - log2))
    count = np.sum(np.isfinite(rb), axis=1)
    k = count > 1
    ses = np.zeros(len(radii))
    scale = np.where((ratios > 0) & (ratios < np.inf), ratios, 1.0)[k]
    ses[k] = scale * np.nanstd(rb[k] / scale[:, None], axis=1, ddof=1) / np.sqrt(count[k])
    ses = np.nan_to_num(ses)
    out = {"ratios": ratios, "stderr": ses}
    n_fit = min(opts.fit_points, len(radii))
    idx = np.argsort(radii)[:n_fit]
    r, y, se = radii[idx], ratios[idx], ses[idx]
    if np.any(~np.isfinite(y)) or np.any(y <= 0):
        nan = float("nan")
        out.update(extrapolated_limit=nan, ci=(nan, nan), se_model=nan, se_limit=nan,
                   diagnostic=("infinite-ratios-in-fit-window" if np.any(np.isposinf(y))
                               else "nonpositive-ratios-in-fit-window"))
    else:
        x = np.sqrt(r) if opts.fit_in == "sqrt_r" else r
        logy = np.log(y)
        a = np.column_stack([np.ones_like(x), x])[:, :min(n_fit, 2)]
        coef, *_ = np.linalg.lstsq(a, logy, rcond=None)
        se_model = float(np.sqrt(np.mean((logy - a @ coef) ** 2)))
        p0 = np.linalg.lstsq(a, np.eye(n_fit), rcond=None)[0][0]
        se_fit = float(np.sqrt(np.sum((p0 * se / y) ** 2)))
        half = 1.96 * se_fit + 2.0 * se_model
        limit = exp_or_inf(coef[0])
        ci = (exp_or_inf(coef[0] - half), exp_or_inf(coef[0] + half))
        if math.isinf(ci[1]):
            diagnostic = "limit-overflow" if math.isinf(limit) else "ci-upper-overflow"
        else:
            diagnostic = "single-radius-no-extrapolation" if n_fit == 1 else None
        out.update(extrapolated_limit=limit, ci=ci, se_model=se_model,
                   se_limit=limit * math.hypot(se_fit, se_model), diagnostic=diagnostic)
    if np.any(outside):
        out["diagnostic"] = "x2 outside support"
    return out


def _assert_same_curves(log_num, log_den, radii, opts):
    """``_ratio_curves`` over broadcast rows against ``_one_curve`` on each
    pair of rows, floats compared bit for bit; returns the diagnostics.
    Per-batch ratios near the largest float overflow the standard error's
    squares in both, which is not what is compared here."""
    with np.errstate(over="ignore", invalid="ignore"):
        got = _ratio_curves(log_num, log_den, radii, opts)
    n = max(len(log_num), len(log_den))
    assert got["ratios"].shape == got["stderr"].shape == (n, len(radii))
    assert all(len(v) == n for v in got.values())
    bits = lambda v: np.asarray(v, dtype=float).view(np.int64)
    for i in range(n):
        with np.errstate(over="ignore", invalid="ignore"):
            want = _one_curve(log_num[min(i, len(log_num) - 1)],
                              log_den[min(i, len(log_den) - 1)], radii, opts)
        for key, value in want.items():
            if key == "diagnostic":
                assert got[key][i] == value, (i, key)
            else:
                np.testing.assert_array_equal(bits(got[key][i]), bits(value), err_msg=f"{i} {key}")
    return got["diagnostic"]


#: (diagnostic, log ratio as a function of the radius) of the synthetic rows
_LOG_RATIO_ROWS = (
    (None, lambda r: -0.4 + 3.0 * r),
    (None, lambda r: 2.0 - 5.0 * r + 0.1 * np.cos(40.0 * r)),
    ("infinite-ratios-in-fit-window", lambda r: np.where(r < 0.03, 750.0, 700.0)),
    ("nonpositive-ratios-in-fit-window", lambda r: np.where(r == r.min(), -800.0, 0.1)),
    ("limit-overflow", lambda r: 709.79 - 20.0 * r),
    ("ci-upper-overflow", lambda r: 709.5 - 20.0 * r + 0.3 * np.cos(np.pi * np.arange(r.size))),
)


def _synthetic_tables(radii, n_batches, seed):
    """A shared row, the rows whose log ratio to it is each entry of
    ``_LOG_RATIO_ROWS``, and the rows it has that log ratio to.  Monte
    Carlo tables (n_batches > 1) get per-batch noise and empty batches."""
    rng = np.random.default_rng(seed)
    shape = (len(radii), n_batches)
    noise = lambda sd: rng.normal(0.0, sd, shape) if n_batches > 1 else 0.0
    base = np.log(radii)[:, None] + noise(0.2)
    if n_batches > 1:
        base[0, :3] = -np.inf  # empty batches at the largest radius
    logs = [f(radii)[:, None] for _, f in _LOG_RATIO_ROWS]
    nums = np.array([base + v + noise(0.1) for v in logs])
    dens = np.array([base - v + noise(0.1) for v in logs])
    if n_batches > 1:
        nums[0, -1, 1] = dens[0, -1, 1] = -np.inf
    return base[None], nums, dens


class TestRatioCurves:
    """The batched fit of every curve of a mass table against the
    per-curve formula, compared bit for bit."""

    @pytest.mark.parametrize("n_batches", [1, 20])
    @pytest.mark.parametrize("levels,fit_in", [(8, "r"), (8, "sqrt_r"), (1, "r")])
    def test_many_over_one_and_one_over_many(self, n_batches, levels, fit_in):
        radii = radius_schedule(0.16, levels)
        opts = RatioOpts(fit_in=fit_in)
        shared, nums, dens = _synthetic_tables(radii, n_batches, seed=levels)
        # a numerator of zero mass and a denominator of zero mass at the
        # smallest radius
        nums, dens = np.concatenate([nums, nums[:1]]), np.concatenate([dens, dens[:1]])
        nums[-1, -1] = dens[-1, -1] = -np.inf
        many = _assert_same_curves(nums, shared, radii, opts)
        one = _assert_same_curves(shared, dens, radii, opts)
        if levels > 1:
            assert many[:-1] == one[:-1] == [diagnostic for diagnostic, _ in _LOG_RATIO_ROWS]
        else:
            assert many[:2] == ["single-radius-no-extrapolation"] * 2
        assert many[-1] == "nonpositive-ratios-in-fit-window"
        assert one[-1] == "x2 outside support"

    @pytest.mark.parametrize("fit_points", [8, 12])
    def test_long_fit_window_agrees_to_the_last_bit(self, fit_points):
        # from 8 radii in the fit window LAPACK solves several right-hand
        # sides in another order than one, and an intercept may move by 1 ulp
        radii = radius_schedule(0.16, 14)
        shared = _synthetic_tables(radii, 20, seed=0)[0]
        nums = shared + np.random.default_rng(1).normal(0.0, 0.5, (30, 14, 20))
        opts = RatioOpts(fit_points=fit_points)
        got = _ratio_curves(nums, shared, radii, opts)
        for i, num in enumerate(nums):
            want = _one_curve(num, shared[0], radii, opts)
            np.testing.assert_array_equal(got["ratios"][i], want["ratios"])
            np.testing.assert_array_equal(got["stderr"][i], want["stderr"])
            for key in ("extrapolated_limit", "ci", "se_model", "se_limit"):
                np.testing.assert_allclose(got[key][i], want[key], rtol=4e-16, atol=0)

    @pytest.mark.parametrize("p", [2.0, math.inf])
    def test_mass_table_rows(self, p):
        # l2 balls have series masses, sup-norm balls closed-form ones; the
        # last centre is off the support (zero variance in coordinate 2)
        mu = GaussianMeasure(np.array([0.1, 0.0]), SpectralOperator(np.array([1.0, 0.0])))
        space = WeightedSeqSpace.unweighted(p, 2)
        centers = [[0.1, 0.0], [0.6, 0.0], [-1.2, 0.0], [2.0, 0.0], [0.3, 0.5]]
        radii = radius_schedule(0.4, 7)
        table, method = _log_mass_table(mu, centers, radii, space,
                                        RatioOpts(n_samples=4_000, seed=3))
        assert method == ("series" if p == 2.0 else "closed-form")
        many = _assert_same_curves(table[1:], table[:1], radii, RatioOpts())
        one = _assert_same_curves(table[:1], table[1:], radii, RatioOpts())
        assert many[-1] == "nonpositive-ratios-in-fit-window"
        assert one[-1] == "x2 outside support"

    def test_zero_rows(self):
        radii = radius_schedule(0.16, 4)
        fit = _ratio_curves(np.zeros((0, 4, 20)), np.zeros((1, 4, 20)), radii, RatioOpts())
        assert fit["ratios"].shape == fit["stderr"].shape == (0, 4)
        assert all(len(v) == 0 for v in fit.values())

    def test_batch_spread_near_the_largest_float(self):
        # per-batch ratios near exp(700) = 1e304: their squared deviations
        # would overflow, their spread relative to the ratio does not
        rng = np.random.default_rng(3)
        log_num = 700.0 + rng.normal(0.0, 0.1, (1, 3, 20))
        fit = _ratio_curves(log_num, np.zeros((1, 3, 20)), np.array([0.1, 0.05, 0.025]),
                            RatioOpts())
        ses = fit["stderr"][0]
        assert np.all(np.isfinite(ses)) and np.all(ses > 0)
        want = np.exp(700.0) * np.std(np.exp(log_num[0] - 700.0), axis=1, ddof=1) / math.sqrt(20)
        np.testing.assert_allclose(ses, want, rtol=1e-12)

    def test_whole_interval_beyond_the_largest_float(self):
        # the intercept exceeds log(float max) by more than the interval's half-width
        fit = _ratio_curves(np.log([1e308, 1.5e308]).reshape(1, 2, 1), np.zeros((1, 2, 1)),
                            np.array([0.1, 0.05]), RatioOpts())
        limit, ci = fit["extrapolated_limit"][0], fit["ci"][0]
        assert limit == ci[0] == ci[1] == math.inf
        assert fit["diagnostic"][0] == "limit-overflow"

    def test_classify_mode_fits_every_competitor_in_one_solve(self, monkeypatch):
        calls = []
        lstsq = np.linalg.lstsq
        monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **kw: calls.append(1) or lstsq(*a, **kw))
        from ommap.om import classify_mode
        cls = classify_mode(OmNotStrongMeasure(), [1.0], [[float(k)] for k in range(2, 22)],
                            radius_schedule(1e-3, 8, factor=4.0))
        assert cls.weak_worst_ratio > 1.0
        assert len(calls) <= 2


def _direct_log_density(factor, pts, mean, spread):
    """Product log density of free coordinates, evaluated term by term."""
    if isinstance(factor, NormalFactor):
        return (-0.5 * np.sum((pts - mean) ** 2 / spread, axis=1)
                - 0.5 * np.sum(np.log(2.0 * math.pi * spread)))
    return -np.sum(np.abs(pts) / spread, axis=1) - np.sum(np.log(2.0 * spread))


def _direct_norm_mc_batches(measure, centers, radii, space, n_samples, n_batches, seed,
                            stream, closed, z=None):
    """Rotated-basis ``_mc_mass_batches`` with the ball indicator taken per
    radius from the direct norms of rho zb + offset and -rho zb + offset,
    the antithetic pairs of half as many draws, batch b on the stream
    (seed, stream, b), or the one batch on the draws ``z`` where given."""
    setup = _ProductSetup(measure, space)
    plans = [_CenterPlan(setup, c) for c in centers]
    props = [np.array([plan.proposal(float(r), closed) for r in radii]).T for plan in plans]
    cmp = np.less_equal if closed else np.less
    out = np.empty((len(plans), len(radii), n_batches))
    for b in range(n_batches):
        draws = _Draws(setup, z if z is not None else
                       _uniform_pball(child_rng(seed, stream, b),
                                      (n_samples // n_batches + 1) // 2, setup.k_free,
                                      setup.draw_p))
        for ci, (center, plan, (scales, logv)) in enumerate(zip(centers, plans, props)):
            ld = plan.log_density(draws, scales)
            # ambient offset of the pinned coordinates from the mean
            offset = np.zeros(measure.dim)
            offset[setup.zero] = (setup.mean_e - setup.to_eigen(center))[setup.zero]
            offset = setup.basis @ offset
            for ri, (r, rho) in enumerate(zip(radii, scales)):
                pts = np.concatenate([rho * draws.zb + offset, -rho * draws.zb + offset])
                diff = np.abs(pts) / space.weights
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
        z = _uniform_pball(rng, 25, len(c_free), setup.draw_p)
        scales = np.array([0.0, 1e-3, 0.1, 1.7])
        got = plan.log_density(_Draws(setup, z), scales)
        assert got.shape == (4, 50)
        for s, row in zip(scales, got):
            # the draws z, then their antithetic twins -z
            pts = np.concatenate([c_free + s * w * z, c_free - s * w * z])
            want = _direct_log_density(setup.factor, pts, m_free, spread)
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
        got = _mc_mass_batches(*args, seed, "indicator", closed)
        want = _direct_norm_mc_batches(*args, seed, "indicator", closed)
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


def _einsum_operands():
    """Every subscript string the library passes to einsum, on the operand
    shapes and layouts it passes: one point or a row stack, contiguous or a
    column slice (reversed too), and a fancy-indexed fit table."""
    rng = np.random.default_rng(11)
    out = []
    for shape in [(1,), (6,), (50,), (257,), (0, 6), (1, 6), (7, 50), (399, 6), (64, 257)]:
        w = rng.normal(size=shape) * rng.uniform(0.5, 2.0, shape[-1])
        out.append(("...i,...i->...", (w, w)))
        if len(shape) == 2:
            out.append(("ij,ij->i", (w, w)))
    g, coef = rng.normal(size=(5, 40)), rng.uniform(size=(5, 40))
    for k in (1, 2, 17, 39):
        out.append(("ij,ij->i", (g[:, 1:k + 1], coef[:, k - 1::-1])))
    log_rb = rng.normal(size=(6, 10, 8))
    ok, idx = np.array([True, False, True, True, False, True]), np.array([2, 3, 5, 8])
    out.append(("i,cib->cb", (rng.normal(size=4), log_rb[ok][:, idx])))
    return out


@pytest.mark.parametrize("subscripts, operands", _einsum_operands())
def test_einsum_kernel_is_numpys_einsum_bit_for_bit(subscripts, operands):
    got = ommap.measures._einsum(subscripts, *operands)
    want = np.einsum(subscripts, *operands)
    assert type(got) is type(want)
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


class TestAntitheticPairs:
    @pytest.mark.parametrize("rotated", [False, True], ids=["aligned", "rotated"])
    @pytest.mark.parametrize("n_samples,n_batches,half", [(80, 4, 10), (84, 4, 11), (7, 7, 1)])
    def test_half_the_draws_per_batch(self, monkeypatch, rotated, n_samples, n_batches, half):
        # each batch draws (n_samples // n_batches + 1) // 2 points, each used at z and -z
        calls = []

        def spy(rng, n, k, p, out=None):
            calls.append(n)
            return _uniform_pball(rng, n, k, p, out)

        monkeypatch.setattr(ommap.measures, "_uniform_pball", spy)
        basis = np.linalg.qr(np.random.default_rng(1).normal(size=(3, 3)))[0] if rotated else None
        mu = GaussianMeasure(np.zeros(3), SpectralOperator(np.array([1.0, 0.5, 2.0]), basis))
        centers = [np.zeros(3), np.array([0.2, -0.1, 0.3])]
        out = _mc_mass_batches(mu, centers, radius_schedule(0.5, 3),
                               WeightedSeqSpace.unweighted(2.0, 3), n_samples, n_batches,
                               0, "pairs")
        assert calls == [half] * n_batches
        assert out.shape == (2, 3, n_batches) and np.all(np.isfinite(out))

    @pytest.mark.parametrize("rotated", [False, True], ids=["aligned", "rotated"])
    @pytest.mark.parametrize("seed", range(8))
    def test_gaussian_l2_ratio_noise_cancels(self, rotated, seed):
        # the log density's first-order term is odd in z: a pair's mean
        # density is exact to first order, so the smallest radius's ratio
        # keeps only second-order noise (about 5e-7 relative without pairs)
        rng = np.random.default_rng(seed)
        eig = rng.uniform(0.5, 2.0, 3)
        basis = np.linalg.qr(rng.normal(size=(3, 3)))[0] if rotated else None
        mu = GaussianMeasure(rng.normal(0.0, 0.5, 3), SpectralOperator(eig, basis))
        x1 = mu.mean + rng.normal(0.0, 0.5, 3)
        cur = ball_ratio_curve(mu, x1, mu.mean, radius_schedule(0.2, 10),
                               WeightedSeqSpace.unweighted(2.0, 3),
                               RatioOpts(n_samples=100_000, n_batches=20, seed=seed,
                                         method="mc"))
        assert cur.method == "monte-carlo"
        assert cur.stderr[-1] / cur.ratios[-1] < 1e-9

    @pytest.mark.parametrize("kind", ["gaussian", "besov1"])
    def test_sup_norm_masses_match_the_closed_form(self, kind):
        # pairs keep every batch unbiased: forced Monte Carlo masses of
        # sup-norm balls about off-mean centres against the exact product
        rng = np.random.default_rng(21)
        if kind == "gaussian":
            mu = GaussianMeasure(rng.normal(0.0, 0.5, 4), SpectralOperator(rng.uniform(0.5, 2.0, 4)))
        else:
            mu = BesovMeasure(1.1, 1, 1.0, 4)
        space = WeightedSeqSpace(math.inf, rng.uniform(0.5, 2.0, 4))
        radii = np.array([0.8, 0.3, 0.1])
        opts = RatioOpts(n_samples=20_000, n_batches=20, method="mc", seed=4)
        for c in (mu.mean + rng.normal(0.0, 0.6, 4), mu.mean + np.array([0.9, 0.0, -0.4, 0.2])):
            table, method = _product_exact_log_mass(mu, [c], radii, space, closed=False)
            assert method == "closed-form"
            exact = np.exp(table[0])
            for r, want in zip(radii, exact):
                got = ball_mass(mu, c, float(r), space, opts)
                assert got.method == "monte-carlo" and got.stderr > 0
                assert abs(got.estimate - want) < 4 * got.stderr


def _table_case(kind):
    """(measure, centres, radii, space) of a Monte Carlo table for the
    batch and chunk tests: an aligned Besov-1 l2 table, or a rotated
    Gaussian with one pinned coordinate and a centre off the mean there."""
    if kind == "besov_aligned":
        x = np.zeros(20)
        x[:3] = [0.4, -0.3, 0.2]
        return (BesovMeasure(1.0, 1, 1.0, 20), [x, np.zeros(20)], radius_schedule(0.6, 5),
                WeightedSeqSpace.unweighted(2.0, 20))
    rng = np.random.default_rng(33)
    basis = np.linalg.qr(rng.normal(size=(4, 4)))[0]
    mu = GaussianMeasure(rng.normal(0.0, 0.5, 4),
                         SpectralOperator(np.array([1.0, 0.0, 0.5, 2.0]), basis))
    off = mu.mean + basis @ np.array([0.3, 0.05, -0.2, 0.1])
    space = WeightedSeqSpace(2.0, np.array([1.0, 0.5, 2.0, 0.8]))
    assert _CenterPlan(_ProductSetup(mu, space), off).fix_vec is not None
    return mu, [off, mu.mean], radius_schedule(0.8, 5), space


class TestBatchThreads:
    """Batch b of a Monte Carlo table draws from the stream (seed, stream, b),
    and every batch is drawn on the caller's thread."""

    def test_each_batch_is_a_one_batch_table_on_its_stream(self, monkeypatch):
        mu, centers, radii, space = _table_case("gauss_rotated_pinned")
        table = _mc_mass_batches(mu, centers, radii, space, 2_000, 8, 5, "threads")
        for b in range(8):
            def stream_b(seed, *key, b=b):
                # a one-batch table draws its batch 0 from (seed, stream, 0)
                assert (seed, key) == (5, ("threads", 0))
                return child_rng(5, "threads", b)

            monkeypatch.setattr(ommap.measures, "child_rng", stream_b)
            one = _mc_mass_batches(mu, centers, radii, space, 2_000 // 8, 1, 5, "threads")
            assert one[:, :, 0].tobytes() == table[:, :, b].tobytes()

    def test_every_batch_is_drawn_on_the_callers_thread(self, monkeypatch):
        # a dim-100 Besov-1 curve, whose first chunk holds 512 draws x 100
        # free dimensions, and a ball mass of 20 batches of 2,500 x 100:
        # tables large enough that sharing their batches among threads could pay
        draw, threads = ommap.measures._uniform_pball, []

        def on_thread(rng, n, k, p, out=None):
            threads.append(threading.get_ident())
            return draw(rng, n, k, p, out)

        monkeypatch.setattr(ommap.measures, "_uniform_pball", on_thread)
        mu, space = BesovMeasure(0.9, 1, 1.0, 100), WeightedSeqSpace.unweighted(2.0, 100)
        x1 = np.zeros(100)
        x1[:3] = [0.3, -0.2, 0.1]
        opts = RatioOpts(n_samples=100_000, n_batches=20, seed=3)
        ball_ratio_curve(mu, x1, np.zeros(100), radius_schedule(0.2, 10), space, opts)
        assert len(threads) >= 4
        n_curve = len(threads)
        ball_mass(mu, x1, 0.5, space, opts)
        assert len(threads) == n_curve + 20
        assert set(threads) == {threading.get_ident()}

    @pytest.mark.parametrize("chunked", [False, True], ids=["whole", "chunked"])
    @pytest.mark.parametrize("kind", ["besov_aligned", "gauss_rotated_pinned"])
    def test_no_batch_reads_what_the_draw_buffer_held(self, monkeypatch, kind, chunked):
        # every batch and chunk is drawn into the rows of one buffer; rows
        # left NaN before each draw must not reach the table
        args = (*_table_case(kind), 20_000, 8, 5, "buffer", False, _never if chunked else None)
        want = _mc_mass_batches(*args)
        draw = ommap.measures._uniform_pball

        def on_nan(rng, n, k, p, out=None):
            (out if out.base is None else out.base).fill(np.nan)  # the whole buffer
            return draw(rng, n, k, p, out)

        monkeypatch.setattr(ommap.measures, "_uniform_pball", on_nan)
        got = _mc_mass_batches(*args)
        assert np.all(np.isfinite(want))
        assert got.tobytes() == want.tobytes()

    def test_an_error_in_a_batch_reaches_the_caller(self, monkeypatch):
        draw, drawn = ommap.measures._uniform_pball, []

        class BatchError(Exception):
            pass

        def failing_third(rng, n, k, p, out=None):
            drawn.append(n)
            if len(drawn) == 3:
                raise BatchError
            return draw(rng, n, k, p, out)

        monkeypatch.setattr(ommap.measures, "_uniform_pball", failing_third)
        with pytest.raises(BatchError):
            _mc_mass_batches(*_table_case("besov_aligned"), 2_000, 8, 5, "threads")
        assert len(drawn) == 3  # no batch is drawn after the one that failed

    def test_memory_does_not_grow_with_the_batches(self):
        # one draw buffer a table: 20 batches of 2,500 x 20 draws peak where
        # 4 batches of the same size do, far below the 8 MB of all 20 buffers
        case, peaks = _table_case("besov_aligned"), []
        for n_batches in (4, 20):
            tracemalloc.start()
            try:
                _mc_mass_batches(*case, 5_000 * n_batches, n_batches, 5, "memory")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.25 * peaks[0]
        assert peaks[1] < 4e6

    def test_callers_errstate_holds_in_every_thread(self, monkeypatch):
        # numpy keeps errstate in a context variable; a batch drawn outside
        # the caller's context would only warn
        stat = LaplaceFactor.mc_draw_stat

        def dividing(self, setup, z):
            return stat(self, setup, z) + np.ones(len(z)) / np.zeros(len(z))

        monkeypatch.setattr(LaplaceFactor, "mc_draw_stat", dividing)
        with np.errstate(divide="raise"), pytest.raises(FloatingPointError):
            _mc_mass_batches(*_table_case("besov_aligned"), 2_000, 8, 5, "threads")


def _budget_case():
    """(measure, x1, x2, radii, space) of a curve whose masses only Monte
    Carlo gives: l2 balls of a Besov-1 measure in dimension 20."""
    x1 = np.zeros(20)
    x1[:3] = [0.4, -0.3, 0.2]
    return (BesovMeasure(1.0, 1, 1.0, 20), x1, np.zeros(20), radius_schedule(0.2, 10),
            WeightedSeqSpace.unweighted(2.0, 20))


def _assert_same_estimate(a, b):
    """Every field of two ``BallRatioEstimate``s equal, floats bit for bit."""
    for f in dataclasses.fields(BallRatioEstimate):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if x is None or isinstance(x, str):
            assert x == y, f.name
        else:
            assert np.asarray(x, dtype=float).tobytes() == np.asarray(y, dtype=float).tobytes(), \
                f.name


def _spy_tables(monkeypatch):
    """Make every ``_mc_mass_batches`` call record (args, kwargs, table) in
    the returned list, ``settled`` left out of the kwargs."""
    calls, mc_mass_batches = [], ommap.measures._mc_mass_batches

    def spy(*args, **kwargs):
        table = mc_mass_batches(*args, **kwargs)
        calls.append((args, {k: v for k, v in kwargs.items() if k != "settled"}, table))
        return table

    monkeypatch.setattr(ommap.measures, "_mc_mass_batches", spy)
    return calls


class TestDrawBudget:
    """A ratio curve draws its Monte Carlo batches in rounds of
    ``_MC_MIN_BATCHES`` and stops once its limit has settled; the batches
    it reads are the first of the table every batch would give."""

    @pytest.mark.parametrize("n_samples,seed", [(2000, 0), (2000, 1), (2100, 1), (400, 1)])
    def test_a_stopped_curve_is_the_curve_of_its_batches(self, monkeypatch, n_samples, seed):
        calls = _spy_tables(monkeypatch)
        cur = ball_ratio_curve(*_budget_case(), RatioOpts(n_samples=n_samples, n_batches=20,
                                                          seed=seed))
        b = calls[0][2].shape[-1]
        assert b < 20 and b % ommap.measures._MC_MIN_BATCHES == 0
        per_batch = n_samples // 20
        assert cur.method == "monte-carlo"
        assert cur.n_samples == 2 * math.ceil(per_batch / 2) * b
        short = ball_ratio_curve(*_budget_case(), RatioOpts(n_samples=b * per_batch, n_batches=b,
                                                            seed=seed))
        _assert_same_estimate(cur, short)

    @pytest.mark.parametrize("n_batches,fit_points,n_samples,seed",
                             [(3, 5, 2000, 0), (20, 1, 2000, 0), (20, 5, 400, 0)],
                             ids=["three-batches", "one-radius-window", "unsettled"])
    def test_short_or_unsettled_tables_draw_every_batch(self, monkeypatch, n_batches, fit_points,
                                                        n_samples, seed):
        calls = _spy_tables(monkeypatch)
        opts = RatioOpts(n_samples=n_samples, n_batches=n_batches, fit_points=fit_points,
                         seed=seed)
        cur = ball_ratio_curve(*_budget_case(), opts)
        (args, kwargs, table), = calls
        assert table.shape[-1] == n_batches
        assert table.tobytes() == _mc_mass_batches(*args, **kwargs).tobytes()
        assert cur.n_samples == 2 * math.ceil(n_samples // n_batches / 2) * n_batches

    def test_a_curve_may_stop_after_more_than_one_round(self, monkeypatch):
        calls = _spy_tables(monkeypatch)
        ball_ratio_curve(*_budget_case(), RatioOpts(n_samples=2000, n_batches=20, seed=1))
        (_, _, table), = calls
        assert 4 < table.shape[-1] < 20  # more than one round, fewer than all

    def test_the_rule(self):
        # log ratios off a line by about 7e-3 rms: draw noise of 1e-4 per
        # batch leaves the limit settled, noise of 0.1 does not
        radii = radius_schedule(0.16, 8)
        line = (-0.4 + 3.0 * radii + 0.01 * np.cos(40.0 * radii))[None, :, None]
        noise = np.random.default_rng(0).normal(0.0, 1.0, (1, 8, 4))
        den = np.zeros((1, 8, 4))
        settled = lambda num, opts=RatioOpts(): _ratio_curves(num, den, radii, opts)["settled"]
        assert settled(line + 1e-4 * noise) == [True]
        assert settled(line + 0.1 * noise) == [False]
        assert settled(line + 0.0 * noise) == [True]
        # a fit window of one radius, an empty batch in the window, one batch
        assert settled(line + 0.0 * noise, RatioOpts(fit_points=1)) == [False]
        empty = line + 1e-4 * noise
        empty[0, -1, 2] = -np.inf
        assert settled(empty) == [False]
        assert _ratio_curves(line, den[:, :, :1], radii, RatioOpts())["settled"] == [False]

    def test_masses_and_verdicts_draw_every_batch(self, monkeypatch):
        draw, drawn = ommap.measures._uniform_pball, []

        def counted(rng, n, k, p, out=None):
            drawn.append(n)
            return draw(rng, n, k, p, out)

        monkeypatch.setattr(ommap.measures, "_uniform_pball", counted)
        mu, x1, x2, radii, space = _budget_case()
        opts = RatioOpts(n_samples=2000, n_batches=20, seed=0)
        ball_ratio_curve(mu, x1, x2, radii, space, opts)
        assert len(drawn) < 20  # the curve stops early on these draws
        drawn.clear()
        ommap.classify_mode(mu, x2, [x1], radii, space, ommap.ClassifyOpts(ratio=opts))
        assert len(drawn) == 20
        drawn.clear()
        ball_mass(mu, x1, 0.1, space, opts)
        assert len(drawn) == 20
        drawn.clear()
        gauss = GaussianMeasure(np.array([0.2, -0.1]), SpectralOperator(np.array([1.5, 0.0])))
        ommap.m_property_probe(gauss, prior_om(gauss), [np.array([0.2, 0.0])],
                               radius_schedule(0.4, 6), WeightedSeqSpace.unweighted(2.0, 2),
                               replace(opts, method="mc"))
        assert len(drawn) == 20

    def test_results_json_reports_the_evaluations_read(self, tmp_path):
        mu, x1, x2, radii, space = _budget_case()
        mc = {"kind": "ball_ratio", "seed": 1, "measure": {"type": "besov1", "s": 1.0, "d": 1,
                                                           "eta": 1.0, "dim": 20},
              "x1": x1.tolist(), "x2": x2.tolist(), "schedule": {"r0": 0.2, "levels": 10},
              "norm": {"p": 2}, "mc": {"n_samples": 2000}}
        exact = {**mc, "norm": {"p": "inf"}}
        want = ball_ratio_curve(mu, x1, x2, radii, space, RatioOpts(n_samples=2000, seed=1))
        assert 0 < want.n_samples < 2000
        for cfg, n in ((mc, want.n_samples), (exact, 0)):
            path, out = tmp_path / "cfg.json", tmp_path / str(cfg["norm"]["p"])
            path.write_text(json.dumps(cfg))
            with contextlib.redirect_stdout(io.StringIO()):
                assert ommap.cli.main(["--out", str(out), "run", str(path)]) == 0
            assert json.loads((out / "results.json").read_text())["results"]["n_samples"] == n


def _chunk_spy(monkeypatch):
    """Make every ``_uniform_pball`` call append its draw count to the
    returned list."""
    draw, drawn = ommap.measures._uniform_pball, []

    def counted(rng, n, k, p, out=None):
        drawn.append(n)
        return draw(rng, n, k, p, out)

    monkeypatch.setattr(ommap.measures, "_uniform_pball", counted)
    return drawn


def _never(table, draws):
    """A ``settled`` that never accepts."""
    return False


class TestChunkedBatches:
    """A table that may stop draws its first four batches in chunks that
    end at 512 2^j draws, and its ratio curve may stop at a chunk end;
    every other batch is drawn whole."""

    def test_chunk_sizes(self, monkeypatch):
        drawn, case = _chunk_spy(monkeypatch), _table_case("besov_aligned")
        _mc_mass_batches(*case, 20_000, 4, 0, "chunks", False, _never)
        assert drawn == [512] * 4 + [512] * 4 + [1024] * 4 + [452] * 4
        drawn.clear()
        _mc_mass_batches(*case, 8_192, 4, 0, "chunks", False, _never)
        assert drawn == [512] * 8  # a batch of 512 draws is one chunk
        drawn.clear()
        _mc_mass_batches(*case, 20_000, 4, 0, "chunks")
        assert drawn == [2_500] * 4  # a table that cannot stop is drawn whole
        drawn.clear()
        _mc_mass_batches(*case, 15_000, 3, 0, "chunks", False, _never)
        assert drawn == [2_500] * 3  # so is one of fewer than four batches

    @pytest.mark.parametrize("n_samples,n_batches", [(4_096, 4), (2_100, 20), (7, 7),
                                                     (20_000, 4)])
    @pytest.mark.parametrize("kind", ["besov_l2", "gauss_l1_weighted"])
    def test_a_one_call_batch_is_its_log_mean_exp(self, kind, n_samples, n_batches):
        # the reference draws each batch in one call and takes the log mean
        # of its evaluations: a table without settled at any batch size
        if kind == "besov_l2":
            mu, centers, radii, space = _table_case("besov_aligned")
        else:
            mu = GaussianMeasure(np.array([0.1, -0.2, 0.3]),
                                 SpectralOperator(np.array([1.0, 0.5, 2.0])))
            centers = [np.array([0.4, 0.1, -0.2]), mu.mean]
            radii = radius_schedule(0.5, 4)
            space = WeightedSeqSpace(1.0, np.array([1.0, 2.0, 0.5]))
        table = _mc_mass_batches(mu, centers, radii, space, n_samples, n_batches, 3, "one")
        setup = _ProductSetup(mu, space)
        plans = [_CenterPlan(setup, c) for c in centers]
        props = [np.array([plan.proposal(float(r), False) for r in radii]).T for plan in plans]
        half = (n_samples // n_batches + 1) // 2
        for b in range(n_batches):
            draws = _Draws(setup, _uniform_pball(child_rng(3, "one", b), half, setup.k_free,
                                                 setup.draw_p))
            for ci, (plan, (scales, logv)) in enumerate(zip(plans, props)):
                ld = plan.log_density(draws, scales)
                top = np.max(ld, axis=-1, keepdims=True)
                mean = np.mean(np.exp(ld - top), axis=-1)
                assert _log_mean_exp(ld).tobytes() == (top[:, 0] + np.log(mean)).tobytes()
                assert table[ci, :, b].tobytes() == (_log_mean_exp(ld) + logv).tobytes()

    def test_chunks_merge_to_the_log_mean_exp_of_the_batch(self):
        # rows with no mass in one part, in both, and log values far below
        # exp's range, where a placeholder max of 0 would underflow the sum
        rng = np.random.default_rng(0)
        x = rng.normal(-800.0, 3.0, (5, 30))
        x[1, :12] = x[2, 12:] = x[3] = -np.inf
        x[4] += 800.0
        cut = 12
        merged = _merge_log_sum_exp(*_log_sum_exp_parts(x[:, :cut]),
                                    *_log_sum_exp_parts(x[:, cut:]))
        got = _log_mean_of_parts(*merged, x.shape[-1])
        want = _log_mean_exp(x)
        assert np.isneginf(got[3]) and np.isneginf(want[3])
        np.testing.assert_allclose(np.delete(got, 3), np.delete(want, 3), rtol=1e-14)

    def test_a_chunked_batch_is_the_log_mean_exp_of_its_draws(self):
        # the batch's chunks drawn by hand and evaluated in one piece: the
        # running log-sum-exp rounds apart from one sum, but no further
        mu, centers, radii, space = _table_case("gauss_rotated_pinned")
        table = _mc_mass_batches(mu, centers, radii, space, 20_000, 4, 2, "merge", False,
                                 _never)[:, :, :1]
        setup = _ProductSetup(mu, space)
        rng = child_rng(2, "merge", 0)
        z = np.concatenate([_uniform_pball(rng, n, setup.k_free, setup.draw_p)
                            for n in (512, 512, 1024, 452)])
        want = _direct_norm_mc_batches(mu, centers, radii, space, 5_000, 1, 2, "merge", False, z)
        np.testing.assert_allclose(table, want, rtol=1e-14)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_settled_sees_the_tables_of_smaller_batches(self, seed):
        case, seen = _table_case("besov_aligned"), []

        def never(table, draws):
            seen.append((table.copy(), draws))
            return False

        full = _mc_mass_batches(*case, 100_000, 20, seed, "stages", False, never)
        # the first four batches at each chunk end, then rounds of whole batches
        assert [(t.shape[-1], m) for t, m in seen] == [(4, 512), (4, 1024), (4, 2048), (4, 2500),
                                                       (8, 2500), (12, 2500), (16, 2500)]
        for table, m in seen[:3]:
            want = _mc_mass_batches(*case, 8 * m, 4, seed, "stages", False, _never)
            assert table.tobytes() == want.tobytes()
        for table, _ in seen[3:]:
            assert table.tobytes() == full[:, :, :table.shape[-1]].tobytes()
        # the batches after the first four are drawn whole
        whole = _mc_mass_batches(*case, 100_000, 20, seed, "stages")
        assert full[:, :, 4:].tobytes() == whole[:, :, 4:].tobytes()

    @pytest.mark.parametrize("seed", [0, 1])
    def test_a_curve_stops_at_its_first_chunk_end(self, seed):
        cur = ball_ratio_curve(*_budget_case(), RatioOpts(n_samples=100_000, n_batches=20,
                                                          seed=seed))
        short = ball_ratio_curve(*_budget_case(), RatioOpts(n_samples=4_096, n_batches=4,
                                                            seed=seed))
        assert short.n_samples == 4_096
        _assert_same_estimate(cur, short)

    def test_one_fit_per_stopped_curve(self, monkeypatch):
        fits, ratio_curves = [], ommap.measures._ratio_curves

        def counted(*args):
            fits.append(args[0].shape[-1])
            return ratio_curves(*args)

        monkeypatch.setattr(ommap.measures, "_ratio_curves", counted)
        cur = ball_ratio_curve(*_budget_case(), RatioOpts(n_samples=100_000, n_batches=20))
        assert cur.n_samples == 4_096 and fits == [4]

    def test_an_unsettled_curve_draws_every_batch_in_full(self, monkeypatch):
        calls, drawn = _spy_tables(monkeypatch), _chunk_spy(monkeypatch)
        mu, x1, x2, radii, space = _budget_case()
        cur = ball_ratio_curve(mu, x1, x2, radii, space,
                               RatioOpts(n_samples=100_000, n_batches=20, fit_points=1))
        (_, _, table), = calls
        assert drawn == [512] * 8 + [1024] * 4 + [452] * 4 + [2_500] * 16
        want = _mc_mass_batches(mu, [x1, x2], radii, space, 100_000, 20, 0, "ratio-curve")
        assert table[:, :, 4:].tobytes() == want[:, :, 4:].tobytes()
        first = _mc_mass_batches(mu, [x1, x2], radii, space, 20_000, 4, 0, "ratio-curve",
                                 False, _never)
        assert table[:, :, :4].tobytes() == first.tobytes()
        assert cur.n_samples == 100_000


class TestGaussianL2Exact:
    """Weighted-l2 ball masses of Gaussians from Ruben's series against
    exact oracles, and Monte Carlo where the series does not certify."""

    @pytest.mark.parametrize("b,r", [(0.0, 0.5), (0.0, 1.0), (0.5, 0.5), (0.5, 1.0), (1.0, 1.0),
                                     (1.3, 0.5), (2.0, 1.0), (2.0, 2.0), (3.0, 1.0)])
    def test_one_free_coordinate_matches_erf(self, b, r):
        # a 2-d measure with one coordinate pinned: the ball's section is an
        # interval of N(0, 1); at the mean the series sums to 1 by rounding
        mu = GaussianMeasure(np.zeros(2), SpectralOperator(np.array([1.0, 0.0])))
        got = ball_mass(mu, np.array([b, 0.0]), r, WeightedSeqSpace.unweighted(2.0, 2))
        s2 = math.sqrt(2.0)
        want = (0.5 * (math.erfc((b - r) / s2) - math.erfc((b + r) / s2)) if b >= r else
                0.5 * (math.erf((b + r) / s2) - math.erf((b - r) / s2)))
        assert (got.method, got.stderr) == ("series", 0.0)
        assert got.estimate == pytest.approx(want, rel=1e-15, abs=0)

    @pytest.mark.parametrize("rotated", [False, True], ids=["aligned", "rotated"])
    def test_planar_balls_match_dblquad(self, rotated):
        from scipy.integrate import dblquad

        th, eig = 0.6, np.array([1.5, 0.4])
        basis = (np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
                 if rotated else None)
        mu = GaussianMeasure(np.array([0.3, -0.2]), SpectralOperator(eig, basis))
        space = WeightedSeqSpace(2.0, np.array([1.0, 0.6]))
        b = np.eye(2) if basis is None else basis
        prec = b @ np.diag(1.0 / eig) @ b.T
        norm = 1.0 / (2.0 * math.pi * math.sqrt(eig.prod()))
        w0, w1 = space.weights
        radii = np.array([1.0, 0.3, 0.05])
        for c in (mu.mean, np.array([1.0, 0.4]), np.array([-0.8, -1.1])):
            table, method = _log_mass_table(mu, [c], radii, space, RatioOpts())
            assert method == "series"
            for r, got in zip(radii, np.exp(table[0, :, 0])):
                def pdf(x1, x0):
                    d = np.array([x0, x1]) - mu.mean
                    return norm * math.exp(-0.5 * d @ prec @ d)

                def half(x0):
                    return w1 * math.sqrt(max(0.0, r * r - ((x0 - c[0]) / w0) ** 2))

                want = dblquad(pdf, c[0] - r * w0, c[0] + r * w0,
                               lambda x0: c[1] - half(x0), lambda x0: c[1] + half(x0),
                               epsabs=1e-15, epsrel=1e-13)[0]
                assert got == pytest.approx(want, rel=1e-12, abs=0)

    def test_slow_series_certifies_its_truncation(self):
        # lam_2 / lam_1 = 0.04: the series weights fall by about 4% a term, and
        # these balls certify only after hundreds of terms; a truncation at
        # 1e-2 relative reads 0.99260 for 0.99597 at r = 3
        mu = GaussianMeasure(np.array([0.3, -0.2]), SpectralOperator(np.array([1.0, 0.04])))
        space = WeightedSeqSpace.unweighted(2.0, 2)
        planar = _gaussian_planar(mu, space)
        c, radii = np.array([0.0, -0.18]), np.array([4.0, 3.0, 1.0])
        table, method = _log_mass_table(mu, [c], radii, space, RatioOpts())
        assert method == "series"
        for r, got in zip(radii, np.exp(table[0, :, 0])):
            assert got == pytest.approx(planar(c, float(r)), rel=1e-12, abs=0)

    def test_rotated_weighted_pinned_balls_match_monte_carlo(self):
        rng = np.random.default_rng(5)
        basis = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        mu = GaussianMeasure(np.array([0.3, -0.2, 0.1]),
                             SpectralOperator(np.array([1.0, 0.5, 0.0]), basis))
        space = WeightedSeqSpace(2.0, np.array([1.0, 2.0, 0.7]))
        # off the mean along the pinned direction too: that offset shrinks the section
        c = mu.mean + basis @ np.array([0.2, -0.3, 0.05])
        for r in (0.6, 0.2):
            exact = ball_mass(mu, c, r, space)
            mc = ball_mass(mu, c, r, space, RatioOpts(n_samples=2_000_000, method="mc", seed=3))
            assert exact.method == "series" and mc.method == "monte-carlo"
            assert abs(exact.estimate - mc.estimate) < 4 * mc.stderr

    def test_high_dimension_small_ball_is_finite(self):
        # lambda_j = j^-2 at dim 200: log mass about -491.52 (a 2e5-draw
        # Monte Carlo estimate reads -491.520); the mass is far below the
        # smallest double, its log is not
        mu = GaussianMeasure(np.zeros(200),
                             SpectralOperator(np.arange(1.0, 201.0) ** -2))
        table, method = _log_mass_table(mu, [np.zeros(200)], np.array([0.01]),
                                        WeightedSeqSpace.unweighted(2.0, 200), RatioOpts())
        assert method == "series"
        assert table[0, 0, 0] == pytest.approx(-491.52, abs=2e-3)

    def test_far_centre_neither_overflows_nor_underflows(self):
        from scipy.special import log_ndtr

        # |b|^2 = 2000: c_0 = e^-1000 underflows and the series weights peak
        # near k = 1000, e^1000 times c_0; at r = 10 the sum runs past k = 400,
        # where the scaled weights would pass the largest float without rescaling
        b, radii = math.sqrt(2000.0), np.array([10.0, 0.1])
        mu = GaussianMeasure(np.zeros(2), SpectralOperator(np.array([1.0, 0.0])))
        table, method = _log_mass_table(mu, [np.array([b, 0.0])], radii,
                                        WeightedSeqSpace.unweighted(2.0, 2), RatioOpts())
        hi, lo = log_ndtr(-b + radii), log_ndtr(-b - radii)
        assert method == "series"
        np.testing.assert_allclose(table[0, :, 0], hi + np.log(-np.expm1(lo - hi)), rtol=1e-13)
        # eight coordinates, far along all of them: the log masses about the
        # far centre and the mean differ by I(c) = |b|^2 / 2 as r -> 0
        eig = np.linspace(0.5, 2.0, 8)
        mu = GaussianMeasure(np.zeros(8), SpectralOperator(eig))
        c = np.sqrt(eig * 2000.0 / 8.0)
        radii = np.array([1e-2, 1e-3])
        table, method = _log_mass_table(mu, [c, np.zeros(8)], radii,
                                        WeightedSeqSpace.unweighted(2.0, 8), RatioOpts())
        assert method == "series" and np.all(np.isfinite(table))
        assert table[0, -1, 0] - table[1, -1, 0] == pytest.approx(-1000.0, abs=1e-2)

    def test_large_ball_falls_back_to_monte_carlo(self):
        # at r = 1 the series is far from certified after its term budget:
        # its partial sum is not the answer, and the table is Monte Carlo
        lam = np.arange(1.0, 201.0) ** -2
        certified = ommap.measures._ruben_log_cdf(lam, np.zeros((1, 200)), np.array([[1.0]]))[1]
        assert not certified[0, 0]
        mu = GaussianMeasure(np.zeros(200), SpectralOperator(lam))
        space, radii = WeightedSeqSpace.unweighted(2.0, 200), np.array([1.0])
        opts = RatioOpts(n_samples=200, n_batches=2)
        assert _log_mass_table(mu, [np.zeros(200)], radii, space, opts)[1] == "monte-carlo"
        with pytest.raises(InputError, match="exact"):
            _log_mass_table(mu, [np.zeros(200)], radii, space, replace(opts, method="exact"))

    def test_one_uncertified_cell_sends_the_whole_table_to_monte_carlo(self):
        # a small ball certifies by the series, r = 1 at dim 200 does not:
        # the table keeps its centres on common draws, so all of it is Monte Carlo
        lam = np.arange(1.0, 201.0) ** -2
        mu = GaussianMeasure(np.zeros(200), SpectralOperator(lam))
        space, opts = WeightedSeqSpace.unweighted(2.0, 200), RatioOpts(n_samples=200, n_batches=2)
        both = _log_mass_table(mu, [np.zeros(200)], np.array([1.0, 0.01]), space, opts)[1]
        small = _log_mass_table(mu, [np.zeros(200)], np.array([0.01]), space, opts)[1]
        assert (both, small) == ("monte-carlo", "series")

    def test_a_sum_that_rounds_to_one_certifies_no_more_than_its_rounding(self):
        # lam = (1, 0.1), centred: the partial sum of the weights rounds to 1
        # within 480 terms; where F_{n+2K}(t / beta) is still about 1 (t = 1000)
        # the rounding error of that sum, K eps, is above 1e-13 of the mass
        # and the cell is not certified; where F has fallen (t = 100) it is
        lam = np.array([1.0, 0.1])
        log_p, certified = ommap.measures._ruben_log_cdf(lam, np.zeros((1, 2)),
                                                         np.array([[1000.0, 100.0]]))
        assert certified.tolist() == [[False, True]]
        assert log_p[0, 1] == pytest.approx(0.0, abs=1e-13)

    @pytest.mark.parametrize("a", [0.5, 4.0, 100.5, 2100.0])
    def test_log_incomplete_gamma(self, a):
        # log P(a, x) against scipy, through its power-series form where P
        # underflows: a log x - x - log Gamma(a + 1) does not cancel for x << a
        from scipy.special import gammainc, gammaln

        x = np.array([1e-3, 0.3, 0.5 * a, 0.9 * a, a + 0.99, a + 1.0, a + 1.5, 3.0 * a + 10.0])
        got = ommap.measures._log_gamma_p(a, x)
        with np.errstate(divide="ignore"):
            want = np.log(gammainc(a, x))
        tiny = gammainc(a, x) < 1e-280
        xt = x[tiny][:, None]
        terms = np.cumprod(xt / (a + np.arange(1.0, 41.0)), axis=1)
        want[tiny] = (a * np.log(xt) - xt - gammaln(a + 1.0))[:, 0] + np.log1p(terms.sum(axis=1))
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)


class TestRadiusIsFiniteAndPositive:
    """A NaN, infinite or nonpositive radius is refused before any mass is
    computed: not answered by quadrature, Monte Carlo or a reach test."""

    @staticmethod
    def uniform():
        return Density1D(pdf=lambda x: 1.0, support=((0.0, 1.0),))

    @pytest.mark.parametrize("radius", [math.nan, math.inf, -math.inf])
    def test_ball_masses(self, radius):
        gauss, opts = std_gaussian(2), RatioOpts(n_samples=200, n_batches=2)
        for call in (lambda: ball_mass(self.uniform(), 0.5, radius),
                     lambda: ball_mass(gauss, np.zeros(2), radius, opts=opts),
                     lambda: sup_ball_mass(gauss, radius),
                     lambda: sup_ball_mass(self.uniform(), radius)):
            with pytest.raises(InputError, match="finite and positive"):
                call()

    def test_sup_ball_mass_checks_the_radius_before_the_reach(self):
        # a Density1D names no heaviest centres, so its reach is 0
        for radius in (0.0, -1.0):
            with pytest.raises(InputError, match="finite and positive"):
                sup_ball_mass(self.uniform(), radius)

    @pytest.mark.parametrize("radius", [math.nan, math.inf, 0.0, -1.0])
    def test_own_mass_methods(self, radius):
        # called directly, not through ball_mass: each measure's own table checks
        e1 = np.array([1.0, 0.0])
        for call in (lambda: self.uniform().mass_table([0.5], [radius]),
                     lambda: LiminfOnlyMeasure(depth=12).mass_table([1.0], [0.1, radius]),
                     lambda: CrossesMeasure("1").mass_table([e1], [radius, 0.1]),
                     lambda: ommap.counterexamples.crosses_ball_masses(CrossesMeasure("1"), e1,
                                                                       radius),
                     lambda: OmNotStrongMeasure(levels=6).mass_table([1.0], [0.1, radius])):
            with pytest.raises(InputError, match="finite and positive"):
                call()

    @pytest.mark.parametrize("radii", [[0.2, 0.1, math.nan, 0.01], [math.inf, 0.1]],
                             ids=["nan", "inf"])
    def test_ratio_curves(self, radii):
        opts = RatioOpts(n_samples=200, n_batches=2)
        for measure, x1, x2 in ((std_gaussian(2), np.ones(2), np.zeros(2)),
                                (self.uniform(), 0.4, 0.6)):
            with pytest.raises(InputError, match="finite, positive"):
                ball_ratio_curve(measure, x1, x2, radii, opts=opts)


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
        opts = RatioOpts(method="exact", closed=closed)
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


def _planar_mass(pdf0, interval1, c, r, space):
    """mu(B_r(c)) for a measure on R^2 by quadrature over x_0: ``pdf0`` is the
    density of x_0 and ``interval1(x0, lo, hi)`` the mass of lo < x_1 < hi
    given x_0.  Balls of any p > 0 have an interval as each x_0-section."""
    (w0, w1), p = space.weights, space.p

    def half(x0):
        t = min(1.0, abs(x0 - c[0]) / (r * w0))
        return r * w1 * (1.0 if math.isinf(p) else (1.0 - t ** p) ** (1.0 / p))

    def f(x0):
        return pdf0(x0) * interval1(x0, c[1] - half(x0), c[1] + half(x0))

    return quad(f, c[0] - r * w0, c[0] + r * w0, points=[c[0]], epsabs=0.0, epsrel=1e-12,
                limit=200)[0]


def _gaussian_planar(mu, space):
    """Ball masses of a Gaussian on R^2, aligned or rotated, by ``_planar_mass``."""
    basis = np.eye(2) if mu.basis is None else mu.basis
    cov = basis @ np.diag(mu.cov.eigenvalues) @ basis.T
    m, sd0 = mu.mean, math.sqrt(cov[0, 0])
    slope, sd1 = cov[0, 1] / cov[0, 0], math.sqrt(cov[1, 1] - cov[0, 1] ** 2 / cov[0, 0])

    def pdf0(x0):
        return math.exp(-0.5 * ((x0 - m[0]) / sd0) ** 2) / (sd0 * math.sqrt(2.0 * math.pi))

    def interval1(x0, lo, hi):
        mid = m[1] + slope * (x0 - m[0])
        return ndtr((hi - mid) / sd1) - ndtr((lo - mid) / sd1)

    return lambda c, r: _planar_mass(pdf0, interval1, c, r, space)


def _besov_planar(mu, space):
    """Ball masses of a Besov-1 measure on R^2 by ``_planar_mass``."""
    g0, g1 = mu.gamma

    def laplace_cdf(x, b):
        return 0.5 * math.exp(x / b) if x < 0 else 1.0 - 0.5 * math.exp(-x / b)

    return lambda c, r: _planar_mass(lambda x0: math.exp(-abs(x0) / g0) / (2.0 * g0),
                                     lambda x0, lo, hi: laplace_cdf(hi, g1) - laplace_cdf(lo, g1),
                                     c, r, space)


def _per_centre(mass):
    """The masses of the balls of radius r about ``centres``, from a mass
    one ball at a time."""
    return lambda centres, r: np.array([mass(c, r) for c in centres])


def _exact(mu, space):
    return _per_centre(lambda c, r: ball_mass(mu, c, r, space).estimate)


def _own_table(measure):
    """The masses of the balls of radius r about ``centres`` from one
    ``mass_table`` of a measure off the product form."""
    return lambda centres, r: measure.mass_table(centres, [r])[:, 0]


def _heaviest_centre_cases():
    """name -> (measure, space, masses(centres, r), radii, centres to test,
    slack): slack "ulp" for closed forms, a relative tolerance for
    quadrature."""
    rng = np.random.default_rng(19)
    rot = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    aligned = GaussianMeasure(np.array([0.4, -0.3, 1.0]),
                              SpectralOperator(np.array([1.0, 0.3, 2.0])))
    planar = GaussianMeasure(np.array([0.4, -0.3]), SpectralOperator(np.array([1.0, 0.3])))
    rotated = GaussianMeasure(np.array([0.4, -0.3]), SpectralOperator(np.array([1.0, 0.25]), rot))
    besov2, besov3 = BesovMeasure(1.0, 1, 1.0, 2), BesovMeasure(0.8, 1, 1.0, 3)
    sup3 = WeightedSeqSpace(math.inf, [1.0, 0.5, 2.0])
    product_radii = (0.1, 0.6, 1.5)

    def around(mean, n):
        offsets = rng.normal(size=(n, mean.size)) * rng.uniform(0.0, 1.5, (n, 1))
        return [mean + o for o in offsets] + [mean + 1e-9 * rng.normal(size=mean.size)]

    cases = {
        "gaussian-aligned-sup": (aligned, sup3, _exact(aligned, sup3), product_radii,
                                 around(aligned.mean, 40), "ulp"),
        "besov1-sup": (besov3, sup3, _exact(besov3, sup3), product_radii,
                       around(besov3.mean, 40), "ulp"),
        "besov1-ambient": (besov2, besov2.ambient_space(),
                           _per_centre(_besov_planar(besov2, besov2.ambient_space())),
                           product_radii,
                           around(besov2.mean, 12), 1e-9),
        "gaussian-aligned-p0.5": (planar, WeightedSeqSpace.unweighted(0.5, 2),
                                  _per_centre(_gaussian_planar(
                                      planar, WeightedSeqSpace.unweighted(0.5, 2))),
                                  product_radii, around(planar.mean, 12), 1e-9),
    }
    for p in (1.0, 2.0, math.inf):
        sp = WeightedSeqSpace(p, [1.0, 0.7])
        cases[f"gaussian-rotated-p{p}"] = (rotated, sp, _per_centre(_gaussian_planar(rotated, sp)),
                                           product_radii, around(rotated.mean, 12), 1e-9)
    ons = OmNotStrongMeasure(levels=6)
    grid = np.linspace(0.5, 6.5, 481).tolist()
    near = [x for k in range(1, 7) for x in (math.nextafter(k, 0), math.nextafter(k, 9),
                                             k + 1e-7, k - 1e-7)]
    cases["om-not-strong"] = (ons, default_space(ons), _own_table(ons),
                              (1e-6, 1e-3, 0.05, 0.2, 0.24),
                              [np.array([x]) for x in grid + near], "ulp")
    for norm in ("1", "inf"):
        m = CrossesMeasure(norm)
        xs, ys = np.linspace(-2.0, 2.1, 42), np.linspace(-1.1, 1.1, 23)
        on_segments = [a + t * (b - a) for a, b in m.segments() for t in np.linspace(0, 1, 41)]
        jitter = [c + 0.01 * rng.normal(size=2) for c in on_segments]
        cases[f"crosses-{norm}"] = (m, m.default_space(), _own_table(m),
                                    (0.03, 0.12, 0.24),
                                    [np.array([x, y]) for x in xs for y in ys]
                                    + on_segments + jitter, "ulp")
    return cases


class TestHeaviestCentres:
    """Every ``_heaviest_centers`` rule, the product form's and each
    ``heaviest_centers`` method: below its reach no ball outweighs the
    heaviest ball about its centres.  A new rule adds a case here."""

    def test_every_rule_has_a_case(self):
        measures_ = [case[0] for case in _heaviest_centre_cases().values()]
        rules = [ProductMeasure] + [cls for module in (ommap.measures, ommap.counterexamples)
                                    for cls in vars(module).values()
                                    if isinstance(cls, type) and hasattr(cls, "heaviest_centers")]
        assert {"OmNotStrongMeasure", "CrossesMeasure"} <= {cls.__name__ for cls in rules}
        for cls in rules:
            assert any(isinstance(m, cls) for m in measures_), cls.__name__

    @pytest.mark.parametrize("name", list(_heaviest_centre_cases()))
    def test_no_centre_outweighs_the_rule(self, name):
        measure, space, masses, radii, points, slack = _heaviest_centre_cases()[name]
        centres, r_max = _heaviest_centers(measure, space)
        assert centres
        coords = np.array(points)
        for r in radii:
            assert r < r_max
            sup = masses(centres, r).max()
            if slack == "ulp":
                # a closed form rounds each interval end c_k +- r w_k to the
                # float grid near c_k, as in the sup tests above
                ulp = np.spacing(1.0 + np.abs(coords).max(axis=1) + r * space.weights.max())
                tol = 1e-12 + 4 * coords.shape[1] * ulp / (r * space.weights.min())
            else:
                tol = slack
            over = masses(points, r) > sup * (1 + tol)
            assert not over.any(), (coords[over], r)

    @pytest.mark.parametrize("norm,factor", [("1", 4.0), ("inf", 4.0 * math.sqrt(2.0))])
    def test_crosses_supremum(self, norm, factor):
        m = CrossesMeasure(norm)
        for r in (1e-3, 0.1, 0.24):
            assert sup_ball_mass(m, r).estimate == pytest.approx(factor * r, rel=1e-12)
        assert sup_ball_mass(m, 0.25) is None


class TestOpenVsClosed:
    @staticmethod
    def curves(measure, x1, x2, radii):
        return [ball_ratio_curve(measure, x1, x2, radii, None, RatioOpts(closed=closed))
                for closed in (False, True)]

    def test_uniform_interior_pair(self):
        d = Density1D(pdf=lambda x: 1.0, support=((0.0, 1.0),))
        open_c, closed_c = self.curves(d, 0.4, 0.6, radius_schedule(0.1, 6))
        assert np.max(np.abs(open_c.ratios - closed_c.ratios)) == 0.0
        width = (open_c.ci[1] - open_c.ci[0]) + (closed_c.ci[1] - closed_c.ci[0])
        assert abs(open_c.extrapolated_limit - closed_c.extrapolated_limit) <= max(width, 1e-10)

    def test_gaussian_1d(self):
        open_c, closed_c = self.curves(std_gaussian(1), np.array([1.0]), np.array([0.0]),
                                       radius_schedule(0.5, 8))
        assert abs(open_c.extrapolated_limit - closed_c.extrapolated_limit) < 1e-10


class TestSerialization:
    """``measure_from_json`` builds a measure from a config's ``measure`` block."""

    def test_gaussian_roundtrip(self):
        mu = GaussianMeasure(np.array([1.0, 2.0]), SpectralOperator(np.array([3.0, 0.5])))
        back = measure_from_json({"type": "gaussian", "mean": [1.0, 2.0],
                                  "eigenvalues": [3.0, 0.5]})
        np.testing.assert_array_equal(back.mean, mu.mean)
        np.testing.assert_array_equal(back.cov.eigenvalues, mu.cov.eigenvalues)

    def test_besov_roundtrip(self):
        mu = BesovMeasure(1.5, 2, 0.8, 6)
        back = measure_from_json({"type": "besov1", "s": 1.5, "d": 2, "eta": 0.8, "dim": 6})
        assert back == mu

    @pytest.mark.parametrize("mu,config", [
        (LiminfOnlyMeasure(depth=12, variant="standard"),
         {"name": "liminf_only", "params": {"depth": 12, "variant": "standard"}}),
        (OmNotStrongMeasure(levels=7), {"name": "om_not_strong", "params": {"levels": 7}}),
        (CrossesMeasure("inf"), {"name": "crosses", "params": {"norm_choice": "inf"}}),
    ], ids=["LiminfOnlyMeasure", "OmNotStrongMeasure", "CrossesMeasure"])
    def test_example_measure_roundtrip(self, mu, config):
        back = measure_from_json({"type": "density1d", **config})
        assert type(back) is type(mu)
        assert back == mu

    def test_registered_names(self):
        m = measure_from_json({"type": "density1d", "name": "liminf_only",
                               "params": {"depth": 12}})
        assert m.depth == 12
        with pytest.raises(ParameterError):
            measure_from_json({"type": "density1d", "name": "nope"})
