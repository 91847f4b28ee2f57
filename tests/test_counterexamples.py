"""Closed-form example measures against independent oracles."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from ommap import (CrossesMeasure, Density1D, InputError,
                   LiminfOnlyMeasure, MixtureFamily, OmNotStrongMeasure, ParameterError, RatioOpts,
                   RegimeError, SpikeFamily, ball_ratio_curve, crosses_ball_masses,
                   crosses_om_difference, kl_gaussians, kl_gaussians_quadrature,
                   liminf_only_ratios, mixture_kl, mixture_kl_exponent, mixture_modes,
                   ball_mass, om_not_strong_suite, radius_schedule, spike_kl, spike_mode,
                   WeightedSeqSpace, default_space, sup_ball_mass)
from ommap.counterexamples import E1, SQRT_2PI
from ommap.measures import EXAMPLE_MEASURE_FACTORIES, _log_mass_table


class TestGaussianKL:
    def test_zero_at_equal_variance(self):
        assert kl_gaussians(1.0) == 0.0

    @pytest.mark.parametrize("sigma", [0.1, 0.5, 2.0, 10.0])
    def test_quadrature_matches_closed_form(self, sigma):
        assert abs(kl_gaussians(sigma) - kl_gaussians_quadrature(sigma)) < 1e-8

    def test_divergence_at_extremes(self):
        assert kl_gaussians(1e-6) > 1e5
        assert kl_gaussians(1e6) > 6.0
        assert kl_gaussians(1e-6) > kl_gaussians(1e-3) > kl_gaussians(0.5)

    def test_input_validation(self):
        with pytest.raises(InputError):
            kl_gaussians(0.0)


class TestMixture:
    def test_symmetric_case_two_equal_maxima(self):
        found = mixture_modes(0.0, 5.0)
        assert len(found.local_maxima) == 2
        fam = MixtureFamily(0.0, 5.0)
        h = [float(fam.density(x)) for x in found.local_maxima]
        assert h[0] == pytest.approx(h[1], rel=1e-10)
        assert found.local_maxima[0] == pytest.approx(-5.0, abs=1e-6)
        assert found.local_maxima[1] == pytest.approx(5.0, abs=1e-6)

    def test_positive_tilt_moves_mode_to_plus_r(self):
        assert mixture_modes(0.1, 5.0).mode == pytest.approx(5.0, abs=1e-6)
        assert mixture_modes(-0.1, 5.0).mode == pytest.approx(-5.0, abs=1e-6)

    def test_small_separation_warns(self):
        with pytest.warns(UserWarning):
            MixtureFamily(0.1, 2.0)

    def test_tilt_validation(self):
        with pytest.raises(ParameterError):
            MixtureFamily(1.5, 5.0)

    def test_kl_against_series_oracle(self):
        # oracle: with h = tanh(r x), the divergence is exactly
        # int rho_0 (1 + t h) log((1 + t h)/(1 - t h)), expanded to
        # 2 t^2 int rho_0 h^2 + (2/3) t^4 int rho_0 h^4 + O(t^6)
        r = 5.0
        rho0 = MixtureFamily(0.0, r).density
        m2 = quad(lambda x: float(rho0(x)) * math.tanh(r * x) ** 2, -20, 20, limit=400)[0]
        m4 = quad(lambda x: float(rho0(x)) * math.tanh(r * x) ** 4, -20, 20, limit=400)[0]
        for t in [1e-3, 1e-2]:
            series = 2.0 * t ** 2 * m2 + (2.0 / 3.0) * t ** 4 * m4
            assert mixture_kl(t, r) == pytest.approx(series, rel=1e-6)

    def test_heuristic_power_law_in_its_regime(self):
        # the t^(9/4) fit with prefactor 10^(5/4) tracks the true
        # divergence within a factor 1.5 only for t around 1e-4
        for t in [1e-4, 2e-4, 4e-4]:
            ratio = mixture_kl(t, 5.0) / (10.0 ** 1.25 * t ** 2.25)
            assert 1.0 / 1.5 < ratio < 1.5

    def test_fitted_exponent_band(self):
        slope, _ = mixture_kl_exponent([1e-3, 3e-3, 1e-2, 3e-2, 1e-1], 5.0)
        assert 2.0 <= slope <= 2.5


class TestSpike:
    def test_limit_mode_exact(self):
        assert spike_mode(math.inf) == 1.0

    @pytest.mark.parametrize("n", [10, 50, 100])
    def test_mode_near_reciprocal(self, n):
        assert abs(spike_mode(n) - 1.0 / n) <= 0.1 / n

    def test_kl_against_riemann_oracle(self):
        # independent integrator: trapezoid rule on a graded grid
        n = 20
        lim, fam = SpikeFamily(math.inf), SpikeFamily(n)
        xs = np.unique(np.concatenate([
            np.linspace(-10, 12, 20001), np.linspace(-0.1, 5.0 / n, 20001)]))
        p = lim.density(xs)
        q = fam.density(xs)
        vals = np.where(p > 0, p * np.log(np.where(p > 0, p / q, 1.0)), 0.0)
        oracle = np.trapezoid(vals, xs)
        assert spike_kl(n) == pytest.approx(oracle, rel=1e-5)

    @staticmethod
    def kl_constant():
        """C = lim n*KL(limit||member), integrated independently of ommap.

        KL = log(1 + 1/(n sqrt 2)) - int p log(1 + spike/gaussian); with x = y/n
        the second term is (1/n) (exp(-1/2)/sqrt(2 pi)) int_0^inf
        log(1 + 4 y^2 exp(1/2 - y^2)) dy + O(1/n^2).
        """
        spike_term = quad(lambda y: math.log1p(4.0 * y * y * math.exp(0.5 - y * y)),
                          0.0, math.inf)[0]
        return 1.0 / math.sqrt(2.0) - math.exp(-0.5) / math.sqrt(2.0 * math.pi) * spike_term

    def test_kl_constant_value(self):
        assert self.kl_constant() == pytest.approx(0.285149, abs=1e-6)

    @pytest.mark.parametrize("n", [20, 50, 200, 1000])
    def test_kl_reciprocal_asymptote(self, n):
        assert abs(n * spike_kl(n) - self.kl_constant()) <= 1.0 / n

    def test_pointwise_but_not_uniform_convergence(self):
        lim = SpikeFamily(math.inf)
        xs = np.array([-1.0, 0.0, 0.3, 1.0, 2.5])
        gaps = []
        for n in [10, 100, 1000]:
            fam = SpikeFamily(n)
            gaps.append(np.max(np.abs(fam.density(xs) - lim.density(xs))))
            # sup over the spike stays bounded away from zero
            assert float(fam.density(1.0 / n) - lim.density(1.0 / n)) > 0.5
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-3

    def test_normalisation(self):
        fam = SpikeFamily(7)
        total = quad(lambda x: float(fam.density(x)), -12, 0)[0]
        total += quad(lambda x: float(fam.density(x)), 0, 1.0)[0]
        total += quad(lambda x: float(fam.density(x)), 1.0, 14)[0]
        assert total == pytest.approx(1.0, abs=1e-8)


def _density_points(n=math.inf):
    """521 points over [-40, 45] and 0, -0, +-1/n, with tails where an
    exp underflows to 0 (and, for the spike, points past its 1/n scale)."""
    extra = [0.0, -0.0, 1e-300, -1e-300, -39.9, 38.5, 39.7, 44.9]
    if n != math.inf:
        extra += [1.0 / n, -1.0 / n, 27.0 / n, 28.0 / n]
    return np.concatenate([np.linspace(-40.0, 45.0, 521), extra]).tolist()


# The references square with ** 2 and select with np.where on a one-element
# array.  On a 0-d array, x - r is a numpy scalar whose ** 2 calls pow(),
# which can round a square differently from d * d (x = 21.78846153846154
# in the spike's Gaussian factor); an array squares as d * d.

def mixture_reference(t, r, x):
    """The mixture density at x as an array expression."""
    x = np.array([x], dtype=float)
    up = (1.0 + t) * np.exp(-0.5 * (x - r) ** 2)
    down = (1.0 - t) * np.exp(-0.5 * (x + r) ** 2)
    return float(((up + down) / (2.0 * SQRT_2PI))[0])


def spike_reference(n, x):
    """The spike density at x as an array expression."""
    x = np.array([x], dtype=float)
    g = np.exp(-0.5 * (x - 1.0) ** 2)
    if n == math.inf:
        return float((g / SQRT_2PI)[0])
    n = float(n)
    s = np.where(x >= 0, 4.0 * n * n * x * x * np.exp(-(n * x) ** 2), 0.0)
    return float(((g + s) / (SQRT_2PI + math.sqrt(math.pi) / n))[0])


class TestDensityPoints:
    """A float point and a one-element array give the same density bits,
    and both equal the array expression."""

    @pytest.mark.parametrize("t,r", [(0.0, 5.0), (0.3, 5.0), (-0.7, 3.5), (0.05, 2.0),
                                     (-0.2, 2.0)])
    def test_mixture(self, t, r):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # r = 2 is fig1a's geometry
            fam = MixtureFamily(t, r)
        for x in _density_points():
            at_float = fam.density(x)
            assert not isinstance(at_float, np.ndarray)
            assert float(at_float) == fam.density(np.array([x]))[0] == \
                mixture_reference(t, r, x), x

    @pytest.mark.parametrize("n", [1, 2, 10, 100, math.inf])
    def test_spike(self, n):
        fam = SpikeFamily(n)
        for x in _density_points(n):
            at_float = fam.density(x)
            assert not isinstance(at_float, np.ndarray)
            assert float(at_float) == fam.density(np.array([x]))[0] == \
                spike_reference(n, x), x

    def test_tails_underflow(self):
        assert float(MixtureFamily(0.3).density(44.9)) == 0.0
        assert float(SpikeFamily(10).density(-39.9)) == 0.0


class TestLiminfOnly:
    def test_eps_ratios_exactly_two(self):
        m = LiminfOnlyMeasure(depth=40)
        eps, _ = liminf_only_ratios(m, 30)
        assert np.all(eps == 2.0)

    def test_delta_ratios_exact_dyadic(self):
        m = LiminfOnlyMeasure(depth=40)
        _, delta = liminf_only_ratios(m, 30)
        expected = np.array([math.ldexp(1.0, -(n + 2)) for n in range(1, 31)])
        assert np.array_equal(delta, expected)

    def test_delta_example_n3(self):
        m = LiminfOnlyMeasure()
        _, delta = liminf_only_ratios(m, 3)
        assert delta[2] == 0.03125

    def test_telescoping_total_mass(self):
        m = LiminfOnlyMeasure(depth=40)
        neg_total = sum(math.ldexp(1.0, n) * m.widths_neg[n - 1]
                        for n in range(1, m.depth + 1))
        assert neg_total == pytest.approx(m.a(1) - m.a(m.depth + 1), rel=1e-15)

    def test_interval_disjointness(self):
        m = LiminfOnlyMeasure(depth=40)
        for w in (m.widths_neg, m.widths_pos):
            # level n ends at 2 w_n; level n-1 starts at w_{n-1} > 2 w_n
            assert np.all(w[:-1] > 2.0 * w[1:])

    def test_mass_function_consistent_with_ratio_sequences(self):
        m = LiminfOnlyMeasure(depth=40)
        for n in [1, 3, 7, 15, 20]:
            r_eps, r_del = m.eps_radius(n), m.delta_radius(n)
            assert m.mass(-1.0, r_eps) / m.mass(1.0, r_eps) == pytest.approx(2.0, rel=1e-12)
            got = m.mass(-1.0, r_del) / m.mass(1.0, r_del)
            assert got == pytest.approx(math.ldexp(1.0, -(n + 2)), rel=1e-12)

    def test_limsup_two_and_liminf_zero_pattern(self):
        m = LiminfOnlyMeasure(depth=40)
        eps, delta = liminf_only_ratios(m, 30)
        assert eps.max() == eps.min() == 2.0
        assert delta[-1] < 1e-9 and np.all(np.diff(delta) < 0)

    def test_extreme_variant_smoke(self):
        m = LiminfOnlyMeasure(depth=20, variant="extreme")
        eps, delta = liminf_only_ratios(m, 10)
        np.testing.assert_array_equal(eps, [2.0 ** n for n in range(1, 11)])
        np.testing.assert_array_equal(delta, [2.0 ** -n for n in range(1, 11)])

    def test_depth_validation(self):
        with pytest.raises(ParameterError):
            LiminfOnlyMeasure(depth=43)
        with pytest.raises(ParameterError):
            LiminfOnlyMeasure(depth=35, variant="extreme")


class TestOmNotStrong:
    def test_suite_limits_match_single_curves(self):
        # the suite reads every k from one mass table; each limit must be
        # the one a separate ball_ratio_curve(1, k) gives
        m = OmNotStrongMeasure(levels=12)
        rep = om_not_strong_suite(m, ks=(2, 3, 5), n_dip=4, competitors=[1, 2, 3, 4])
        radii = radius_schedule(1e-8, 8, factor=4.0)
        for k in (2, 3, 5):
            curve = ball_ratio_curve(m, np.array([1.0]), np.array([float(k)]), radii,
                                     None, RatioOpts(fit_in="sqrt_r"))
            assert rep.ratio_limits[str(k)] == curve.extrapolated_limit
            assert rep.ratio_rel_errors[str(k)] == abs(curve.extrapolated_limit - k ** 2) / k ** 2

    def test_functional_values(self):
        m = OmNotStrongMeasure()
        assert m.om_value(1) == 0.0
        assert m.om_value(3) == pytest.approx(2.0 * math.log(3.0))

    def test_component_masses(self):
        m = OmNotStrongMeasure()
        for k in [1, 2, 5]:
            got = m.component_mass(k, -0.6, 0.6)
            assert got == pytest.approx(1.25 / k ** 2, rel=1e-14)

    def test_base_spike_mass(self):
        m = OmNotStrongMeasure()
        for r in [0.01, 0.1, 0.25]:
            assert m.base_spike_mass(r) == pytest.approx(math.sqrt(r) - r, abs=1e-15)

    def test_mass_agrees_with_density_quadrature_away_from_spikes(self):
        m = OmNotStrongMeasure(levels=6)
        for (lo, hi) in [(2.3, 2.42), (3.05, 3.2), (1.3, 1.7)]:
            oracle = quad(lambda x: float(m.density(x)), lo, hi, limit=200)[0]
            c, r = 0.5 * (lo + hi), 0.5 * (hi - lo)
            assert m.mass(c, r) == pytest.approx(oracle, abs=1e-8)

    def test_ball_mass_formula_near_integer(self):
        m = OmNotStrongMeasure()
        k, r = 3, 1e-5  # r below both 1/4 and 1/(2 k^4)
        expected = (math.sqrt(r) - r) / k ** 2 + 2 * r * k ** 2
        assert m.mass(float(k), r) == pytest.approx(m.norm_constant * expected, rel=1e-13)

    @pytest.mark.parametrize("k", [1, 20, 30])
    @pytest.mark.parametrize("r", [1e-12, 6.1e-13])
    def test_mass_closed_form_at_tiny_radii(self, k, r):
        # the ball's ends are offsets from k, not k +- r rounded to the float grid
        m = OmNotStrongMeasure(levels=30)
        expected = m.norm_constant * ((math.sqrt(r) - r) / k ** 2 + 2 * r * k ** 2)
        assert m.mass(float(k), r) == pytest.approx(expected, rel=1e-12, abs=0.0)

    @given(st.data(), st.integers(min_value=2, max_value=30))
    @settings(max_examples=400, deadline=None)
    def test_mass_skips_only_zero_components(self, data, levels):
        k = data.draw(st.integers(min_value=0, max_value=levels + 1))
        w = 0.5 / max(k, 1) ** 4
        base = data.draw(st.sampled_from([k, k - 0.5, k + 0.5, k - 0.25, k + 0.25,
                                          k - w, k + w]))
        shift = data.draw(st.sampled_from([0.0, 1e-12, -1e-12, 1e-7, -1e-7]))
        center = float(base + shift)
        for _ in range(data.draw(st.integers(min_value=0, max_value=2))):
            center = math.nextafter(center, data.draw(st.sampled_from([-1.0, 1.0])) * math.inf)
        radius = data.draw(st.one_of(
            st.floats(min_value=-12.0, max_value=math.log10(2.0)).map(lambda e: 10.0 ** e),
            st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0])))
        m = OmNotStrongMeasure(levels=levels)
        ref = m.norm_constant * sum(
            m.component_mass(j, (center - j) - radius, (center - j) + radius)
            for j in range(1, levels + 1))
        assert m.mass(center, radius) == ref

    @pytest.mark.parametrize("levels", [2, 6, 30])
    def test_sup_ball_mass_bounds_every_centre(self, levels):
        m = OmNotStrongMeasure(levels=levels)
        centres = set()
        for k in range(1, levels + 1):
            w = 0.5 / k ** 4
            for base in (k, k - w, k + w, k - 0.25, k + 0.25):
                for direction in (-math.inf, math.inf):
                    x = float(base)
                    for _ in range(3):
                        centres.add(x)
                        x = math.nextafter(x, direction)
        # between the end of component 1's plateau and the start of component 2
        centres.update(np.linspace(1.5, 1.75, 11).tolist())
        radii = np.concatenate([np.geomspace(1e-12, 0.24, 40), np.linspace(0.12, 0.24, 7)])
        for r in radii:
            sup = sup_ball_mass(m, float(r))
            assert sup.estimate == max(m.mass(float(k), r) for k in range(1, levels + 1))
            for c in centres:
                # mass() rounds the ends c +- r to the float grid near c, which
                # widens or narrows the ball by up to an ulp of c: at r = 1e-12
                # a relative change of about 1e-4
                slack = 1e-12 + 2 * math.ulp(c + r) / r
                assert m.mass(c, r) <= sup.estimate * (1 + slack)
        assert sup_ball_mass(m, 0.25) is None

    def test_dip_bound_arithmetic_n10(self):
        # bound value (1/(sqrt(2) 100) + 1e-4) * 100 = 1/sqrt(2) + 0.01
        bound = (1.0 / (math.sqrt(2.0) * 100.0) + 1e-4) * 100.0
        assert bound == pytest.approx(1.0 / math.sqrt(2.0) + 0.01, abs=1e-15)


class TestCrosses:
    def test_four_closed_forms(self):
        r = 0.1
        m1, mi = CrossesMeasure("1"), CrossesMeasure("inf")
        assert crosses_ball_masses(m1, E1, r) == 4.0 * r
        assert crosses_ball_masses(m1, -E1, r) == 2.0 * math.sqrt(2.0) * r
        assert crosses_ball_masses(mi, -E1, r) == 4.0 * math.sqrt(2.0) * r
        assert crosses_ball_masses(mi, E1, r) == 4.0 * r

    def test_generic_mass_matches_closed_forms(self):
        for norm in ("1", "inf"):
            m = CrossesMeasure(norm)
            for c in (E1, -E1):
                for r in (0.05, 0.2, 0.4, *np.linspace(0.01, 0.5, 50)):
                    assert m.mass(c, r) == pytest.approx(
                        crosses_ball_masses(m, c, r), rel=1e-14, abs=0)

    @pytest.mark.parametrize("norm", ["1", "inf"])
    def test_mass_matches_a_dense_grid_chord(self, norm):
        # the share of a fine grid on each segment that lies in the ball
        m, rng = CrossesMeasure(norm), np.random.default_rng(3)
        reduce = np.sum if norm == "1" else np.max
        t = (np.arange(200_000) + 0.5) / 200_000
        for _ in range(20):
            c, r = rng.uniform(-2.0, 2.0, 2), float(rng.uniform(0.05, 1.5))
            want = 0.0
            for a, b in m.segments():
                dist = reduce(np.abs(a + t[:, None] * (b - a) - c), axis=1)
                want += float(np.linalg.norm(b - a)) * np.mean(dist < r)
            assert m.mass(c, r) == pytest.approx(want, abs=1e-4)

    def test_om_difference_sign_flip(self):
        d1 = crosses_om_difference("1")
        di = crosses_om_difference("inf")
        assert d1 == pytest.approx(math.log(math.sqrt(2.0)), abs=1e-10)
        assert di == pytest.approx(-math.log(math.sqrt(2.0)), abs=1e-10)

    def test_regime_guard(self):
        with pytest.raises(RegimeError):
            crosses_ball_masses(CrossesMeasure("1"), E1, 0.6)

    def test_interior_arm_point_has_smaller_mass(self):
        m = CrossesMeasure("1")
        r = 0.1
        arm_point = np.array([1.5, 0.0])
        assert m.mass(arm_point, r) == pytest.approx(2.0 * r, abs=1e-10)
        assert m.mass(arm_point, r) < m.mass(E1, r)


@pytest.mark.parametrize("measure,center,method", [
    (LiminfOnlyMeasure(), 1.0, "closed-form"), (OmNotStrongMeasure(), 1.0, "closed-form"),
    (CrossesMeasure("1"), E1, "closed-form"),
    (Density1D(pdf=lambda x: 0.5, support=((-1.0, 1.0),)), 0.5, "quadrature"),
], ids=["liminf_only", "om_not_strong", "crosses", "density1d"])
def test_examples_refuse_monte_carlo(measure, center, method):
    # balls of the measure's own norm only: a forced Monte Carlo mass, a
    # weighted norm and a centre of another dimension are errors, for one
    # ball and for the mass table every ratio curve reads
    assert measure.method == method
    radii, own = np.array([0.1, 0.05]), default_space(measure)
    with pytest.raises(InputError, match="Monte Carlo"):
        ball_mass(measure, center, 0.1, None, RatioOpts(method="mc"))
    with pytest.raises(InputError, match="Monte Carlo"):
        _log_mass_table(measure, [center], radii, own, RatioOpts(method="mc"))
    assert ball_mass(measure, center, 0.1, None, RatioOpts(method="auto")).method == method
    if method == "closed-form":
        assert ball_mass(measure, center, 0.1, None, RatioOpts(method="exact")).method == method
    else:
        with pytest.raises(InputError, match=method):
            _log_mass_table(measure, [center], radii, own, RatioOpts(method="exact"))
    assert ball_mass(measure, center, 0.1, own).method == method
    assert ball_ratio_curve(measure, center, center, radii, own).method == method
    for space in (WeightedSeqSpace(own.p, 2.0 * own.weights),
                  WeightedSeqSpace.unweighted(own.p, own.dim + 1)):
        with pytest.raises(InputError, match="own norm"):
            ball_mass(measure, center, 0.1, space)
        with pytest.raises(InputError, match="own norm"):
            ball_ratio_curve(measure, center, center, radii, space)
    with pytest.raises(InputError, match="centre"):
        ball_mass(measure, np.append(center, 0.0), 0.1)
    with pytest.raises(InputError, match="centre"):
        ball_ratio_curve(measure, center, np.append(center, 0.0), radii)
    with pytest.raises(InputError, match="positive"):
        ball_mass(measure, center, 0.0)


def test_an_object_without_a_mass_rule_is_refused():
    for call in (lambda: ball_mass(object(), 0.0, 0.1),
                 lambda: ball_ratio_curve(object(), 0.0, 0.5, np.array([0.1, 0.05]))):
        with pytest.raises(InputError, match="no ball-mass rule for measure type object"):
            call()


def test_crosses_refuse_the_other_norm():
    # the 1-norm ball about e1 holds 4 r, a weighted or sup-norm one does not
    m = CrossesMeasure("1")
    for space in (WeightedSeqSpace.unweighted(math.inf, 2), WeightedSeqSpace(1.0, [2.0, 2.0])):
        with pytest.raises(InputError, match="own norm"):
            ball_mass(m, E1, 0.1, space)
    with pytest.raises(InputError, match="centre"):
        ball_mass(m, 1.0, 0.1)


def test_om_not_strong_sup_rule_refuses_a_weighted_norm():
    m = OmNotStrongMeasure(levels=6)
    with pytest.raises(InputError, match="own norm"):
        sup_ball_mass(m, 1e-3, WeightedSeqSpace(2.0, [3.0]))
    with pytest.raises(InputError, match="Monte Carlo"):
        sup_ball_mass(m, 1e-3, None, RatioOpts(method="mc"))
    assert sup_ball_mass(m, 1e-3, default_space(m)).estimate == \
        max(m.mass(float(k), 1e-3) for k in range(1, 7))


def _coords(lo, hi, dim):
    return st.lists(st.floats(min_value=lo, max_value=hi), min_size=dim, max_size=dim)


#: (measure, lo, hi, dim): a measure off the product form and a box of centres
_EXACT_MASS_CASES = {
    "liminf_only": (LiminfOnlyMeasure(depth=12), -1.5, 1.5, 1),
    "om_not_strong": (OmNotStrongMeasure(levels=6), 0.5, 6.5, 1),
    "crosses-1": (CrossesMeasure("1"), -2.5, 2.5, 2),
    "crosses-inf": (CrossesMeasure("inf"), -2.5, 2.5, 2),
    "density1d": (Density1D(pdf=lambda x: 0.75 * (1.0 - x * x), support=((-1.0, 1.0),)),
                  -1.5, 1.5, 1),
}


def test_every_measure_off_the_product_form_has_an_exact_mass_case():
    # each registered example measure (mixture and spike are Density1D's)
    # and Density1D itself; a new one adds a case above
    required = {"mixture": {"t": 0.1}, "spike": {"n": 3}}
    built = {type(factory(**required.get(name, {})))
             for name, factory in EXAMPLE_MEASURE_FACTORIES.items()}
    cased = {type(case[0]) for case in _EXACT_MASS_CASES.values()}
    for cls in built | {Density1D}:
        assert cls in cased, cls.__name__


@pytest.mark.parametrize("measure,lo,hi,dim", list(_EXACT_MASS_CASES.values()),
                         ids=list(_EXACT_MASS_CASES))
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_ball_mass_is_the_exact_mass(measure, lo, hi, dim, data):
    # the shared rule adds nothing to mass(): bit for bit, as in the mass
    # table, and in the method the measure names
    centers = [np.array(data.draw(_coords(lo, hi, dim))) for _ in range(2)]
    radii = np.array(sorted(data.draw(st.lists(st.floats(min_value=1e-9, max_value=1.5),
                                                min_size=1, max_size=4, unique=True)),
                            reverse=True))
    masses = np.array([[measure.mass(c if dim > 1 else float(c[0]), float(r)) for r in radii]
                       for c in centers])
    got = [[ball_mass(measure, c, float(r)) for r in radii] for c in centers]
    np.testing.assert_array_equal([[m.estimate for m in row] for row in got], masses)
    assert {(m.stderr, m.method) for row in got for m in row} == {(0.0, measure.method)}
    table, method = _log_mass_table(measure, centers, radii, default_space(measure),
                                    RatioOpts())
    with np.errstate(divide="ignore"):
        np.testing.assert_array_equal(table[:, :, 0], np.log(masses))
    assert (table.shape[2], method) == (1, measure.method)


def _om_not_strong_reference(m, center, radius):
    """The closed form one ball at a time, in math's scalar arithmetic."""
    def primitive(t):
        t = min(max(t, -0.25), 0.25)
        return math.copysign((math.sqrt(abs(t)) - abs(t)) / 2.0, t)

    raw = 0
    for k in range(max(1, math.ceil(center - radius - 0.5)),
                   min(m.levels, math.floor(center + radius + 0.5)) + 1):
        lo, hi = (center - k) - radius, (center - k) + radius
        w = 0.5 / k ** 4
        raw += (primitive(hi) - primitive(lo)) / k ** 2 + \
            k ** 2 * max(0.0, min(hi, w) - max(lo, -w))
    return m.norm_constant * raw


def _assert_bits_equal(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


class TestMassTables:
    """``OmNotStrongMeasure.mass_table`` computes every cell as ``mass`` does,
    bit for bit, and as the closed form one ball at a time."""

    @pytest.mark.parametrize("levels", [2, 6, 30])
    def test_om_not_strong(self, levels):
        m = OmNotStrongMeasure(levels=levels)
        centres = []
        for k in sorted({0, 1, 2, 3, levels - 1, levels, levels + 1}):
            w = 0.5 / max(k, 1) ** 4
            for base in (k, k - 0.5, k + 0.5, k - 0.25, k + 0.25, k - w, k + w, k + 0.3):
                centres += [float(base), math.nextafter(base, -math.inf),
                            math.nextafter(base, math.inf), base + 1e-7]
        # radii from 1e-9 to 2 that reach across component and plateau edges
        radii = np.unique(np.concatenate([np.geomspace(1e-9, 2.0, 16), [0.25, 0.5, 1.0, 1.5],
                                          [0.5 / k ** 4 for k in range(1, 6)]]))[::-1]
        table = m.mass_table(centres, radii)
        _assert_bits_equal(table, [[m.mass(c, r) for r in radii] for c in centres])
        _assert_bits_equal(table, [[_om_not_strong_reference(m, c, float(r)) for r in radii]
                                   for c in centres])
        assert np.all(table[[i for i, c in enumerate(centres) if c == 1.0]] > 0.0)

    def test_refuse_a_nonpositive_radius(self):
        with pytest.raises(InputError, match="positive"):
            OmNotStrongMeasure(levels=6).mass_table([1.0], [0.1, 0.0])

    @pytest.mark.parametrize("centres", [[np.array([1.0, 2.0])], np.ones((3, 2)), 1.0,
                                         [[[1.0]]]], ids=["pair", "rows", "scalar", "nested"])
    def test_refuse_a_centre_off_the_line(self, centres):
        m = OmNotStrongMeasure(levels=6)
        with pytest.raises(InputError, match="centre on the line"):
            m.mass_table(centres, [0.1])
        with pytest.raises(InputError, match="centre on the line"):
            m.mass(np.array([1.0, 2.0]), 0.1)

    def test_far_centres_weigh_nothing(self):
        m = OmNotStrongMeasure(levels=6)
        with np.errstate(all="raise"):
            table = m.mass_table([1e308, -1e308, math.inf, -math.inf, 1.0], [2.0, 0.1])
        _assert_bits_equal(table[:4], np.zeros((4, 2)))
        _assert_bits_equal(table[4], [m.mass(1.0, 2.0), m.mass(1.0, 0.1)])
