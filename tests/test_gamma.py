"""Variational-convergence probes on families with known behaviour."""

import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from ommap import (BesovMeasure, Density1D, FunctionalSequence, GaussianMeasure, InputError,
                   LinearObservation, LiminfOpts, ModeConvOpts, NormalFactor, OmFunctional,
                   ParameterError, Potential, SpectralOperator,
                   besov_om_family, besov_recovery_sequence, continuous_convergence_probe,
                   density_om, equicoercivity_probe, gamma_liminf_probe,
                   gaussian_om_family, gaussian_recovery_sequence,
                   mode_convergence_check, prior_om, project, projected_potential,
                   quadratic_potential, recovery_gap, sublevel_halfwidth, sum_rule_check)
from ommap._seeds import child_rng
from ommap.cli import _json_default, _run_gamma_check
from ommap.counterexamples import SpikeFamily, MixtureFamily, _spike_density1d
from ommap.gamma import (_CC_RHO0, _CC_SAMPLES, _FIT_POINTS, _LIMINF_TOL, _LIMINF_WINDOW_FRAC,
                         _MAGNITUDE_RANGE, _PATH_ALPHAS, _WINDOW_DISTANCE, _extrapolated_intercepts,
                         _halfwidths, _single_linkage, default_paths)
from ommap.measures import _uniform_pball
from pinv_reference import sqrt_apply
from pointwise import pointwise


def gaussian_family_scale(n_members=24, factor=1.0):
    base = SpectralOperator(np.array([2.0, 1.0]))
    limit = GaussianMeasure(np.zeros(2), base)
    members = [GaussianMeasure(np.zeros(2),
                               SpectralOperator(base.eigenvalues * (1 + factor / n) ** 2))
               for n in range(1, n_members + 1)]
    return gaussian_om_family(members, limit)


def assert_witnesses_on_paths(seq, x, rep):
    """Each witness is its path's point at the reported index: x plus the
    path magnitude at that index times the unit direction."""
    names, dirs, mags = default_paths(seq, x, LiminfOpts())
    start = len(seq.indices) - len(mags)
    for v in rep.violations:
        p = names.index(v.path_name)
        j = seq.indices.index(v.at_index) - start
        assert j >= 0
        np.testing.assert_array_equal(v.witness_point, x + mags[j, p] * dirs[p])


# (path, at_index, margin, witness) of every violation the liminf probe
# reports on the spike family at 0 and on the constant step family at its
# jump, recorded from the per-path least-squares implementation
SPIKE_VIOLATIONS = [
    ('random-4', 21, 0.2575645366751721, 0.10264560663350034),
    ('random-5', 40, 0.7442975157350292, 0.05267045212353195),
    ('random-8', 40, 1.4985813850899905, 0.03882498394007488),
    ('random-10', 21, 1.2305560599563024, 0.04867088014829547),
    ('random-11', 40, 1.1698934539343175, 0.033077000611989496),
    ('random-13', 21, 0.8032005532687234, 0.07754901080355585),
    ('random-16', 21, 1.205540798785134, 0.041338373651106194),
    ('random-19', 21, 0.354139460679064, 0.0972300686099165),
    ('random-20', 40, 1.235592180939204, 0.046575634466280075),
    ('random-22', 21, 0.9221731028744026, 0.07231858329575036),
    ('random-23', 40, 0.8984510853966124, 0.02761606683681333),
    ('random-28', 21, 0.35130253770868886, 0.09737623671384175),
    ('random-29', 40, 0.83194224851744, 0.05155975047465303),
    ('random-32', 31, 0.4784429996990702, 0.03266917991543181),
    ('random-33', 40, 0.005858518998168983, 0.020022184780993445),
    ('random-38', 40, 0.7660158895794238, 0.025046917301090318),
    ('random-40', 21, 1.0793084621428966, 0.06427262971928954),
    ('random-44', 40, 1.243420933179734, 0.03452517103586329),
    ('random-47', 40, 1.2967293557961859, 0.045763594211021705),
    ('random-51', 40, 1.3582804502432733, 0.015863509174282853),
    ('random-52', 21, 1.0909203322509593, 0.03329817481373518),
    ('random-53', 40, 1.476617462877032, 0.043046309101507786),
    ('random-55', 21, 1.0287351689583435, 0.06709746144886507),
    ('random-56', 40, 0.8643467014219763, 0.02694704587246965),
    ('random-58', 21, 0.8622899316420802, 0.07500179067385605),
    ('axis+0', 21, 1.2312420750244715, 0.047619047619047616),
    ('toward-anchor', 21, 1.2312420750244715, 0.047619047619047616),
]
STEP_VIOLATIONS = [
    ('random-1', 9, 0.9999999999999836, -0.0475044361077008),
    ('random-2', 9, 0.9999999999999971, -0.11572544426535179),
    ('random-7', 9, 0.9999999999999836, -0.10285520869523865),
    ('random-9', 9, 0.9999999999998817, -0.0510254958180745),
    ('random-14', 9, 0.9999999999999971, -0.08734546895258521),
    ('random-15', 9, 0.9999999999998817, -0.049021500584239874),
    ('random-17', 9, 0.9999999999999973, -0.058880711261749215),
    ('random-18', 9, 0.999999999999882, -0.07935780613844487),
    ('random-21', 9, 0.9999999999998819, -0.07021346859274243),
    ('random-24', 9, 0.9999999999998819, -0.078109222372695),
    ('random-25', 9, 0.9999999999999833, -0.10303030514038869),
    ('random-26', 9, 0.9999999999999973, -0.1032887311184451),
    ('random-31', 9, 0.9999999999999836, -0.06473967177708559),
    ('random-34', 9, 0.9999999999999837, -0.0361837728616721),
    ('random-35', 9, 0.9999999999999971, -0.06846910148326919),
    ('random-37', 9, 0.9999999999999839, -0.06330327073789879),
    ('random-39', 9, 0.9999999999998819, -0.045704597049846286),
    ('random-41', 9, 0.9999999999999973, -0.17242081490141534),
    ('random-42', 9, 0.9999999999998812, -0.07444362018117112),
    ('random-43', 9, 0.9999999999999837, -0.039875197683804056),
    ('random-45', 9, 0.9999999999998818, -0.030585005447017897),
    ('random-46', 9, 0.9999999999999833, -0.0402436443027893),
    ('random-48', 9, 0.9999999999998818, -0.029184441411204857),
    ('random-49', 9, 0.9999999999999837, -0.10002305339956351),
    ('random-50', 9, 0.9999999999999971, -0.1028858361587923),
    ('random-57', 9, 0.9999999999998819, -0.030567714620740462),
    ('random-59', 9, 0.9999999999999973, -0.07593318336889979),
    ('random-61', 9, 0.9999999999999836, -0.08818543595770524),
    ('random-62', 9, 0.9999999999999973, -0.1852958210467692),
    ('random-63', 9, 0.9999999999998815, -0.053757792088492885),
    ('axis-0', 9, 0.9999999999999836, -0.1111111111111111),
    ('toward-anchor', 9, 0.9999999999999836, -0.1111111111111111),
]


def spike_sequence():
    members = [density_om(_spike_density1d(n), anchor=1.0 / n) for n in range(1, 41)]
    limit = density_om(_spike_density1d("inf"), anchor=1.0)
    return FunctionalSequence(list(range(1, 41)), members, limit)


def step_sequence():
    fn = OmFunctional(lambda pts: np.where(pts[:, 0] >= 0, 1.0, 0.0), np.array([-1.0]))
    return FunctionalSequence(list(range(1, 17)), [fn] * 16, fn)


def assert_violations(rep, expected):
    got = [(v.path_name, v.at_index, list(v.witness_point)) for v in rep.violations]
    assert got == [(name, at, list(np.atleast_1d(w))) for name, at, _, w in expected]
    np.testing.assert_allclose([v.margin for v in rep.violations],
                               [m for _, _, m, _ in expected], rtol=0, atol=1e-9)


def exact_lstsq_intercept(d, y, degree):
    """The constant term of the least-squares polynomial of the given
    degree through (d, y), in exact rational arithmetic: the normal
    equations of the Fraction design, solved by Gauss-Jordan elimination."""
    d, y = [Fraction(float(v)) for v in d], [Fraction(float(v)) for v in y]
    rows = [[sum(t ** (i + j) for t in d) for j in range(degree + 1)]
            + [sum(v * t ** i for t, v in zip(d, y))] for i in range(degree + 1)]
    for i in range(degree + 1):
        pivot = next(r for r in range(i, degree + 1) if rows[r][i] != 0)
        rows[i], rows[pivot] = rows[pivot], rows[i]
        rows[i] = [v / rows[i][i] for v in rows[i]]
        for r in range(degree + 1):
            if r != i:
                rows[r] = [v - rows[r][i] * w for v, w in zip(rows[r], rows[i])]
    return rows[0][-1]


def reference_intercept(dists, deficits):
    """One column's intercept by exact least squares: the 8 nearest
    points, fits of degree 1..3 (up to one less than the distinct
    abscissae), the smallest intercept; the maximum deficit with fewer
    than 2 distinct abscissae or all points at distance zero."""
    order = np.argsort(dists, kind="stable")
    d, de = dists[order][:8], deficits[order][:8]
    distinct = len(set(d.tolist()))
    if distinct < 2 or d[-1] < 1e-14:
        return float(np.max(de))
    return float(min(exact_lstsq_intercept(d, de, q)
                     for q in range(1, min(3, distinct - 1) + 1)))


def besov_family_399():
    """A passing 399-member Besov-1 family in dimension 50 and a point."""
    idx = list(range(2, 401))
    limit = BesovMeasure(1.0, 1, 1.0, 50)
    members = [BesovMeasure(1.0 + (-1.0) ** n * 0.3 / n, 1, 1.0, 50) for n in idx]
    x = 0.5 * limit.gamma * np.random.default_rng(0).laplace(size=50)
    return besov_om_family(members, limit, idx), x


def rotated_gaussian_399():
    """A passing 399-member Gaussian family in dimension 6, means and
    variances converging like 1/n in one shared rotated basis, and a point."""
    rng = np.random.default_rng(11)
    eig = rng.uniform(0.5, 2.0, 6)
    basis = _rotation(rng, 6)
    mean, mshift = rng.normal(0.0, 0.5, 6), rng.normal(0.0, 1.0, 6)
    shift = rng.uniform(-0.4, 0.4, 6) * eig
    idx = list(range(2, 401))
    limit = GaussianMeasure(mean, SpectralOperator(eig, basis))
    members = [GaussianMeasure(mean + mshift / n, SpectralOperator(eig + shift / n, basis))
               for n in idx]
    x = mean + basis @ (np.sqrt(eig) * rng.normal(size=6))
    return gaussian_om_family(members, limit, idx), x


def degenerate_family():
    """Odd members are the limit, whose values are +inf off the first axis;
    even members put their mean at (0.3, 1/n) with variance 1/n across it."""
    idx = list(range(1, 33))
    limit = GaussianMeasure(np.zeros(2), SpectralOperator(np.array([1.0, 0.0])))
    members = [limit if n % 2 else
               GaussianMeasure(np.array([0.3, 1.0 / n]),
                               SpectralOperator(np.array([1.0, 1.0 / n])))
               for n in idx]
    return gaussian_om_family(members, limit, idx)


def off_support_family():
    """Every member's support misses (0.3, 0): F_n(x) = +inf there."""
    idx = list(range(1, 33))
    limit = GaussianMeasure(np.zeros(2), SpectralOperator(np.array([1.0, 0.0])))
    members = [GaussianMeasure(np.array([0.0, 1.0 / n]), limit.cov) for n in idx]
    return gaussian_om_family(members, limit, idx)


def infinite_early_family():
    """F_n(x) is +inf at x = (0.3, 0) for n <= 20, the first members of the
    window n = 17..32; later members' F_n(x) rise to F(x) like 1/n."""
    idx = list(range(1, 33))
    limit = GaussianMeasure(np.zeros(2), SpectralOperator(np.ones(2)))
    off = GaussianMeasure(np.array([0.0, 0.1]), SpectralOperator(np.array([1.0, 0.0])))
    members = [off if n <= 20 else
               GaussianMeasure(np.zeros(2), SpectralOperator(np.full(2, 1.0 + 5.0 / n)))
               for n in idx]
    return gaussian_om_family(members, limit, idx)


def alternating_support_family():
    """Odd members are +inf off the first axis, even members equal the
    limit N(0, I): paths that leave the axis are finite on half the window."""
    idx = list(range(1, 33))
    limit = GaussianMeasure(np.zeros(2), SpectralOperator(np.ones(2)))
    flat = GaussianMeasure(np.zeros(2), SpectralOperator(np.array([1.0, 0.0])))
    return gaussian_om_family([flat if n % 2 else limit for n in idx], limit, idx)


def pinned_prefix_family():
    """Odd members n <= 24 are +inf off the first axis, the others equal
    the limit N(0, I): of the window n = 17..32, only members before its
    last 8 are pinned, and x = (0.3, 0) lies in every member's domain."""
    idx = list(range(1, 33))
    limit = GaussianMeasure(np.zeros(2), SpectralOperator(np.ones(2)))
    flat = GaussianMeasure(np.zeros(2), SpectralOperator(np.array([1.0, 0.0])))
    return gaussian_om_family([flat if n % 2 and n <= 24 else limit for n in idx],
                              limit, idx)


def whole_window_probe(seq, x, opts):
    """Reference liminf probe that evaluates every window member on every
    path: (n_paths, [(path, margin, index, witness) per violation])."""
    target = seq.limit.eval(x)
    names, dirs, mags = default_paths(seq, x, opts)
    start = len(seq.indices) - len(mags)
    inv_n = 1.0 / np.asarray(seq.indices[start:], dtype=float)
    vals = np.array([f.values(x + m[:, None] * dirs)
                     for f, m in zip(seq.members[start:], mags)])
    finite = np.isfinite(vals)
    if np.all(finite[:, -1]):
        base = _extrapolated_intercepts(inv_n[:, None], (target - vals[:, -1])[:, None])[0]
        deficits = vals[:, -1:] - vals
    else:
        base, deficits = 0.0, target - vals
    deficits[~finite] = np.nan
    margins = base + _extrapolated_intercepts(mags * np.linalg.norm(dirs, axis=1), deficits)
    worst = np.argmax(np.where(finite, deficits, -np.inf), axis=0)
    return len(names), [(names[p], margins[p], seq.indices[start + worst[p]],
                         x + mags[worst[p], p] * dirs[p])
                        for p in np.flatnonzero(margins > _LIMINF_TOL)]


#: (family, point, opts) of every liminf case in this file
LIMINF_CASES = {
    "constant-gaussian": lambda: (
        gaussian_om_family([GaussianMeasure(np.zeros(2), SpectralOperator(np.ones(2)))] * 16,
                           GaussianMeasure(np.zeros(2), SpectralOperator(np.ones(2)))),
        np.array([0.4, -0.2]), LiminfOpts()),
    "scaled-gaussian-0": lambda: (gaussian_family_scale(), np.zeros(2), LiminfOpts()),
    "scaled-gaussian-1": lambda: (gaussian_family_scale(), np.array([0.5, 0.5]), LiminfOpts()),
    "scaled-gaussian-2": lambda: (gaussian_family_scale(), np.array([-1.0, 0.3]), LiminfOpts()),
    "besov-399": lambda: (*besov_family_399(), LiminfOpts()),
    "besov-399-at-anchor": lambda: (besov_family_399()[0], np.zeros(50), LiminfOpts(n_random=2)),
    "rotated-gaussian-399": lambda: (*rotated_gaussian_399(), LiminfOpts()),
    "spike": lambda: (spike_sequence(), np.array([0.0]), LiminfOpts()),
    "step": lambda: (step_sequence(), np.array([0.0]), LiminfOpts()),
    "degenerate": lambda: (degenerate_family(), np.array([0.3, 0.0]), LiminfOpts(n_random=6)),
    "off-support": lambda: (off_support_family(), np.array([0.3, 0.0]), LiminfOpts()),
    "infinite-early-members": lambda: (infinite_early_family(), np.array([0.3, 0.0]),
                                       LiminfOpts()),
    "alternating-support": lambda: (alternating_support_family(), np.array([0.3, 0.0]),
                                    LiminfOpts()),
    "pinned-prefix": lambda: (pinned_prefix_family(), np.array([0.3, 0.0]), LiminfOpts()),
    "window-of-5": lambda: (gaussian_family_scale(n_members=10), np.array([0.5, -0.4]),
                            LiminfOpts()),
    "window-of-3": lambda: (gaussian_family_scale(n_members=6), np.array([0.5, -0.4]),
                            LiminfOpts()),
    "window-of-2": lambda: (gaussian_family_scale(n_members=4), np.array([0.5, -0.4]),
                            LiminfOpts()),
    "window-of-1": lambda: (gaussian_family_scale(n_members=2), np.array([0.5, -0.4]),
                            LiminfOpts()),
}


class TestExtrapolatedIntercepts:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_per_column_lstsq(self, seed):
        rng = np.random.default_rng(seed)
        rows, cols = 24, 40
        n = np.arange(10, 10 + rows, dtype=float)
        alpha = rng.choice([0.5, 1.0, 2.0], cols)
        dists = rng.uniform(0.5, 2.0, cols) * n[:, None] ** -alpha
        deficits = (rng.normal(size=cols) + rng.normal(size=cols) * dists
                    + 0.1 * rng.normal(size=(rows, cols)))
        deficits[rng.random((rows, cols)) < 0.3] = np.nan      # masked entries
        deficits[:, 0] = np.nan                                 # no point at all
        for col, kept in ((1, 1), (2, 2), (3, 3), (4, 8)):      # 1, 2, 3 and 8 points
            deficits[rng.permutation(rows)[kept:], col] = np.nan
        deficits[:, 5] = rng.normal(size=rows)                  # every point present
        dists[:, 6] = 0.0                                       # the constant path
        # 8 clustered abscissae, as the last 8 members n = 393..400 of a
        # 399-member window give on paths c n^-alpha: [0.965, 1] for
        # alpha = 2 down to [0.991, 1] for alpha = 0.5
        for col, a in ((7, 2.0), (8, 1.0), (9, 0.5)):
            dists[-8:, col] = (393.0 / np.arange(393, 401)) ** a
            deficits[:, col] = np.nan
            deficits[-8:, col] = 0.4 - 1.3 * dists[-8:, col] + 0.1 * rng.normal(size=8)
        got = _extrapolated_intercepts(dists, deficits)
        assert np.isnan(got[0])
        want = [reference_intercept(dists[~np.isnan(deficits[:, c]), c],
                                    deficits[~np.isnan(deficits[:, c]), c])
                for c in range(1, cols)]
        np.testing.assert_allclose(got[1:], want, rtol=1e-11, atol=0)
        assert got[1] == deficits[~np.isnan(deficits[:, 1]), 1][0]

    @pytest.mark.parametrize("rows", [1, 2, 3])
    def test_fewer_rows_than_the_cubic_needs(self, rows):
        rng = np.random.default_rng(rows)
        dists = rng.uniform(0.1, 1.0, (rows, 4))
        deficits = rng.normal(size=(rows, 4))
        deficits[0, 1] = np.nan                                 # one point fewer
        got = _extrapolated_intercepts(dists, deficits)
        present = ~np.isnan(deficits)
        want = [reference_intercept(dists[present[:, c], c], deficits[present[:, c], c])
                if present[:, c].any() else np.nan for c in range(4)]
        np.testing.assert_allclose(got, want, rtol=1e-11, atol=0)

    def test_coinciding_abscissae(self):
        # all points at one abscissa: no slope to fit, so the maximum
        # deficit, as at distance zero; with 2 and 3 distinct abscissae the
        # fits stop at degree 1 and 2, the exact least-squares ones
        dists = np.array([[0.5, 0.2, 0.1], [0.5, 0.2, 0.1], [0.5, 0.5, 0.3],
                          [0.5, 0.5, 0.6], [0.5, 0.5, 0.6], [0.9, 0.9, 0.6]])
        deficits = np.random.default_rng(7).normal(size=dists.shape)
        deficits[-1, :2] = np.nan                               # left out
        got = _extrapolated_intercepts(dists, deficits)
        assert got[0] == np.nanmax(deficits[:, 0])
        present = ~np.isnan(deficits)
        want = [reference_intercept(dists[present[:, c], c], deficits[present[:, c], c])
                for c in range(3)]
        np.testing.assert_allclose(got, want, rtol=1e-11, atol=0)

    @pytest.mark.parametrize("case", sorted(LIMINF_CASES))
    def test_column_stacked_drift_and_paths_fit_as_their_parts(self, case):
        # the probe fits the 1/n drift at x as one more column of the
        # paths' fit: on the whole window and on its last _FIT_POINTS
        # members, the stacked fit returns exactly each part's own result
        seq, x, opts = LIMINF_CASES[case]()
        target = seq.limit.eval(x)
        names, dirs, mags = default_paths(seq, x, opts)
        start = len(seq.indices) - len(mags)
        inv_n = 1.0 / np.asarray(seq.indices[start:], dtype=float)
        vals = np.array([f.values(x + m[:, None] * dirs)
                         for f, m in zip(seq.members[start:], mags)])
        dists = mags * np.linalg.norm(dirs, axis=1)
        finite = np.isfinite(vals)
        at_x = vals[:, -1:] if finite[:, -1].all() else target
        deficits = np.where(finite, at_x - vals, np.nan)
        drift = np.where(finite[:, -1], target - vals[:, -1], np.nan)
        for rows in (slice(None), slice(-_FIT_POINTS, None)):
            both = _extrapolated_intercepts(np.column_stack([inv_n[rows], dists[rows]]),
                                            np.column_stack([drift[rows], deficits[rows]]))
            alone = _extrapolated_intercepts(inv_n[rows, None], drift[rows, None])
            np.testing.assert_array_equal(both[:1], alone)
            np.testing.assert_array_equal(both[1:],
                                          _extrapolated_intercepts(dists[rows], deficits[rows]))

    def test_one_column(self):
        inv_n = 1.0 / np.arange(5.0, 17.0)
        gaps = 0.3 + 2.0 * inv_n - inv_n ** 2
        got = _extrapolated_intercepts(inv_n[:, None], gaps[:, None])
        assert got.shape == (1,)
        assert got[0] == pytest.approx(0.3, abs=1e-12)


def reference_default_paths(seq, x, opts):
    """``default_paths`` path by path: one Python loop appends each random
    path's name, direction and magnitudes, and the table is column-stacked."""
    rng = child_rng(opts.seed, "liminf-paths")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    dim = x.size
    n_arr = np.asarray(seq.indices, dtype=float)
    n_last = float(seq.indices[-1])
    n_win = n_arr[int(len(n_arr) * (1.0 - _LIMINF_WINDOW_FRAC)):]
    names, dirs, mags = [], [], []
    for j in range(opts.n_random):
        alpha = _PATH_ALPHAS[j % len(_PATH_ALPHAS)]
        c = float(rng.uniform(*_MAGNITUDE_RANGE)) * _WINDOW_DISTANCE * n_last ** alpha
        d = rng.standard_normal(dim)
        names.append(f"random-{j}")
        dirs.append(d / np.linalg.norm(d))
        mags.append(c * n_win ** (-alpha))
    names += [f"axis{sign}{k}" for k in range(dim) for sign in "+-"]
    dirs += list(np.stack([np.eye(dim), -np.eye(dim)], axis=1).reshape(2 * dim, dim))
    anchor = np.atleast_1d(seq.limit.anchor)
    if anchor.size == dim and (nrm := np.linalg.norm(anchor - x)) > 0:
        names.append("toward-anchor")
        dirs.append((anchor - x) / nrm)
    mags += [n_win ** -1.0] * (len(names) - opts.n_random)
    names.append("constant")
    dirs.append(np.zeros(dim))
    mags.append(np.zeros_like(n_win))
    return names, np.array(dirs), np.column_stack(mags)


#: (family, point) of the default_paths bit-identity cases
PATH_CASES = {
    "gaussian": lambda: (gaussian_family_scale(), np.array([0.5, 0.5])),
    "gaussian-at-anchor": lambda: (gaussian_family_scale(), np.zeros(2)),
    "besov-399": besov_family_399,
    "rotated-gaussian-399": rotated_gaussian_399,
}


class TestLiminfOpts:
    @pytest.mark.parametrize("n_random", [-3, 2.5, "4", None])
    def test_refuses_a_path_count_that_is_not_a_count(self, n_random):
        with pytest.raises(ParameterError, match="n_random must be an integer >= 0"):
            LiminfOpts(n_random=n_random)

    def test_no_random_paths_leaves_the_others(self):
        rep = gamma_liminf_probe(gaussian_family_scale(), np.array([0.5, 0.5]),
                                 LiminfOpts(n_random=np.int64(0)))
        assert rep.verdict == "pass"
        assert rep.n_paths == 2 * 2 + 2  # the axis paths, toward the anchor and constant


class TestDefaultPaths:
    @pytest.mark.parametrize("n_random", [0, 1, 2, 64])
    @pytest.mark.parametrize("case", sorted(PATH_CASES))
    def test_matches_the_path_by_path_table(self, case, n_random):
        seq, x = PATH_CASES[case]()
        for seed in (0, 3):
            opts = LiminfOpts(n_random=n_random, seed=seed)
            names, dirs, mags = default_paths(seq, x, opts)
            want_names, want_dirs, want_mags = reference_default_paths(seq, x, opts)
            assert names == want_names
            assert (dirs.shape, mags.shape) == (want_dirs.shape, want_mags.shape)
            # exact equality, the random alpha = 1 columns (j % 3 == 1) included
            np.testing.assert_array_equal(dirs, want_dirs)
            np.testing.assert_array_equal(mags, want_mags)
            assert ("toward-anchor" in names) == (case != "gaussian-at-anchor")


class TestLiminfProbe:
    def test_constant_lsc_family_passes(self):
        mu = GaussianMeasure(np.zeros(2), SpectralOperator(np.ones(2)))
        seq = gaussian_om_family([mu] * 16, mu)
        rep = gamma_liminf_probe(seq, np.array([0.4, -0.2]))
        assert rep.verdict == "pass"
        assert rep.n_paths > 64

    def test_scaled_gaussian_family_passes(self):
        seq = gaussian_family_scale()
        for x in (np.zeros(2), np.array([0.5, 0.5]), np.array([-1.0, 0.3])):
            rep = gamma_liminf_probe(seq, x)
            assert rep.verdict == "pass", rep.violations

    def test_spike_family_fails_at_zero(self):
        # negative log densities converge pointwise but the path 1/n
        # undershoots the limit value at x = 0
        seq = spike_sequence()
        rep = gamma_liminf_probe(seq, np.array([0.0]))
        assert rep.verdict == "fail"
        anchor_viol = [v for v in rep.violations if v.path_name == "toward-anchor"]
        assert anchor_viol
        # persistent deficit along x_n = 1/n: the member density at its own
        # bump exceeds its value at 0 by the factor 1 + 4 e^(-1/2)
        assert anchor_viol[0].margin == pytest.approx(
            math.log(1.0 + 4.0 * math.exp(-0.5)), abs=0.05)
        assert_witnesses_on_paths(seq, np.array([0.0]), rep)
        # the anchor path is x_n = 1/n: its witness sits at 1/at_index
        assert anchor_viol[0].witness_point[0] == pytest.approx(1.0 / anchor_viol[0].at_index,
                                                                rel=1e-15)

    def test_infinite_target_skipped(self):
        mu = GaussianMeasure(np.zeros(2), SpectralOperator(np.array([1.0, 0.0])))
        seq = gaussian_om_family([mu] * 8, mu)
        rep = gamma_liminf_probe(seq, np.array([0.0, 1.0]))
        assert rep.verdict == "skipped"

    def test_lsc_envelope_detection(self):
        # constant family of a non-lsc step: the probe margin at the jump
        # recovers the gap to the lower semicontinuous envelope
        seq = step_sequence()
        rep = gamma_liminf_probe(seq, np.array([0.0]))
        assert rep.verdict == "fail"
        assert max(v.margin for v in rep.violations) == pytest.approx(1.0, abs=1e-12)
        assert_witnesses_on_paths(seq, np.array([0.0]), rep)
        # only paths from below the jump undershoot, and their witnesses are < 0
        assert all(v.witness_point[0] < 0 for v in rep.violations)
        axis = {v.path_name: v for v in rep.violations if v.path_name.startswith("axis")}
        assert set(axis) == {"axis-0"}
        assert axis["axis-0"].witness_point[0] == pytest.approx(-1.0 / axis["axis-0"].at_index,
                                                                rel=1e-15)

    def test_failing_families_regression(self):
        assert_violations(gamma_liminf_probe(spike_sequence(), np.array([0.0])),
                          SPIKE_VIOLATIONS)
        assert_violations(gamma_liminf_probe(step_sequence(), np.array([0.0])),
                          STEP_VIOLATIONS)

    def test_degenerate_gaussian_family(self):
        # the even subsequence undershoots F(x) at x = (0.3, 0), and the
        # paths leaving the first axis are finite on even members only
        seq = degenerate_family()
        x = np.array([0.3, 0.0])
        rep = gamma_liminf_probe(seq, x, LiminfOpts(n_random=6))
        assert rep.n_paths == 12
        assert_violations(rep, [
            ("random-0", 32, 0.04532550250862439, [0.3467304897171163, -0.005399607035833797]),
            ("random-1", 32, 0.04579199460688719, [0.27762866392306085, -0.013090825058839694]),
            ("random-2", 32, 0.04870854098520352, [0.3012696589012517, -0.03480337973593212]),
            ("random-3", 18, 0.03899893673231988, [0.2885550768216641, 0.027473336315149022]),
            ("random-4", 18, 0.045791994606887196, [0.3048627319462071, 0.09915606547855957]),
            ("random-5", 18, 0.04579739832015951, [0.3483347405793098, 0.0047346520857098765]),
            ("axis+1", 18, 0.04579199460688717, [0.3, 0.05555555555555555]),
            ("axis-1", 32, 0.04579199460688734, [0.3, -0.03125]),
            ("constant", 17, 0.045791994606887286, [0.3, 0.0]),
        ])
        # x off every member's support: F_n(x) = +inf, so deficits are
        # taken against F(x); only the axis+1 path, through the means, is finite
        rep = gamma_liminf_probe(off_support_family(), x)
        assert rep.verdict == "pass"
        assert rep.n_paths == 64 + 4 + 2

    def test_besov_probe_memory_flat(self):
        # one member's points at a time: (paths x dim), not (members x paths x dim)
        seq, x = besov_family_399()
        tracemalloc.start()
        try:
            rep = gamma_liminf_probe(seq, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.verdict == "pass"
        assert rep.n_paths == 64 + 2 * 50 + 2
        assert peak < 4 * 2 ** 20, f"traced peak {peak / 2 ** 20:.1f} MB"

    @pytest.mark.parametrize("case", sorted(LIMINF_CASES))
    def test_matches_the_whole_window(self, case):
        seq, x, opts = LIMINF_CASES[case]()
        rep = gamma_liminf_probe(seq, x, opts)
        n_paths, want = whole_window_probe(seq, x, opts)
        assert rep.n_paths == n_paths
        assert rep.verdict == ("fail" if want else "pass")
        assert [(v.path_name, v.at_index) for v in rep.violations] == \
            [(name, at) for name, _, at, _ in want]
        for v, (_, margin, _, witness) in zip(rep.violations, want):
            np.testing.assert_array_equal(v.witness_point, witness)
            assert abs(v.margin - margin) <= 1e-12

    def test_evaluates_the_suffix_unless_it_cannot_decide(self, monkeypatch):
        on_paths, at_x = [], []
        values = OmFunctional.values

        def count_values(self, pts):
            on_paths.append(self)
            return values(self, pts)

        def count_eval(f, inner):
            def ev(u):
                at_x.append(f)
                return inner(u)
            return ev

        monkeypatch.setattr(OmFunctional, "values", count_values)
        # a passing family: the last 8 of its 200 window members on the
        # paths, and none of them at x, as every Besov-1 F_n is finite
        seq, x = besov_family_399()
        window = seq.members[-200:]
        for f in window:
            monkeypatch.setattr(f, "eval", count_eval(f, f.eval))
        assert gamma_liminf_probe(seq, x).verdict == "pass"
        assert [id(f) for f in on_paths] == [id(f) for f in window[-8:]]
        assert at_x == []
        # a passing family with pinned members before the suffix: those
        # four, and only those, evaluated at x
        on_paths.clear()
        seq = pinned_prefix_family()
        window = seq.members[-16:]
        for f in window:
            monkeypatch.setattr(f, "eval", count_eval(f, f.eval))
        assert gamma_liminf_probe(seq, np.array([0.3, 0.0])).verdict == "pass"
        assert [id(f) for f in on_paths] == [id(f) for f in window[-8:]]
        assert [id(f) for f in at_x] == [id(f) for f in window[:-8:2]]
        assert all("finite_everywhere" not in f.meta for f in at_x)
        # a failing family: each of its 20 window members on the paths, once
        on_paths.clear()
        seq = spike_sequence()
        assert gamma_liminf_probe(seq, np.array([0.0])).verdict == "fail"
        assert sorted(map(id, on_paths)) == sorted(map(id, seq.members[-20:]))
        # a passing family whose paths off the axis leave the domain of half
        # the suffix: a fit there reads points before it, so all 16 members
        on_paths.clear()
        assert gamma_liminf_probe(alternating_support_family(),
                                  np.array([0.3, 0.0])).verdict == "pass"
        assert len(on_paths) == 16


class TestGaussianRecovery:
    def test_constant_family_identity(self):
        mu = GaussianMeasure(np.array([0.3, -0.1]), SpectralOperator(np.array([2.0, 0.5])))
        rec = gaussian_recovery_sequence([mu] * 5, mu, np.array([0.7, 0.2]))
        for u_n in rec:
            np.testing.assert_allclose(u_n, [0.7, 0.2], atol=1e-14)

    def test_scale_family_explicit(self):
        limit = GaussianMeasure(np.zeros(1), SpectralOperator(np.array([1.0])))
        members = [GaussianMeasure(np.zeros(1),
                                   SpectralOperator(np.array([(1 + 1.0 / n) ** 2])))
                   for n in range(1, 11)]
        rec = gaussian_recovery_sequence(members, limit, np.array([1.0]))
        for n, u_n in enumerate(rec, start=1):
            assert u_n[0] == pytest.approx(1 + 1.0 / n)
            assert prior_om(members[n - 1]).eval(u_n) == pytest.approx(0.5, abs=1e-14)

    def test_off_range_constant_branch(self):
        limit = GaussianMeasure(np.zeros(2), SpectralOperator(np.array([1.0, 0.0])))
        members = [limit] * 4
        u = np.array([0.2, 1.0])
        rec = gaussian_recovery_sequence(members, limit, u)
        for u_n in rec:
            np.testing.assert_array_equal(u_n, u)

    def test_inequality_random_family(self):
        rng = np.random.default_rng(5)
        base = rng.normal(size=(3, 3))
        cov = SpectralOperator.from_dense(base @ base.T + 0.5 * np.eye(3))
        pert = rng.normal(size=(3, 3))
        d_mat = pert @ pert.T
        limit = GaussianMeasure(rng.normal(size=3), cov)
        members = [GaussianMeasure(limit.mean + np.array([1.0, 0, 0]) / n,
                                   SpectralOperator.from_dense(
                                       cov.basis @ np.diag(cov.eigenvalues) @ cov.basis.T
                                       + d_mat / n))
                   for n in range(1, 21)]
        fam = gaussian_om_family(members, limit)
        lim_fn = fam.limit
        for _ in range(100):
            w = rng.normal(size=3)
            u = limit.mean + sqrt_apply(cov, w)
            rec = gaussian_recovery_sequence(members, limit, u)
            target = lim_fn.eval(u)
            for i, u_n in enumerate(rec):
                assert fam.members[i].eval(u_n) <= target + 1e-12


class TestBesovRecovery:
    def test_constant_family_identity(self):
        mu = BesovMeasure(1.0, 1, 1.0, 6)
        u = np.array([1.0, -0.5, 0.2, 0, 0, 0.1])
        for u_n in besov_recovery_sequence([mu] * 3, mu, u):
            np.testing.assert_array_equal(u_n, u)

    def test_second_coordinate_rescaling(self):
        limit = BesovMeasure(1.0, 1, 1.0, 4)
        members = [BesovMeasure(1.0 + 1.0 / n, 1, 1.0, 4) for n in range(1, 9)]
        u = np.array([0.0, 1.0, 0.0, 0.0])
        rec = besov_recovery_sequence(members, limit, u)
        for n, u_n in enumerate(rec, start=1):
            assert u_n[1] == pytest.approx(2.0 ** (-1.0 / n), rel=1e-14)

    def test_exact_value_identity(self):
        rng = np.random.default_rng(6)
        limit = BesovMeasure(1.0, 1, 1.0, 50)
        members = [BesovMeasure(1.0 + (-1.0) ** n / n, 1, 1.0, 50) for n in range(2, 22)]
        fam = besov_om_family(members, limit, list(range(2, 22)))
        for _ in range(50):
            u = rng.laplace(scale=limit.gamma)
            target = fam.limit.eval(u)
            rec = besov_recovery_sequence(members, limit, u)
            for i, u_n in enumerate(rec):
                assert abs(fam.members[i].eval(u_n) - target) <= 1e-12 * max(1.0, target)

    def test_zero_maps_to_zero(self):
        limit = BesovMeasure(1.0, 1, 1.0, 3)
        members = [BesovMeasure(1.5, 1, 1.0, 3)]
        np.testing.assert_array_equal(
            besov_recovery_sequence(members, limit, np.zeros(3))[0], np.zeros(3))


def per_member_recovery(mu_limit, mu_seq, u):
    """x_n = m_n + B_n (s_n * (B_n^T v)) one member at a time, with v the
    limit's whitened preimage of u - m."""
    c = mu_limit.to_eigen(u - mu_limit.mean)
    free = ~mu_limit.pinned
    w = np.zeros_like(c)
    w[free] = c[free] / mu_limit.scale[free]
    v = w if mu_limit.basis is None else mu_limit.basis @ w
    return [m.mean + (m.scale * v if m.basis is None else m.basis @ (m.scale * (m.basis.T @ v)))
            for m in mu_seq]


def _rotation(rng, dim):
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


def _recovery_families():
    rng = np.random.default_rng(24)
    eig = rng.uniform(0.5, 2.0, 6)
    shift = rng.uniform(-0.4, 0.4, 6) * eig
    mean, mshift = rng.normal(0.0, 0.5, 6), rng.normal(0.0, 1.0, 6)
    a, b = _rotation(rng, 6), _rotation(rng, 6)

    def gauss(n, basis, eigenvalues=None):
        cov = SpectralOperator(eig + shift / n if eigenvalues is None else eigenvalues, basis)
        return GaussianMeasure(mean + mshift / n, cov)

    idx = range(2, 401)
    pinned = [gauss(n, a) for n in range(2, 12)]
    pinned[4] = gauss(6, a, np.where(np.arange(6) == 2, 0.0, eig))
    besov, _ = besov_family_399()
    return {"shared-rotated-basis": (gauss(1, a), [gauss(n, a) for n in idx]),
            "two-bases-interleaved": (gauss(1, a), [gauss(n, a if n % 2 else b) for n in idx]),
            "coordinate-and-rotated": (gauss(1, a), [gauss(n, None if n % 3 else a) for n in idx]),
            "coordinate-basis": (gauss(1, None), [gauss(n, None) for n in idx]),
            "pinned-member": (gauss(1, a), pinned),
            "besov1": (besov.limit_measure, besov.measures)}


class TestStackedRecovery:
    """The recovery sequence stacks members by basis and keeps the bits of
    the per-member formula."""

    @pytest.mark.parametrize("name", ["shared-rotated-basis", "two-bases-interleaved",
                                      "coordinate-and-rotated", "coordinate-basis",
                                      "pinned-member", "besov1"])
    def test_equals_the_per_member_formula(self, name):
        limit, members = _recovery_families()[name]
        forms = [(m.mean.copy(), m.scale.copy()) for m in members]
        rng = np.random.default_rng(7)
        for _ in range(3):
            u = limit.mean + rng.laplace(size=limit.dim)
            rec = gaussian_recovery_sequence(members, limit, u)
            want = per_member_recovery(limit, members, u)
            assert len(rec) == len(want)
            for got, ref in zip(rec, want):
                np.testing.assert_array_equal(got, ref)
        # x_n is formed in place in stacked copies, never in a member's own
        # mean or scale (several basis groups take the fancy-index branch)
        for m, (mean, scale), x in zip(members, forms, rec):
            np.testing.assert_array_equal(m.mean, mean)
            np.testing.assert_array_equal(m.scale, scale)
            assert not np.shares_memory(x, m.mean) and not np.shares_memory(x, m.scale)


class TestNonProductFamilies:
    """A family with a member or limit off the product form is refused by
    the probes that read product forms, each with its own message."""

    def test_a_non_product_family_keeps_its_messages(self):
        gauss = GaussianMeasure(np.zeros(1), SpectralOperator(np.ones(1)))
        wide = GaussianMeasure(np.zeros(2), SpectralOperator(np.ones(2)))
        density = Density1D(lambda x: 1.0, ((0.0, 1.0),))
        fn = prior_om(gauss)

        def family(measures, limit):
            return FunctionalSequence([1, 2], [fn, fn], fn, measures=measures,
                                      limit_measure=limit)

        with pytest.raises(InputError, match="no sublevel half-width for measure type Density1D$"):
            equicoercivity_probe(family([gauss, density], gauss), 1.0)
        with pytest.raises(InputError, match="family members and limit differ in dimension"):
            equicoercivity_probe(family([gauss, wide], gauss), 1.0)
        with pytest.raises(InputError, match="no sublevel half-width for measure type Density1D$"):
            equicoercivity_probe(family([density, density], density), 1.0)
        with pytest.raises(InputError, match="no recovery sequence for measure type Density1D$"):
            recovery_gap(family([density, density], density), np.zeros(1))


class TestEquicoercivity:
    def test_negative_level_vacuous(self):
        seq = gaussian_family_scale(4)
        entry = equicoercivity_probe(seq, -1.0)
        assert entry.verdict == "vacuous-pass"

    def test_gaussian_family(self):
        seq = gaussian_family_scale(12)
        entry = equicoercivity_probe(seq, 2.0)
        assert entry.verdict == "pass"
        assert entry.violations == 0
        # samples and seed are ignored, in the benchmark's positional form too
        assert equicoercivity_probe(seq, 2.0, 200, 7) == entry

    def test_one_dimensional_family(self):
        # a single coordinate has no ambient tail to read
        limit = GaussianMeasure(np.array([0.5]), SpectralOperator(np.ones(1)))
        members = [GaussianMeasure(np.array([0.5]), SpectralOperator(np.array([1.0 + 1.0 / n])))
                   for n in range(1, 11)]
        entry = equicoercivity_probe(gaussian_om_family(members, limit), 2.0)
        assert entry.verdict == "pass" and entry.tail_ratio is None
        assert entry.ratio == pytest.approx((0.5 + 2.0 * math.sqrt(1.0 + 1.0 / 6)) / 2.5)

    def test_needs_a_measure_family(self):
        mu = GaussianMeasure(np.zeros(1), SpectralOperator(np.ones(1)))
        seq = FunctionalSequence([1, 2], [prior_om(mu)] * 2, prior_om(mu))
        with pytest.raises(InputError, match="built from measures"):
            equicoercivity_probe(seq, 1.0)

    def test_besov_family_coordinate_box(self):
        limit = BesovMeasure(1.0, 1, 1.0, 30)
        members = [BesovMeasure(1.0 + (-1.0) ** n / n, 1, 1.0, 30) for n in range(2, 18)]
        seq = besov_om_family(members, limit, list(range(2, 18)))
        entry = equicoercivity_probe(seq, 1.0)
        assert entry.verdict == "pass"
        assert entry.violations == 0
        # the window is n = 10..17; the roughest member, n = 11, has half-widths
        # k^(1/2 - s_11) against the limit's k^(-1/2): ratio k^(1/11), largest
        # at the last leading coordinate, k = 15
        assert entry.first_index_checked == 10 and entry.n_members == 8
        assert entry.ratio == pytest.approx(15 ** (1 / 11), rel=1e-12)
        assert entry.witness_index is None

    def test_besov_drops_low_smoothness_members(self):
        limit = BesovMeasure(1.0, 1, 1.0, 10)
        members = [BesovMeasure(1.0 - 1.0 / n, 1, 1.0, 10) for n in range(1, 9)]
        seq = besov_om_family(members, limit, list(range(1, 9)))
        entry = equicoercivity_probe(seq, 1.0)
        # only members before the trailing window n = 5..8 are dropped, among
        # them the rough n = 1 (s = 0), whose half-widths reach 5x the limit's
        assert entry.verdict == "pass"
        assert entry.first_index_checked == 5
        assert entry.n_members == 4
        alone = besov_om_family(members[:1], limit, [1])
        rough = equicoercivity_probe(alone, 1.0)
        assert rough.verdict == "fail" and rough.witness_index == 1

    def test_rotated_probe_memory_flat(self):
        # 399 rotated 6-d members: their half-widths are one members x dim
        # array, and the probe draws no points
        rng = np.random.default_rng(9)
        q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        eig = rng.uniform(0.5, 2.0, 6)
        limit = GaussianMeasure(np.zeros(6), SpectralOperator(eig, q))
        members = [GaussianMeasure(np.full(6, 1.0 / n), SpectralOperator(eig * (1 + 1.0 / n), q))
                   for n in range(2, 401)]
        seq = gaussian_om_family(members, limit, list(range(2, 401)))
        tracemalloc.start()
        try:
            entry = equicoercivity_probe(seq, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert entry.verdict == "pass"
        assert peak < 4 * 2 ** 20


def reference_halfwidth(mu, t):
    """One member's half-widths written out per factor: |m| + sqrt(2t (B*B) v)
    for a Gaussian of variances v, |m| + t max_j |B_kj b_j| for Besov-1."""
    basis = mu.basis
    if isinstance(mu.factor, NormalFactor):
        return np.abs(mu.mean) + np.sqrt(2.0 * t * (mu.spread if basis is None
                                                   else (basis * basis) @ mu.spread))
    return np.abs(mu.mean) + (mu.scale if basis is None
                              else np.abs(basis * mu.scale).max(axis=1)) * t


def _halfwidth_windows():
    rng = np.random.default_rng(36)
    q = _rotation(rng, 5)

    def gauss(basis=None, pinned=0):
        eig = rng.uniform(0.2, 3.0, 5)
        eig[5 - pinned:] = 0.0
        return GaussianMeasure(rng.normal(size=5), SpectralOperator(eig, basis))

    aligned = [gauss() for _ in range(9)]
    shared = [gauss(q) for _ in range(9)]
    own = [gauss(_rotation(rng, 5)) for _ in range(9)]
    return {"aligned-gaussian": aligned, "rotated-shared-basis": shared,
            "rotated-own-basis": own,
            "degenerate-gaussian": [gauss(q, pinned=2) for _ in range(4)] + [gauss(pinned=1)],
            "besov1": [BesovMeasure(float(s), 1, 1.0, 40) for s in rng.uniform(0.6, 1.4, 9)],
            "interleaved": [m for trio in zip(aligned, shared, own) for m in trio]}


class TestStackedHalfwidths:
    """The window's half-widths, one sublevel_reach call per shared basis,
    keep the bits of each member's own sublevel_halfwidth."""

    @pytest.mark.parametrize("name", ["aligned-gaussian", "rotated-shared-basis",
                                      "rotated-own-basis", "degenerate-gaussian", "besov1",
                                      "interleaved"])
    def test_equal_per_member_halfwidths(self, name):
        window = _halfwidth_windows()[name]
        bases = {id(mu.basis) for mu in window}
        assert len(bases) == {"rotated-own-basis": 9, "degenerate-gaussian": 2,
                              "interleaved": 11}.get(name, 1)
        for t in (0.0, 0.37, 1.0, 5.0):
            h = _halfwidths(window, t)
            np.testing.assert_array_equal(h, np.stack([sublevel_halfwidth(mu, t)
                                                       for mu in window]))
            np.testing.assert_array_equal(h, np.stack([reference_halfwidth(mu, t)
                                                       for mu in window]))


def _escaping_gaussians(member):
    """Members N(m_n, C_n) from ``member(n)`` for n = 1..39 against the
    limit N(0, I) in R^4."""
    idx = list(range(1, 40))
    limit = GaussianMeasure(np.zeros(4), SpectralOperator(np.ones(4)))
    return gaussian_om_family([member(n) for n in idx], limit, idx)


class TestEquicoercivityFails:
    """Families whose sublevel sets escape every compact set; the sampled
    check that the exact envelopes replaced passed each of them."""

    def test_growing_variances(self):
        seq = _escaping_gaussians(
            lambda n: GaussianMeasure(np.zeros(4), SpectralOperator(np.full(4, n * n * 1.0))))
        entry = equicoercivity_probe(seq, 1.0)
        assert entry.verdict == "fail"
        assert entry.witness_index == 39
        assert entry.violations == 20  # every window member n = 20..39 exceeds 2x
        assert entry.ratio == pytest.approx(39.0, rel=1e-12)
        assert entry.slope == pytest.approx(1.0, rel=1e-12)
        assert "member 39" in entry.note

    def test_moving_means(self):
        seq = _escaping_gaussians(
            lambda n: GaussianMeasure(np.full(4, float(n)), SpectralOperator(np.ones(4))))
        entry = equicoercivity_probe(seq, 1.0)
        assert entry.verdict == "fail"
        assert entry.witness_index == 39
        assert entry.ratio == pytest.approx((39 + math.sqrt(2)) / math.sqrt(2), rel=1e-12)

    def test_interleaved_rough_besov(self):
        # s_n = 0.2 whenever 4 | n: the rough members sit inside every window
        limit = BesovMeasure(1.0, 1, 1.0, 50)
        indices = [2 ** k for k in range(1, 17)]
        members = [BesovMeasure(0.2 if n % 4 == 0 else 1.0 + 1.0 / n, 1, 1.0, 50)
                   for n in range(1, 17)]
        entry = equicoercivity_probe(besov_om_family(members, limit, indices), 1.0)
        assert entry.verdict == "fail"
        assert entry.first_index_checked == 2 ** 9
        assert entry.violations == 2  # n = 12 and 16, indices 2^12 and 2^16
        assert entry.witness_index == 2 ** 12
        # half-widths k^0.3 t against k^(-1/2) t, at the last leading coordinate k = 25
        assert entry.ratio == pytest.approx(25 ** 0.8, rel=1e-12)

    def test_tail_alone(self):
        # leading coordinates match the limit; beyond them each half-width is
        # 3x the limit's, which only the ambient tail read sees
        seq = _escaping_gaussians(lambda n: GaussianMeasure(
            np.zeros(4), SpectralOperator(np.array([1.0, 1.0, 9.0, 9.0]))))
        entry = equicoercivity_probe(seq, 1.0)
        assert entry.ratio == pytest.approx(1.0) and entry.slope == pytest.approx(0.0)
        assert entry.tail_ratio == pytest.approx(3.0, rel=1e-12)
        assert entry.verdict == "fail" and entry.violations == 20
        assert entry.witness_index == 20

    def test_slow_growth_within_the_ratio_bound(self):
        # half-widths 0.2 sqrt(2n) stay below 2x the limit's up to n = 39 but grow
        # like n^(1/2); only the slope read sees it
        seq = _escaping_gaussians(
            lambda n: GaussianMeasure(np.zeros(4), SpectralOperator(np.full(4, 0.04 * n))))
        entry = equicoercivity_probe(seq, 1.0)
        assert entry.ratio < 2.0 and entry.tail_ratio < 2.0
        assert entry.slope == pytest.approx(0.5, rel=1e-12)
        assert entry.verdict == "fail" and entry.violations == 0
        assert entry.witness_index == 39

    def test_approach_from_below_is_not_growth(self):
        # half-widths sqrt(2) (1 - 1/n) rise towards the limit's over the short
        # window n = 4, 5 at log-log slope 0.29, but never pass it
        idx = list(range(2, 6))
        limit = GaussianMeasure(np.zeros(2), SpectralOperator(np.ones(2)))
        members = [GaussianMeasure(np.zeros(2), SpectralOperator(np.full(2, (1 - 1 / n) ** 2)))
                   for n in idx]
        entry = equicoercivity_probe(gaussian_om_family(members, limit, idx), 1.0)
        assert entry.slope == pytest.approx(math.log(16 / 15) / math.log(5 / 4), rel=1e-12)
        assert entry.verdict == "pass" and entry.witness_index is None


def reference_single_linkage(points, tol):
    """Single linkage that measures each popped point against every point."""
    labels = np.full(len(points), -1, dtype=int)
    cid = 0
    for i in range(len(points)):
        if labels[i] >= 0:
            continue
        stack = [i]
        labels[i] = cid
        while stack:
            d = np.linalg.norm(points - points[stack.pop()], axis=1)
            nbrs = np.where((d <= tol) & (labels < 0))[0]
            labels[nbrs] = cid
            stack.extend(nbrs.tolist())
        cid += 1
    return labels


class TestModeConvergence:
    @pytest.mark.parametrize("seed", range(4))
    def test_single_linkage_matches_the_reference(self, seed):
        # chains, duplicates and singletons, with many distances near tol
        rng = np.random.default_rng(seed)
        for _ in range(25):
            n, dim, k = int(rng.integers(1, 200)), int(rng.integers(1, 60)), int(rng.integers(1, 9))
            centers = rng.normal(size=(k, dim))
            points = centers[rng.integers(k, size=n)] + \
                rng.normal(size=(n, dim)) * 10.0 ** rng.uniform(-5, -2)
            points[rng.integers(n, size=n // 4)] = points[0]
            tol = 10.0 ** rng.uniform(-4, -2)
            np.testing.assert_array_equal(_single_linkage(points, tol),
                                          reference_single_linkage(points, tol))

    def test_refuses_an_empty_family(self):
        mu = GaussianMeasure(np.array([0.2, 0.4]), SpectralOperator(np.ones(2)))
        with pytest.raises(InputError, match="non-empty family"):
            mode_convergence_check(gaussian_om_family([], mu, []), [])

    def test_constant_family(self):
        mu = GaussianMeasure(np.array([0.2, 0.4]), SpectralOperator(np.ones(2)))
        seq = gaussian_om_family([mu] * 20, mu)
        rep = mode_convergence_check(seq, [mu.mean] * 20)
        assert rep.verdict == "pass"
        assert len(rep.cluster_points) == 1
        np.testing.assert_allclose(rep.cluster_points[0], mu.mean)

    def test_shifted_means_cluster_at_limit(self):
        limit = GaussianMeasure(np.zeros(2), SpectralOperator(np.ones(2)))
        members = [GaussianMeasure(np.array([1.0 / n, 0.0]), SpectralOperator(np.ones(2)))
                   for n in range(1, 3001)]
        seq = gaussian_om_family(members, limit)
        rep = mode_convergence_check(seq, [m.mean for m in members],
                                     ModeConvOpts(value_tol=1e-6, min_tol=1e-6))
        assert rep.verdict == "pass"
        assert np.linalg.norm(rep.cluster_points[0]) < 1e-3

    def test_alternating_mixture_modes_two_clusters(self):
        from ommap.counterexamples import mixture_modes

        r = 5.0
        indices = list(range(2, 62))
        members, mins = [], []
        for n in indices:
            t = (-1.0) ** n / n
            fam = MixtureFamily(t, r)
            members.append(density_om(
                _mixture_density(fam), anchor=mixture_modes(t, r).mode))
            mins.append(np.array([mixture_modes(t, r).mode]))
        limit_fam = MixtureFamily(0.0, r)
        limit_modes = mixture_modes(0.0, r)
        limit = density_om(_mixture_density(limit_fam), anchor=limit_modes.mode)
        seq = FunctionalSequence(indices, members, limit)
        rep = mode_convergence_check(seq, mins, ModeConvOpts(cluster_tol=1e-3,
                                                             value_tol=1e-6,
                                                             min_tol=1e-4))
        assert len(rep.cluster_points) == 2
        reps = sorted(float(c[0]) for c in rep.cluster_points)
        oracle = sorted(limit_modes.local_maxima)
        assert reps[0] == pytest.approx(oracle[0], abs=1e-4)
        assert reps[1] == pytest.approx(oracle[1], abs=1e-4)

    def test_scattered_sequence_diagnostic(self):
        mu = GaussianMeasure(np.zeros(1), SpectralOperator(np.ones(1)))
        seq = gaussian_om_family([mu] * 40, mu)
        rng = np.random.default_rng(8)
        scattered = [rng.uniform(-10, 10, 1) for _ in range(40)]
        rep = mode_convergence_check(seq, scattered)
        assert rep.verdict == "diagnostic"
        assert "no convergent subsequence" in rep.note

    def test_length_mismatch(self):
        mu = GaussianMeasure(np.zeros(1), SpectralOperator(np.ones(1)))
        seq = gaussian_om_family([mu] * 4, mu)
        with pytest.raises(InputError):
            mode_convergence_check(seq, [np.zeros(1)] * 3)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_same_report_for_every_minimiser_container(self, dim):
        # two clusters, at +-0.5 in the first coordinate, neither the limit's mode
        idx = list(range(1, 41))
        limit = GaussianMeasure(np.zeros(dim), SpectralOperator(np.ones(dim)))
        members = [GaussianMeasure(np.r_[(-1.0) ** n * 0.5 + 1e-4 / n, np.full(dim - 1, 0.1 / n)],
                                   SpectralOperator(np.ones(dim))) for n in idx]
        seq = gaussian_om_family(members, limit, idx)
        arrays = [m.mean for m in members]
        want = mode_convergence_check(seq, arrays)
        assert want.cluster_sizes == [5, 5] and want.verdict == "fail"
        given = [[a.tolist() for a in arrays], np.array(arrays)]
        if dim == 1:  # scalar minimisers, as a list and as a 1-d array
            given += [[float(a[0]) for a in arrays], np.array(arrays)[:, 0]]
        for minimizers in given:
            rep = mode_convergence_check(seq, minimizers)
            assert len(rep.cluster_points) == len(want.cluster_points)
            for got, ref in zip(rep.cluster_points, want.cluster_points):
                np.testing.assert_array_equal(got, ref)
            assert (rep.cluster_sizes, rep.limit_min, rep.value_errors, rep.min_gap,
                    rep.verdict, rep.note) == (want.cluster_sizes, want.limit_min,
                                               want.value_errors, want.min_gap,
                                               want.verdict, want.note)


def _mixture_density(fam):
    from ommap import Density1D
    return Density1D(pdf=lambda x: float(fam.density(x)),
                     support=((-45.0, 45.0),), total_mass=1.0)


def _per_point_suprema(phi_seq, phi_limit, x, indices, seed=0, point_index=0):
    """The probe's suprema by its earlier loop, one ``eval`` per sampled point."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    target = phi_limit.eval(x)
    sups = []
    for j, (n, phi) in enumerate(zip(indices, phi_seq)):
        rho = _CC_RHO0 * n ** -0.5
        rng = child_rng(seed, "cont-conv", point_index, j)
        pts = x[None, :] + rho * _uniform_pball(rng, _CC_SAMPLES, x.size, 2.0)
        pts = np.vstack([pts, x[None, :]])
        if x.size == 1:
            pts = np.vstack([pts, np.linspace(x[0] - rho, x[0] + rho, 51)[:, None]])
        sups.append(max(abs(float(phi.eval(p)) - target) for p in pts))
    return np.array(sups)


def _misfit_members(rng, k, j, indices):
    """A linear observation's potential and its potentials at data y + d / n."""
    obs = LinearObservation(rng.normal(size=(j, k)), SpectralOperator(rng.uniform(0.5, 2.0, j)),
                            rng.normal(size=j))
    d = rng.normal(size=j)
    return quadratic_potential(obs), [
        quadratic_potential(LinearObservation(obs.matrix, obs.noise_cov, obs.data + d / n))
        for n in indices]


class TestContinuousConvergence:
    @pytest.mark.parametrize("k", [1, 4])
    def test_data_members_match_the_per_point_loop(self, k):
        # in 1-d each member reads 252 points: 200 draws, x and 51 grid points
        indices = [1, 2, 4, 8, 16]
        limit, members = _misfit_members(np.random.default_rng(40 + k), k, 3, indices)
        points = np.random.default_rng(41).normal(size=(2, k))
        entries = continuous_convergence_probe(members, limit, points, indices, seed=5)
        for pi, (x, e) in enumerate(zip(points, entries)):
            np.testing.assert_array_equal(
                e.suprema, _per_point_suprema(members, limit, x, indices, 5, pi))

    def test_projection_members_match_the_per_point_loop(self):
        indices = list(range(1, 7))
        limit = _misfit_members(np.random.default_rng(42), 6, 4, [])[0]
        members = [projected_potential(limit, n) for n in indices]
        x = np.random.default_rng(43).normal(size=6)
        entry = continuous_convergence_probe(members, limit, [x], indices)[0]
        np.testing.assert_array_equal(entry.suprema,
                                      _per_point_suprema(members, limit, x, indices))

    @pytest.mark.parametrize("k", [1, 3])
    def test_member_infinite_on_part_of_its_neighbourhood(self, k):
        # phi_n is +inf past u_1 = 0.6: the neighbourhoods of radius n^(-1/2)
        # about 0 cross it for n = 1, 2, whose suprema are +inf
        def member(n):
            return Potential(lambda pts: np.where(pts[:, 0] > 0.6, math.inf,
                                                  np.sum(pts * pts, axis=1) + 1.0 / n), None, k)

        indices = [1, 2, 4, 8, 16, 32]
        members, limit = [member(n) for n in indices], member(math.inf)
        x = np.zeros(k)
        entry = continuous_convergence_probe(members, limit, [x], indices, seed=7)[0]
        want = _per_point_suprema(members, limit, x, indices, 7)
        np.testing.assert_array_equal(entry.suprema, want)
        assert np.all(np.isinf(want[:2])) and np.all(np.isfinite(want[2:]))

    def test_infinite_block_means_are_not_subtracted(self):
        # indices 1, 2, 4, 8 are one block each: the means of n = 1, 2 are
        # +inf, and the trend compares them without taking inf - inf, so no
        # invalid-value warning; +inf -> +inf is not a decrease
        def member(n):
            return Potential(lambda pts: np.where(pts[:, 0] > 0.6, math.inf,
                                                  np.sum(pts * pts, axis=1) + 1.0 / n), None, 1)

        indices = [1, 2, 4, 8]
        entry = continuous_convergence_probe([member(n) for n in indices], member(math.inf),
                                             [np.zeros(1)], indices, seed=7)[0]
        assert np.all(np.isinf(entry.suprema[:2])) and np.all(np.isfinite(entry.suprema[2:]))
        assert not entry.trend_decreasing
        assert entry.verdict == "fail"

    def test_constant_continuous_potential(self):
        phi = pointwise(lambda u: float(np.sin(np.sum(u))), 2)
        entries = continuous_convergence_probe([phi] * 12, phi, [np.array([0.3, 0.1])],
                                               seed=1)
        assert entries[0].verdict == "pass"

    @pytest.mark.parametrize("index", [0, -1])
    def test_index_below_one_refused(self, index):
        # the neighbourhood radius is n^(-1/2): no radius at 0, a complex one below
        phi = pointwise(lambda u: float(np.sum(u)), 2)
        with pytest.raises(InputError, match="indices"):
            continuous_convergence_probe([phi] * 3, phi, [np.zeros(2)], indices=[index, 2, 3])

    def test_empty_sequence_refused(self):
        # no potential gives no suprema to trend
        phi = pointwise(lambda u: float(np.sum(u)), 2)
        for indices in (None, []):
            with pytest.raises(InputError, match="phi_seq is empty"):
                continuous_convergence_probe([], phi, [np.zeros(2)], indices=indices)

    def test_projected_linear_functional_tail_decay(self):
        k_dim = 20
        coef = 1.0 / np.arange(1, k_dim + 1)
        y = 0.7

        def phi(u):
            return 0.5 * (y - float(coef @ u)) ** 2

        phis = [pointwise((lambda n: (lambda u: phi(project(u, n))))(n), k_dim)
                for n in range(1, k_dim + 1)]
        x = np.full(k_dim, 0.2)
        entries = continuous_convergence_probe(phis, pointwise(phi, k_dim), [x], seed=2)
        e = entries[0]
        assert e.verdict == "pass"
        assert e.suprema[-1] < 0.25 * e.suprema[0]

    def test_spike_potentials_fail_at_zero(self):
        lim = SpikeFamily(math.inf)

        def make_phi(n):
            fam = SpikeFamily(n)
            return pointwise(lambda u: -math.log(float(fam.density(u[0])) /
                                                 float(lim.density(u[0]))), 1)

        phis = [make_phi(n) for n in range(1, 121)]
        entries = continuous_convergence_probe(phis, pointwise(lambda u: 0.0, 1),
                                               [np.array([0.0])], seed=3)
        assert entries[0].verdict == "fail"
        assert entries[0].final_sup > 0.5


class TestSumRule:
    def test_zero_perturbation_reduces_to_base(self):
        seq = gaussian_family_scale(16)
        zero = pointwise(lambda u: 0.0, 2)
        rec = lambda x: gaussian_recovery_sequence(seq.measures, seq.limit_measure, x)
        rep = sum_rule_check(seq, [zero] * 16, zero,
                             [np.zeros(2), np.array([0.5, -0.5])], rec)
        assert rep.verdict == "pass"

    def test_gaussian_plus_projected_misfit(self):
        seq = gaussian_family_scale(16)
        coef = np.array([1.0, 0.5])

        def phi(u):
            return 0.5 * (1.0 - float(coef @ u)) ** 2

        phis = [pointwise((lambda n: (lambda u: phi(project(u, min(n, 2)))))(n), 2)
                for n in range(1, 17)]
        rec = lambda x: gaussian_recovery_sequence(seq.measures, seq.limit_measure, x)
        rep = sum_rule_check(seq, phis, pointwise(phi, 2), [np.zeros(2), np.array([0.3, 0.2])], rec,
                             recovery_tol=1e-2)
        assert rep.verdict == "pass"

    def test_gaps_are_written_as_gamma_reports_write_them(self):
        seq = gaussian_family_scale(16)
        zero = pointwise(lambda u: 0.0, 2)
        rec = lambda x: gaussian_recovery_sequence(seq.measures, seq.limit_measure, x)
        summed = sum_rule_check(seq, [zero] * 16, zero, [np.array([0.5, -0.5])], rec)
        gamma, _ = _run_gamma_check(
            {"indices": [1, 2, 3], "recovery_points": [[0.5, -0.5]], "t_values": [],
             "check_modes": False,
             "family": {"type": "besov1", "s": 1.0, "d": 1, "eta": 1.0, "dim": 2}}, 0)
        for report in (summed, gamma):
            gaps = json.loads(json.dumps(report, default=_json_default))["recovery_gaps"]
            assert gaps and all(set(g) == {"x", "gap"} for g in gaps)
