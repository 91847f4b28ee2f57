"""Variational-convergence probes on families with known behaviour."""

import math
import tracemalloc

import numpy as np
import pytest

from ommap import (BesovMeasure, ContinuousConvOpts, FunctionalSequence,
                   GaussianMeasure, InputError, LiminfOpts, ModeConvOpts,
                   OmFunctional, SpectralOperator, besov_om, besov_om_family,
                   besov_recovery_sequence, continuous_convergence_probe,
                   density_om, equicoercivity_probe, gamma_liminf_probe,
                   gaussian_om, gaussian_om_family, gaussian_recovery_sequence,
                   mode_convergence_check, project, sum_rule_check)
from ommap.counterexamples import SpikeFamily, MixtureFamily, _spike_density1d
from ommap.gamma import default_paths


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
        members = [density_om(_spike_density1d(n), anchor=1.0 / n) for n in range(1, 41)]
        limit = density_om(_spike_density1d("inf"), anchor=1.0)
        seq = FunctionalSequence(list(range(1, 41)), members, limit)
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
        def step(u):
            return 1.0 if float(np.asarray(u).reshape(())) >= 0 else 0.0

        fn = OmFunctional(eval=step, domain_test=lambda u: True, anchor=np.array([-1.0]))
        seq = FunctionalSequence(list(range(1, 17)), [fn] * 16, fn)
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

    def test_besov_probe_memory_flat(self):
        # one member's points at a time: (paths x dim), not (members x paths x dim)
        idx = list(range(2, 401))
        limit = BesovMeasure(1.0, 1, 1.0, 50)
        members = [BesovMeasure(1.0 + (-1.0) ** n * 0.3 / n, 1, 1.0, 50) for n in idx]
        seq = besov_om_family(members, limit, idx)
        x = 0.5 * limit.gamma * np.random.default_rng(0).laplace(size=50)
        tracemalloc.start()
        try:
            rep = gamma_liminf_probe(seq, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.verdict == "pass"
        assert rep.n_paths == 64 + 2 * 50 + 2
        assert peak < 4 * 2 ** 20, f"traced peak {peak / 2 ** 20:.1f} MB"


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
            assert gaussian_om(members[n - 1])(u_n) == pytest.approx(0.5, abs=1e-14)

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
            u = limit.mean + cov.sqrt_apply(w)
            rec = gaussian_recovery_sequence(members, limit, u)
            target = lim_fn(u)
            for i, u_n in enumerate(rec):
                assert fam.members[i](u_n) <= target + 1e-12


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
            target = fam.limit(u)
            rec = besov_recovery_sequence(members, limit, u)
            for i, u_n in enumerate(rec):
                assert abs(fam.members[i](u_n) - target) <= 1e-12 * max(1.0, target)

    def test_zero_maps_to_zero(self):
        limit = BesovMeasure(1.0, 1, 1.0, 3)
        members = [BesovMeasure(1.5, 1, 1.0, 3)]
        np.testing.assert_array_equal(
            besov_recovery_sequence(members, limit, np.zeros(3))[0], np.zeros(3))


class TestEquicoercivity:
    def test_negative_level_vacuous(self):
        seq = gaussian_family_scale(4)
        entry = equicoercivity_probe(seq, -1.0, 100)
        assert entry.verdict == "vacuous-pass"

    def test_gaussian_family(self):
        seq = gaussian_family_scale(12)
        entry = equicoercivity_probe(seq, 2.0, 2000, seed=1)
        assert entry.verdict == "pass"
        assert entry.violations == 0

    def test_besov_family_coordinate_box(self):
        limit = BesovMeasure(1.0, 1, 1.0, 30)
        members = [BesovMeasure(1.0 + (-1.0) ** n / n, 1, 1.0, 30) for n in range(2, 18)]
        seq = besov_om_family(members, limit, list(range(2, 18)))
        entry = equicoercivity_probe(seq, 1.0, 2000, seed=2)
        assert entry.verdict == "pass"
        assert entry.violations == 0
        assert "gammabar" in entry.bound

    def test_besov_drops_low_smoothness_members(self):
        limit = BesovMeasure(1.0, 1, 1.0, 10)
        members = [BesovMeasure(1.0 - 1.0 / n, 1, 1.0, 10) for n in range(1, 9)]
        seq = besov_om_family(members, limit, list(range(1, 9)))
        entry = equicoercivity_probe(seq, 1.0, 200, seed=3)
        # s_n = 1 - 1/n >= s_bar = 0.5 needs n >= 2
        assert entry.first_index_checked == 2
        assert entry.n_members == 7


class TestModeConvergence:
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
        rep = mode_convergence_check(seq, scattered, ModeConvOpts(max_clusters=3))
        assert rep.verdict == "diagnostic"
        assert "no convergent subsequence" in rep.note

    def test_length_mismatch(self):
        mu = GaussianMeasure(np.zeros(1), SpectralOperator(np.ones(1)))
        seq = gaussian_om_family([mu] * 4, mu)
        with pytest.raises(InputError):
            mode_convergence_check(seq, [np.zeros(1)] * 3)


def _mixture_density(fam):
    from ommap import Density1D
    return Density1D(pdf=lambda x: float(fam.density(x)),
                     support=((-45.0, 45.0),), total_mass=1.0)


class TestContinuousConvergence:
    def test_constant_continuous_potential(self):
        phi = lambda u: float(np.sin(np.sum(u)))
        entries = continuous_convergence_probe([phi] * 12, phi,
                                               [np.array([0.3, 0.1])],
                                               opts=ContinuousConvOpts(seed=1))
        assert entries[0].verdict == "pass"

    def test_projected_linear_functional_tail_decay(self):
        k_dim = 20
        coef = 1.0 / np.arange(1, k_dim + 1)
        y = 0.7

        def phi(u):
            return 0.5 * (y - float(coef @ u)) ** 2

        phis = [(lambda n: (lambda u: phi(project(u, n))))(n) for n in range(1, k_dim + 1)]
        x = np.full(k_dim, 0.2)
        entries = continuous_convergence_probe(phis, phi, [x],
                                               opts=ContinuousConvOpts(seed=2))
        e = entries[0]
        assert e.verdict == "pass"
        assert e.suprema[-1] < 0.25 * e.suprema[0]

    def test_spike_potentials_fail_at_zero(self):
        lim = SpikeFamily(math.inf)

        def make_phi(n):
            fam = SpikeFamily(n)
            return lambda u: -math.log(float(fam.density(u[0])) /
                                       float(lim.density(u[0])))

        phis = [make_phi(n) for n in range(1, 121)]
        entries = continuous_convergence_probe(
            phis, lambda u: 0.0, [np.array([0.0])],
            opts=ContinuousConvOpts(seed=3))
        assert entries[0].verdict == "fail"
        assert entries[0].final_sup > 0.5


class TestSumRule:
    def test_zero_perturbation_reduces_to_base(self):
        seq = gaussian_family_scale(16)
        zero = lambda u: 0.0
        rec = lambda x: gaussian_recovery_sequence(seq.measures, seq.limit_measure, x)
        rep = sum_rule_check(seq, [zero] * 16, zero,
                             [np.zeros(2), np.array([0.5, -0.5])], rec)
        assert rep.verdict == "pass"

    def test_gaussian_plus_projected_misfit(self):
        seq = gaussian_family_scale(16)
        coef = np.array([1.0, 0.5])

        def phi(u):
            return 0.5 * (1.0 - float(coef @ u)) ** 2

        phis = [(lambda n: (lambda u: phi(project(u, min(n, 2)))))(n)
                for n in range(1, 17)]
        rec = lambda x: gaussian_recovery_sequence(seq.measures, seq.limit_measure, x)
        rep = sum_rule_check(seq, phis, phi, [np.zeros(2), np.array([0.3, 0.2])], rec,
                             recovery_tol=1e-2)
        assert rep.verdict == "pass"
