"""Norms, projections, spectral operators, and the test-only pseudoinverse
references of ``pinv_reference``."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ommap import (InputError, ParameterError, SpectralOperator, WeightedSeqSpace,
                   project, row_norms, weighted_norm)
from pinv_reference import apply, in_range_sqrt, pinv_apply, sqrt_apply, sqrt_pinv_apply


def vec_space(p, weights):
    return WeightedSeqSpace(p, np.asarray(weights, dtype=float))


class TestWeightedNorm:
    def test_zero_vector(self):
        sp = vec_space(1.5, [1.0, 2.0, 3.0])
        assert weighted_norm(np.zeros(3), sp) == 0.0

    def test_p1_weights(self):
        assert weighted_norm([1.0, 2.0], vec_space(1.0, [1.0, 2.0])) == 2.0

    def test_power_law_weights_high_precision(self):
        # oracle: sum k^(1/2) |u_k| evaluated in 50-digit arithmetic
        import mpmath
        mpmath.mp.dps = 50
        expected = float(mpmath.mpf(1) + mpmath.sqrt(2))
        k = np.arange(1, 4, dtype=float)
        sp = vec_space(1.0, k ** -0.5)
        got = weighted_norm([1.0, 1.0, 0.0], sp)
        assert got == pytest.approx(expected, abs=1e-14)

    def test_sup_norm(self):
        sp = vec_space(math.inf, [1.0, 0.5])
        assert weighted_norm([1.0, 1.0], sp) == 2.0

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            weighted_norm([1.0, 2.0, 3.0], vec_space(2.0, [1.0, 2.0]))

    def test_invalid_space(self):
        with pytest.raises(ParameterError):
            vec_space(0.0, [1.0])
        with pytest.raises(ParameterError):
            vec_space(2.0, [1.0, -1.0])

    @given(st.floats(min_value=-10, max_value=10, allow_nan=False),
           st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_absolute_homogeneity(self, c, seed):
        rng = np.random.default_rng(seed)
        u = rng.normal(size=4)
        sp = vec_space(1.7, rng.uniform(0.5, 2.0, 4))
        assert weighted_norm(c * u, sp) == pytest.approx(abs(c) * weighted_norm(u, sp),
                                                         rel=1e-12, abs=1e-12)

    @given(st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf]),
           st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_triangle_inequality(self, p, seed):
        rng = np.random.default_rng(seed)
        u, v = rng.normal(size=(2, 5))
        sp = vec_space(p, rng.uniform(0.5, 2.0, 5))
        lhs = weighted_norm(u + v, sp)
        rhs = weighted_norm(u, sp) + weighted_norm(v, sp)
        assert lhs <= rhs + 1e-12


class TestRowNorms:
    def test_large_p_does_not_underflow(self):
        # 0.5^2000 underflows: unscaled, the row would read 0
        sp = vec_space(2000.0, [1.0, 1.0, 1.0])
        assert row_norms(np.array([[0.5, 0.4, 0.3]]), sp)[0] == pytest.approx(0.5, rel=1e-14)

    def test_large_p_does_not_overflow(self):
        # |x / w| = (10, 0.1, 0.1) and 10^400 overflows: unscaled, the row would read inf
        sp = vec_space(400.0, [1e-3, 1.0, 1.0])
        assert row_norms(np.array([[0.01, 0.1, 0.1]]), sp)[0] == pytest.approx(10.0, rel=1e-14)

    def test_zero_and_infinite_rows_beside_finite_ones(self):
        got = row_norms(np.array([[0.0, 0.0], [math.inf, 1.0], [3.0, 8.0]]),
                        vec_space(3.0, [1.0, 2.0]))
        assert got[:2].tolist() == [0.0, math.inf]
        assert got[2] == pytest.approx(91.0 ** (1.0 / 3.0), rel=1e-14)


class TestProject:
    def test_basic(self):
        np.testing.assert_array_equal(project([1.0, 2.0, 3.0], 2), [1.0, 2.0, 0.0])

    def test_full_projection_is_identity(self):
        u = np.array([1.0, -2.0, 0.5])
        np.testing.assert_array_equal(project(u, 3), u)

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        u = rng.normal(size=6)
        np.testing.assert_array_equal(project(project(u, 2), 2), project(u, 2))

    def test_out_of_range(self):
        for u in ([1.0, 2.0], np.zeros((3, 2))):
            for n in (3, 0):
                with pytest.raises(InputError, match=rf"dimension {n} out of range \[1, 2\]"):
                    project(u, n)

    def test_rows_are_projected_one_by_one(self):
        pts = np.random.default_rng(8).normal(size=(5, 4))
        np.testing.assert_array_equal(project(pts, 2), [project(u, 2) for u in pts])
        assert project(np.zeros((0, 4)), 4).shape == (0, 4)

    @pytest.mark.parametrize("shape", [(), (2, 2, 2)])
    def test_refuses_other_shapes(self, shape):
        with pytest.raises(InputError, match="expected a vector"):
            project(np.zeros(shape), 1)

    @given(st.integers(min_value=1, max_value=6),
           st.sampled_from([1.0, 2.0, math.inf]),
           st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_non_expansive(self, n, p, seed):
        rng = np.random.default_rng(seed)
        u = rng.normal(size=6)
        sp = vec_space(p, rng.uniform(0.5, 2.0, 6))
        assert weighted_norm(project(u, n), sp) <= weighted_norm(u, sp) + 1e-12


class TestSpectralOperator:
    def test_eigenvalue_validation(self):
        with pytest.raises(ParameterError):
            SpectralOperator(np.array([1.0, -0.5]))

    def test_basis_orthonormality_enforced(self):
        with pytest.raises(ParameterError):
            SpectralOperator(np.array([1.0, 1.0]), np.array([[1.0, 0.2], [0.0, 1.0]]))

    def test_from_dense_roundtrip(self):
        rng = np.random.default_rng(3)
        b = rng.normal(size=(4, 4))
        mat = b @ b.T
        op = SpectralOperator.from_dense(mat)
        x = rng.normal(size=4)
        np.testing.assert_allclose(apply(op, x), mat @ x, atol=1e-10)

    def test_from_dense_rejects_indefinite(self):
        with pytest.raises(ParameterError):
            SpectralOperator.from_dense(np.diag([1.0, -1.0]))


class TestPinv:
    def test_kernel_component_discarded(self):
        op = SpectralOperator(np.array([2.0, 0.0]))
        np.testing.assert_allclose(pinv_apply(op, [4.0, 3.0]), [2.0, 0.0])

    def test_identity(self):
        op = SpectralOperator(np.ones(3))
        y = np.array([0.3, -1.0, 2.0])
        np.testing.assert_allclose(pinv_apply(op, y), y)

    def test_full_rank_example_and_minimum_norm(self):
        op = SpectralOperator(np.array([3.0, 1.0]))
        x = pinv_apply(op, [6.0, 2.0])
        np.testing.assert_allclose(x, [2.0, 2.0])
        # brute-force oracle over the (here unique) solution set
        assert np.linalg.norm(apply(op, x) - np.array([6.0, 2.0])) < 1e-12

    def test_minimum_norm_over_solution_set(self):
        # singular operator: solutions of A x = y form a line; the
        # pseudoinverse solution must have minimal norm among them
        op = SpectralOperator(np.array([3.0, 0.0]))
        y = np.array([6.0, 0.0])
        x_star = pinv_apply(op, y)
        for t in np.linspace(-5.0, 5.0, 101):
            cand = np.array([2.0, t])
            np.testing.assert_allclose(apply(op, cand), y)
            assert np.linalg.norm(x_star) <= np.linalg.norm(cand) + 1e-12

    def test_pinv_of_apply_is_projection(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            lam = np.abs(rng.normal(size=5))
            lam[rng.integers(0, 5)] = 0.0
            op = SpectralOperator(lam)
            x = rng.normal(size=5)
            proj = np.where(lam > 0, x, 0.0)
            np.testing.assert_allclose(pinv_apply(op, apply(op, x)), proj, atol=1e-10)


class TestSqrtPinv:
    def test_examples(self):
        c = SpectralOperator(np.array([4.0, 1.0]))
        np.testing.assert_allclose(sqrt_pinv_apply(c, [2.0, 0.0]), [1.0, 0.0])
        c2 = SpectralOperator(np.array([0.0, 1.0]))
        np.testing.assert_allclose(sqrt_pinv_apply(c2, [0.0, 5.0]), [0.0, 5.0])

    def test_range_membership(self):
        c = SpectralOperator(np.array([4.0, 0.0]))
        np.testing.assert_allclose(sqrt_pinv_apply(c, [2.0, 1.0]), [1.0, 0.0])
        assert not in_range_sqrt(c, [2.0, 1.0])
        assert in_range_sqrt(c, [2.0, 0.0])

    def test_rotated_basis(self):
        th = 0.3
        v = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
        c = SpectralOperator(np.array([4.0, 1.0]), v)
        x = np.array([0.7, -0.2])
        np.testing.assert_allclose(sqrt_pinv_apply(c, sqrt_apply(c, x)), x, atol=1e-12)
