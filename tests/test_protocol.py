"""Conformance of every product prior to the product-prior protocol.

Each prior exposes its product form, which gives it ``prior_om``,
``sublevel_halfwidth``, ``recovery_sequence`` and its heaviest centre,
and a 1-d factor, whose type selects ``map_solve`` and
``constrained_prior_minimum``; nothing is registered per prior.  The
checks below run over ``PRIORS``, each against a formula or solver
written out per type, independently of the code under test: a new
product prior adds one ``PriorCase``.  A measure that has neither form
nor rule is refused by name.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest

from ommap import (BesovMeasure, Density1D, FunctionalSequence, GaussianMeasure, InputError,
                   LinearObservation, ProductMeasure, ProxOpts, SpectralOperator,
                   WeightedSeqSpace, constrained_prior_minimum, coordinate_descent_weighted_l1,
                   default_space, map_solve, measure_from_json,
                   om_family, prior_om, recovery_gap, recovery_sequence, sample,
                   sublevel_halfwidth)
from ommap._seeds import child_rng
from ommap.measures import _heaviest_centers, _ProductSetup
from pinv_reference import in_range_sqrt, sqrt_apply, sqrt_pinv_apply


def _rotation(rng, k):
    q, r = np.linalg.qr(rng.normal(size=(k, k)))
    return q * np.sign(np.diag(r))


@dataclass(frozen=True)
class PriorCase:
    name: str
    build: Callable          # (k, shift) -> prior; shift = 0 gives the limit
    om: Callable             # (prior, u) -> the OM functional's value, written out per type
    recovery: Callable       # (mu_seq, mu_limit, u) -> the recovery sequence, written out per type
    solve: Callable          # (prior, obs) -> the MAP point, by a per-type oracle
    map_tol: float           # distance allowed between map_solve and the oracle
    draws: Callable          # (prior, n, seed) -> draws, written out per type
    space: Callable          # prior -> (p, weights) of its default ball norm
    maximiser: Callable      # (prior, t, k) -> the point of {I <= t} with the largest |u_k|
    config: Callable         # prior -> its config block, as the CLI reads it, written out per type


def _gaussian(rotated: bool):
    def build(k, shift):
        r = np.random.default_rng(7)
        eig = r.uniform(0.5, 2.0, k)
        if rotated:
            eig[-1] = 0.0  # a pinned direction
        basis = _rotation(r, k) if rotated else None
        return GaussianMeasure(r.normal(size=k) + shift, SpectralOperator(eig + shift, basis))

    def draws(mu, n, seed):
        xi = child_rng(seed, "sample").standard_normal((n, mu.dim))
        scaled = xi * np.sqrt(mu.cov.eigenvalues)
        if mu.cov.basis is not None:
            scaled = scaled @ mu.cov.basis.T
        return mu.mean + scaled

    def om(mu, u):
        # half the squared Cameron-Martin norm, +inf off mean + range(C^(1/2))
        d = u - mu.mean
        if not in_range_sqrt(mu.cov, d):
            return math.inf
        w = sqrt_pinv_apply(mu.cov, d)
        return 0.5 * float(w @ w)

    def recovery(mu_seq, mu, u):
        # m_n + C_n^(1/2) C^(+1/2) (u - m)
        v = sqrt_pinv_apply(mu.cov, u - mu.mean)
        return [m.mean + sqrt_apply(m.cov, v) for m in mu_seq]

    def solve(mu, obs):
        # the conjugate posterior mean m + C O^T (O C O^T + Gamma)^(-1) (y - O m)
        basis = np.eye(mu.dim) if mu.cov.basis is None else mu.cov.basis
        c = (basis * mu.cov.eigenvalues) @ basis.T
        o = obs.matrix
        gain = c @ o.T @ np.linalg.inv(o @ c @ o.T + np.diag(obs.noise_cov.eigenvalues))
        return mu.mean + gain @ (obs.data - o @ mu.mean)

    def maximiser(mu, t, k):
        # u = m +- sqrt(2t) C e_k / sqrt(C_kk), the sign of m_k
        basis = np.eye(mu.dim) if mu.cov.basis is None else mu.cov.basis
        c_k = (basis * mu.cov.eigenvalues) @ basis[k]
        return mu.mean + math.copysign(math.sqrt(2.0 * t), mu.mean[k]) * c_k / math.sqrt(c_k[k])

    def config(mu):
        out = {"type": "gaussian", "mean": mu.mean.tolist(),
               "eigenvalues": mu.cov.eigenvalues.tolist()}
        if rotated:
            out["basis"] = mu.cov.basis.tolist()  # eigenvectors as columns
        return out

    return PriorCase(
        "gaussian-rotated" if rotated else "gaussian-aligned", build, om,
        recovery, solve, 1e-12, draws, lambda mu: (2.0, np.ones(mu.dim)),
        maximiser, config)


def _besov_draws(mu, n, seed):
    return child_rng(seed, "sample").laplace(loc=0.0, scale=mu.gamma, size=(n, mu.dim))


def _besov_om(mu, u):
    return float(np.sum(np.abs(u) / mu.gamma))


def _besov_recovery(mu_seq, mu, u):
    # gamma_n u / gamma
    return [m.gamma * (u / mu.gamma) for m in mu_seq]


def _besov_maximiser(mu, t, k):
    return mu.gamma[k] * t * np.eye(mu.dim)[k]


def _besov_config(mu):
    return {"type": "besov1", "s": mu.s, "d": mu.d, "eta": mu.eta, "dim": mu.dim}


PRIORS = [
    _gaussian(rotated=False),
    _gaussian(rotated=True),
    PriorCase("besov1", lambda k, shift: BesovMeasure(1.1 + shift, 1, 1.0, k), _besov_om,
              _besov_recovery, lambda mu, obs: coordinate_descent_weighted_l1(
                  obs, mu.gamma), 1e-6, _besov_draws, lambda mu: (1.0, mu.delta),
              _besov_maximiser, _besov_config),
]
K = 4


@pytest.fixture(params=PRIORS, ids=lambda c: c.name)
def case(request):
    return request.param


def test_is_a_product_measure(case):
    mu = case.build(K, 0.0)
    assert isinstance(mu, ProductMeasure)
    assert mu.scale.shape == mu.spread.shape == mu.eigen_mean.shape == (K,)


def test_prior_om_is_the_per_type_functional(case):
    mu = case.build(K, 0.0)
    fn = prior_om(mu)
    pts = np.random.default_rng(1).normal(size=(20, K))
    pts[0] = fn.anchor
    pts[1:6] = sample(mu, 5, 2)  # on the domain where a direction is pinned
    want = np.array([case.om(mu, u) for u in pts])
    assert np.isfinite(want).sum() >= 6
    for got in (fn.values(pts), [fn.eval(u) for u in pts]):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
    assert [fn.domain_test(u) for u in pts] == list(np.isfinite(want))
    assert fn.eval(fn.anchor) == 0.0


def test_recovery_sequence_is_the_per_type_one(case):
    limit = case.build(K, 0.0)
    members = [case.build(K, 0.5 / n) for n in range(1, 6)]
    u = sample(limit, 1, 3)[0]
    got = recovery_sequence(limit, members, u)
    want = case.recovery(members, limit, u)
    assert len(got) == len(want) == len(members)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)
    gap = recovery_gap(om_family(members, limit), u)
    assert gap is not None and 0.0 <= gap <= 1e-10


def test_map_solve_is_the_per_type_solver(case):
    rng = np.random.default_rng(4)
    mu = case.build(K, 0.0)
    obs = LinearObservation(rng.normal(size=(3, K)), SpectralOperator(rng.uniform(0.5, 2.0, 3)),
                            rng.normal(size=3))
    got = map_solve(mu, obs, ProxOpts(tol=1e-10))
    np.testing.assert_allclose(got.point, case.solve(mu, obs), rtol=0, atol=case.map_tol)
    assert got.flags == ()


@pytest.mark.parametrize("seed", [0, 11, 2 ** 31])
def test_sample_matches_the_per_type_formula(case, seed):
    mu = case.build(K, 0.0)
    got, want = sample(mu, 200, seed), case.draws(mu, 200, seed)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_mc_draw_stat_is_even(case):
    # Monte Carlo evaluates every draw z at -z too and reuses this statistic
    mu = case.build(K, 0.0)
    setup = _ProductSetup(mu, default_space(mu))
    z = np.random.default_rng(6).normal(size=(50, setup.k_free))
    stat = mu.factor.mc_draw_stat(setup, z)
    assert stat.tobytes() == mu.factor.mc_draw_stat(setup, -z).tobytes()


def test_json_round_trip(case):
    mu = case.build(K, 0.0)
    back = measure_from_json(case.config(mu))
    assert type(back) is type(mu)
    assert (back.basis is None) == (mu.basis is None)
    for name in ("basis", "mean", "eigen_mean", "scale", "spread"):
        np.testing.assert_array_equal(getattr(back, name), getattr(mu, name))


def test_default_space(case):
    mu = case.build(K, 0.0)
    p, weights = case.space(mu)
    sp = default_space(mu)
    assert sp.p == p and not math.isinf(sp.p)
    np.testing.assert_array_equal(sp.weights, weights)


@pytest.mark.parametrize("t", [0.3, 2.0])
def test_sublevel_halfwidth_is_attained_on_the_boundary(case, t):
    mu = case.build(K, 0.0)
    h = sublevel_halfwidth(mu, t)
    assert h.shape == (K,)
    for k in range(K):
        u = case.maximiser(mu, t, k)
        assert abs(u[k]) == pytest.approx(h[k], rel=1e-12)
        assert prior_om(mu).eval(u) == pytest.approx(t, abs=1e-12)


def test_sublevel_halfwidth_bounds_sampled_points(case):
    mu, t = case.build(K, 0.0), 3.0
    pts = case.draws(mu, 4000, 5)
    inside = pts[prior_om(mu).values(pts) <= t]
    assert len(inside) >= 500
    assert np.all(np.abs(inside) <= sublevel_halfwidth(mu, t))


def test_recovery_gap_clips_a_negative_gap():
    # members lose the limit's second direction, so along the recovery
    # sequence F_n(x_n) = v_1^2 / 2 < F(u) = |v|^2 / 2: the signed gap is
    # negative, and the reported gap is 0
    limit = GaussianMeasure(np.zeros(2), SpectralOperator(np.array([1.0, 1.0])))
    members = [GaussianMeasure(np.full(2, 1.0 / n),
                               SpectralOperator(np.array([1.0 + 1.0 / n, 0.0])))
               for n in range(1, 9)]
    seq = om_family(members, limit)
    u = np.array([0.3, 0.8])
    rec = recovery_sequence(limit, members, u)
    signed = max(seq.members[i].eval(rec[i]) - seq.limit.eval(u) for i in range(len(rec)))
    assert signed == pytest.approx(-0.32)
    assert recovery_gap(seq, u) == 0.0


def test_recovery_gap_skips_points_off_the_limit_domain():
    limit = GaussianMeasure(np.zeros(2), SpectralOperator(np.array([1.0, 0.0])))
    seq = om_family([limit, limit], limit)
    assert recovery_gap(seq, np.array([0.0, 1.0])) is None


_OBS_1D = LinearObservation(np.ones((1, 1)), SpectralOperator(np.ones(1)), np.ones(1))

#: every operation that needs a product form or a factor, on one measure
_NEEDS_A_RULE = {
    "prior_om": prior_om,
    "sublevel_halfwidth": lambda m: sublevel_halfwidth(m, 1.0),
    "recovery_sequence": lambda m: recovery_sequence(m, [m], np.zeros(1)),
    "map_solve": lambda m: map_solve(m, _OBS_1D),
    "constrained_prior_minimum": lambda m: constrained_prior_minimum(m, _OBS_1D),
}


@pytest.mark.parametrize("op", list(_NEEDS_A_RULE))
@pytest.mark.parametrize("build", [object, lambda: Density1D(lambda x: 1.0, ((0.0, 1.0),))],
                         ids=["object", "Density1D"])
def test_a_measure_without_a_rule_is_refused_by_name(op, build):
    measure = build()
    with pytest.raises(InputError, match=rf"for (measure|prior) type {type(measure).__name__}$"):
        _NEEDS_A_RULE[op](measure)


def test_a_measure_without_a_rule_names_no_heaviest_centre():
    assert _heaviest_centers(object(), WeightedSeqSpace.unweighted(2.0, 1)) == ((), 0.0)


def test_recovery_gap_needs_a_family_built_from_measures():
    fn = prior_om(GaussianMeasure(np.zeros(2), SpectralOperator(np.ones(2))))
    seq = FunctionalSequence([1, 2], [fn, fn], fn)
    with pytest.raises(InputError, match="needs a non-empty family built from measures"):
        recovery_gap(seq, np.zeros(2))
