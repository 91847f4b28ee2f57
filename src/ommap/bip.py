"""Bayesian inverse problem layer: potentials, MAP solvers, experiments.

MAP estimators are computed as minimisers of potential + prior
functional.  For a linear observation the prior's 1-d factor names one
rule (``_FACTOR_RULES``) for Phi + lam I0, lam >= 0: a reduced
normal-equations solve under a Gaussian prior, the lasso homotopy under
a Besov-1 prior (exact, with a uniqueness flag every time).
``map_solve`` reads it at lam = 1, the small-noise experiment at 1/n and
``constrained_prior_minimum`` at 0.  For a general potential a proximal
Newton iteration, whose every step is a homotopy solve, stops on its
optimality residual.  The experiments perturb data, potential, or prior
along a schedule and track the MAP trajectory against the limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import InputError, NumericsError, ParameterError
from .gamma import (FunctionalSequence, ModeConvOpts, ModeConvReport,
                    continuous_convergence_probe, equicoercivity_probe, gamma_liminf_probe,
                    mode_convergence_check, om_family, recovery_gap)
from .measures import LaplaceFactor, NormalFactor
from .om import _RowKernel, posterior_om, prior_om
from .spaces import SpectralOperator, _as_vector, project


@dataclass
class Potential(_RowKernel):
    """Real-valued misfit Phi on R^dim, a row kernel as an ``OmFunctional``
    is: ``kernel`` maps the rows of an ``(n, dim)`` array to their n
    values, ``values`` is its checked many-row case and ``eval`` its
    one-row case.  ``gradient`` maps one point to its gradient.

    When a gradient is supplied its values must have shape ``(dim,)``, and
    it is validated against central finite differences at a few random
    points (1e-6 relative tolerance, plus the differences' round-off,
    which grows with the kernel's values); the 2*dim shifted points of
    each are one kernel call.
    """

    kernel: Callable[[np.ndarray], np.ndarray]
    gradient: Optional[Callable[[np.ndarray], np.ndarray]]
    dim: int

    def __post_init__(self):
        if self.gradient is not None:
            rng = np.random.default_rng(0)
            for _ in range(5):
                u = rng.uniform(-1.0, 1.0, self.dim)
                g = np.asarray(self.gradient(u), dtype=float)
                if g.shape != (self.dim,):
                    raise ParameterError(f"gradient has shape {g.shape}, "
                                         f"expected ({self.dim},)")
                fd, round_off = _central_diff(self.kernel, u)
                scale = max(1.0, float(np.linalg.norm(g)))
                if np.linalg.norm(g - fd) > 1e-6 * scale + round_off:
                    raise ParameterError(
                        f"gradient disagrees with finite differences by "
                        f"{np.linalg.norm(g - fd) / scale:.2e} (relative)")


def _central_diff(kernel, u, h: float = 1e-6):
    """Central differences of a row kernel at u, from one call on the
    points u + h e_k followed by the points u - h e_k, and a bound on the
    norm of their round-off: values off by a few eps of their size move
    each difference by about eps max|value| / h."""
    u = np.asarray(u, dtype=float)
    shifts = h * np.eye(u.size)
    vals = kernel(np.vstack([u + shifts, u - shifts]))
    round_off = 2.0 * math.sqrt(u.size) * np.finfo(float).eps * float(np.max(np.abs(vals))) / h
    return (vals[:u.size] - vals[u.size:]) / (2.0 * h), round_off


@dataclass(frozen=True)
class LinearObservation:
    """y = O u + eta with eta ~ N(0, C_eta), C_eta positive definite."""

    matrix: np.ndarray
    noise_cov: SpectralOperator
    data: np.ndarray

    def __post_init__(self):
        o = np.asarray(self.matrix, dtype=float)
        if o.ndim != 2:
            raise ParameterError("observation matrix must be 2-d")
        object.__setattr__(self, "matrix", o)
        y = _as_vector(self.data, o.shape[0])
        object.__setattr__(self, "data", y)
        if not (np.all(np.isfinite(o)) and np.all(np.isfinite(y))):
            raise InputError("observation matrix and data must be finite")
        if self.noise_cov.dim != o.shape[0]:
            raise ParameterError("noise covariance dimension must match the data")
        if np.min(self.noise_cov.eigenvalues) <= 0:
            raise ParameterError("noise covariance must be positive definite")

    @property
    def n_obs(self) -> int:
        return int(self.matrix.shape[0])

    @property
    def n_unknown(self) -> int:
        return int(self.matrix.shape[1])

    def whitened(self):
        """(C_eta^(-1/2) O, C_eta^(-1/2) y)."""
        lam = self.noise_cov.eigenvalues
        o_e = self.noise_cov.to_eigen_matrix(self.matrix)
        y_e = self.noise_cov.to_eigen(self.data)
        scale = 1.0 / np.sqrt(lam)
        return o_e * scale[:, None], y_e * scale


@dataclass(frozen=True)
class MapSolution:
    point: np.ndarray
    objective: float
    optimality_residual: float
    iterations: int
    solver: str
    flags: tuple = ()


def _misfit(w_mat: np.ndarray, w_y: np.ndarray) -> tuple:
    """Row kernel and gradient of |w_y - W u|^2 / 2.  The kernel's stacked
    products give each row the bits of the one-row products
    ``w_y - W @ u`` and ``r @ r``."""

    def kernel(pts: np.ndarray) -> np.ndarray:
        r = w_y - np.matmul(w_mat, pts[:, :, None])[:, :, 0]
        return 0.5 * np.matmul(r[:, None, :], r[:, :, None])[:, 0, 0]

    def grad(u):
        r = w_y - w_mat @ np.asarray(u, dtype=float)
        return -(w_mat.T @ r)

    return kernel, grad


def quadratic_potential(obs: LinearObservation) -> Potential:
    """Half the squared whitened misfit."""
    w_mat, w_y = obs.whitened()
    return Potential(*_misfit(w_mat, w_y), obs.n_unknown)


def _misfit_potential(obs: LinearObservation) -> Potential:
    """Half the squared whitened misfit without a gradient, so without the
    finite-difference check: what the experiments read is its values."""
    return Potential(_misfit(*obs.whitened())[0], None, obs.n_unknown)


def projected_potential(pot: Potential, n: int) -> Potential:
    """pot composed with the projection onto the first n coordinates; an n
    out of range is refused here, not at the first call."""
    project(np.zeros(pot.dim), n)
    grad = None
    if pot.gradient is not None:
        def grad(u):
            return project(pot.gradient(project(u, n)), n)

    return Potential(lambda pts: pot.kernel(project(pts, n)), grad, pot.dim)


# ---------------------------------------------------------------------------
# solvers
# ---------------------------------------------------------------------------

def map_solve(prior, obs: LinearObservation, prox: Optional[ProxOpts] = None) -> MapSolution:
    """MAP estimate for a linear observation: the rule of the prior's factor at weight 1."""
    return _factor_rule(prior)(prior, obs, prox, 1.0)


map_solve_besov_linear = map_solve  # the name the benchmark's workloads call


def _normal_rule(prior, obs: LinearObservation, prox: Optional[ProxOpts],
                 lam: float) -> MapSolution:
    """Exact minimiser of Phi + lam I0 for a linear observation under a prior
    of normal factors; ``prox`` is unused, as the solve is direct.

    The unknown is substituted as m + C^(1/2) w over the non-null
    eigendirections, C^(1/2) = basis diag(scale), which turns the problem
    into the reduced normal equations (B^T B + lam I) w = B^T r with
    B = W C^(1/2) on those directions; at lam = 0 the point is the
    least-norm least-squares solution of B w = r.
    """
    if obs.n_unknown != prior.dim:
        raise InputError("observation and prior dimensions differ")
    w_mat, w_y = obs.whitened()
    free, basis, sig = ~prior.pinned, prior.basis, prior.scale[~prior.pinned]
    b = (w_mat if basis is None else w_mat @ basis)[:, free] * sig[None, :]
    r = w_y - w_mat @ prior.mean
    lhs = b.T @ b + lam * np.eye(b.shape[1])
    rhs = b.T @ r
    w = np.linalg.solve(lhs, rhs) if lam > 0 else np.linalg.lstsq(b, r, rcond=None)[0]
    residual = float(np.linalg.norm(lhs @ w - rhs))
    coeff = np.zeros(prior.dim)
    coeff[free] = sig * w
    point = prior.mean + (coeff if basis is None else basis @ coeff)
    misfit = w_y - w_mat @ point
    objective = 0.5 * float(misfit @ misfit) + lam * 0.5 * float(w @ w)
    return MapSolution(point, objective, residual, 1, "normal-equations")


@dataclass(frozen=True)
class ProxOpts:
    """A residual below ``tol`` certifies a weighted-l1 MAP point;
    ``max_iter`` caps the homotopy's events, and the proximal Newton's
    steps as well as each step's events."""

    tol: float = 1e-8
    max_iter: int = 10 ** 5


def kkt_residual(grad: np.ndarray, u: np.ndarray, inv_gamma: np.ndarray) -> float:
    """Distance of -grad from the weighted-l1 subdifferential at u."""
    on = u != 0
    res_on = np.abs(grad[on] + np.sign(u[on]) * inv_gamma[on])
    res_off = np.maximum(np.abs(grad[~on]) - inv_gamma[~on], 0.0)
    return float(max(res_on.max(initial=0.0), res_off.max(initial=0.0)))


_FLOOR = 1e-10  # least eigenvalue of a step's model, relative to its largest
_STALL = 1e-14  # a step no larger, relative to |u|, is steered by round-off


def map_solve_besov(prior, pot: Potential, opts: Optional[ProxOpts] = None) -> MapSolution:
    """Proximal Newton (Lee, Sun & Saunders 2014) for pot(u) + sum_k |u_k| / gamma_k
    under a centred prior of Laplace factors of scales gamma_k.

    A step at u models pot by its gradient g and M = V diag(lam) V^T, the
    symmetrised central differences of the gradient, its eigenvalues
    raised to _FLOOR times the largest |lam| plus a Levenberg-Marquardt
    damping mu.  In v = u / gamma the model plus the weighted l1 term is
    the lasso |b - A v|^2 / 2 + |v|_1, A = diag(sqrt lam) V^T diag(gamma)
    and b = sqrt(lam) V^T u - V^T g / sqrt(lam), strictly convex, which
    ``_lasso_homotopy`` solves exactly.  An Armijo search on the full
    objective F, allowing 4e-16 |F| of round-off, takes the step; mu
    grows after a short step and shrinks after a full one.  The run stops
    once ``kkt_residual`` is below ``opts.tol``, a certificate of
    stationarity only when pot is nonconvex, and otherwise, flagged
    ``not-converged``, after a step of round-off size (_STALL), at
    ``opts.max_iter`` steps, or at a step whose path that cap cut short.
    """
    if pot.dim != prior.dim:
        raise InputError("potential and prior dimensions differ")
    if pot.gradient is None:
        raise InputError("the proximal solver needs a potential gradient")
    inv_gamma, gamma, opts = _l1_weights(prior), prior.scale, opts or ProxOpts()

    def gradient(u):
        return np.asarray(pot.gradient(u), dtype=float)

    def full_obj(u):
        return pot.eval(u) + float(np.abs(u) @ inv_gamma)

    u, mu, steps, moved = np.zeros(inv_gamma.size), 0.0, 0, True
    g, f = gradient(u), full_obj(u)
    while moved and kkt_residual(g, u, inv_gamma) >= opts.tol and steps < opts.max_iter:
        steps += 1
        hess, _ = _central_diff(lambda pts: np.array([gradient(p) for p in pts]), u)
        lam, vec = np.linalg.eigh(0.5 * (hess + hess.T))
        top = float(np.max(np.abs(lam))) or 1.0
        root = np.sqrt(np.maximum(lam, _FLOOR * top) + mu)
        v, _, reached, _ = _lasso_homotopy((root[:, None] * vec.T) * gamma,
                                           root * (vec.T @ u) - (vec.T @ g) / root, 1.0,
                                           opts.max_iter)
        if not reached:
            break  # the cap cut this step's path short of its minimiser
        d = gamma * v - u
        decrease = float(g @ d) + float(np.abs(u + d) @ inv_gamma) - float(np.abs(u) @ inv_gamma)
        t = 1.0
        while full_obj(u + t * d) > f + 1e-4 * t * decrease + 4e-16 * abs(f):
            t *= 0.5
        moved = np.max(np.abs(t * d)) > _STALL * np.max(np.abs(u))
        u = u + t * d
        g, f = gradient(u), full_obj(u)
        mu = mu / 4.0 if t == 1.0 else max(4.0 * mu, 1e-3 * top)
    res = kkt_residual(g, u, inv_gamma)
    if not np.all(np.isfinite(u)):
        raise NumericsError("proximal Newton produced non-finite values")
    return MapSolution(u, f, res, steps, "proximal-newton",
                       () if res < opts.tol else ("not-converged",))


def _l1_weights(prior) -> np.ndarray:
    """1 / scale, the weights of a Laplace-factor prior's weighted-l1 functional;
    refused unless its form is centred and in the coordinate basis."""
    if prior.basis is not None or np.any(prior.mean):
        raise InputError(f"the weighted-l1 solvers need a centred prior in the coordinate "
                         f"basis; this {type(prior).__name__} has a basis or a nonzero mean")
    return 1.0 / prior.scale


_TIE = 1e-9  # relative gap under which a correlation counts as equal to lambda
_ROUND = 1e-13  # relative correlation of a least-squares residual left by round-off


def _lasso_homotopy(a_mat: np.ndarray, y: np.ndarray, weight: float, max_events: int) -> tuple:
    """Minimiser of |y - A v|^2 / 2 + weight |v|_1 by the lasso homotopy
    (Osborne, Presnell & Turlach 2000): v(lam), the minimiser at weight
    lam, is piecewise affine, and the path runs from lam_max = |A^T y|_inf,
    where v = 0, down to lam = weight, or for weight 0 to its end as
    lam -> 0+, basis pursuit for a consistent system, where an event within
    _TIE lam_max of zero may be round-off (with one row every inactive
    correlation reaches 0 with the active one).  On each piece the active
    coordinates solve their stationarity system exactly; a piece ends where
    an inactive correlation reaches lam (a join) or an active coordinate
    reaches zero (a drop).  Returns v, the events passed, whether lam =
    weight was reached within ``max_events``, and, for weight > 0, whether
    the columns of A over the equicorrelation set are rank-deficient, when
    the minimiser need not be unique (Tibshirani 2013).
    """
    gram, corr0 = a_mat.T @ a_mat, a_mat.T @ y
    v, events = np.zeros(corr0.size), 0
    lam = float(np.max(np.abs(corr0), initial=0.0))
    near_end = _TIE * lam
    if lam > weight:
        first = int(np.argmax(np.abs(corr0)))
        active, signs, events = [first], [math.copysign(1.0, corr0[first])], 1
        joined, dropped = True, None
        while True:
            act, s = np.array(active), np.array(signs)
            g_act = gram[np.ix_(act, act)]
            d, v_act = np.linalg.solve(g_act, np.column_stack([s, corr0[act] - lam * s])).T
            corr = corr0 - gram[:, act] @ v_act
            slope = gram[:, act] @ d  # d corr / d(-lam)
            # join: corr - t slope reaches +-(lam - t); a tie within _TIE never joins
            up = _first_hit(lam - corr, 1.0 - slope, 1.0 - slope > _TIE)
            down = _first_hit(lam + corr, 1.0 + slope, 1.0 + slope > _TIE)
            if dropped is not None:  # it left at corr = sign lam: not back on that side at once
                (up if dropped[1] > 0 else down)[dropped[0]] = np.inf
            join = np.minimum(up, down)
            join[act] = np.inf
            # drop: an active coordinate v + t d reaches zero
            shrink = s * d < 0
            shrink[-1] &= not joined  # the last coordinate, just joined at zero, stays
            drop = _first_hit(s * v_act, -s * d, shrink)
            j, i = int(np.argmin(join)), int(np.argmin(drop))
            step = min(join[j], drop[i])
            if weight and step >= lam - weight:
                v[act] = np.linalg.solve(g_act, corr0[act] - weight * s)
                break
            if not weight and step >= lam - near_end:
                # least squares on the active columns (to their condition number, not its
                # square); an event left is round-off once their residual is orthogonal to A
                a_act = a_mat[:, act]
                v_ls = np.linalg.lstsq(a_act, y, rcond=None)[0]
                scale = np.linalg.norm(y) + np.linalg.norm(np.abs(a_act) @ np.abs(v_ls))
                if step >= lam or np.all(np.abs(a_mat.T @ (y - a_act @ v_ls))
                                         <= _ROUND * np.linalg.norm(a_mat, axis=0) * scale):
                    v[act] = v_ls
                    break
            if events >= max_events:
                v[act] = v_act
                return v, events, False, False
            lam -= step
            events += 1
            if join[j] <= drop[i]:
                active.append(j)
                signs.append(1.0 if up[j] <= down[j] else -1.0)
                joined, dropped = True, None
            else:
                joined, dropped = False, (active.pop(i), signs.pop(i))
    tied = np.abs(corr0 - gram @ v) >= (1.0 - _TIE) * weight
    return v, events, True, weight > 0 and bool(np.linalg.matrix_rank(a_mat[:, tied]) < tied.sum())


def _first_hit(dist: np.ndarray, rate: np.ndarray, moving: np.ndarray) -> np.ndarray:
    """dist / rate where ``moving``, else inf: the step in lam at which each
    gap closes, a negative (round-off) gap counting as closed."""
    return np.divide(np.maximum(dist, 0.0), rate, out=np.full(dist.shape, np.inf), where=moving)


def _laplace_rule(prior, obs: LinearObservation, opts: Optional[ProxOpts],
                  lam: float) -> MapSolution:
    """Exact minimiser of Phi + lam I0 for a linear observation under a
    Laplace-factor (Besov-1) prior, I0(u) = sum_k |u_k| / gamma_k.

    In the scaled unknowns v_k = u_k / gamma_k with A = W diag(gamma),
    W and y the whitened observation, the point minimises
    |y - A v|^2 / 2 + lam |v|_1, a lasso, found by its homotopy
    (``_lasso_homotopy``).  ``iterations`` counts its events and
    ``opts.max_iter`` caps them; ``optimality_residual`` is the
    subdifferential residual in u of Phi / lam + I0.  A run that stops on
    the cap or with a residual not below ``opts.tol`` is flagged
    ``not-converged``; one whose equicorrelation columns are rank-deficient
    is flagged ``non-unique-minimiser``.  At lam = 0 the residual is
    |grad Phi|_inf, no basis-pursuit certificate, and only the cap is
    flagged (the caller checks the misfit).  The misfit's gradient is
    analytic and skips the finite-difference check of a ``Potential``.
    """
    if obs.n_unknown != prior.dim:
        raise InputError("observation and prior dimensions differ")
    opts, inv_g, (w_mat, w_y) = opts or ProxOpts(), _l1_weights(prior), obs.whitened()
    kernel, gradient = _misfit(w_mat, w_y)
    v, events, reached, degenerate = _lasso_homotopy(w_mat * prior.scale, w_y, lam, opts.max_iter)
    u = v * prior.scale
    if not np.all(np.isfinite(u)):
        raise NumericsError("lasso homotopy produced non-finite values")
    res = kkt_residual(gradient(u), u, lam * inv_g) / (lam or 1.0)
    flags = ((() if reached and (res < opts.tol or not lam) else ("not-converged",))
             + (("non-unique-minimiser",) if degenerate else ()))
    objective = float(kernel(u[None, :])[0]) + lam * float(np.abs(u) @ inv_g)
    return MapSolution(u, objective, res, events, "lasso-homotopy", flags)


#: factor type -> rule(prior, obs, prox, lam) of a product prior: the
#: MapSolution of Phi + lam I0 for a linear observation, lam >= 0
_FACTOR_RULES = {NormalFactor: _normal_rule, LaplaceFactor: _laplace_rule}


def _factor_rule(prior) -> Callable:
    rule = _FACTOR_RULES.get(type(getattr(prior, "factor", None)))
    if rule is None:
        raise InputError(f"no MAP rule for prior type {type(prior).__name__}")
    return rule


# ---------------------------------------------------------------------------
# perturbation experiments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PerturbationEntry:
    index: int = field(metadata={"json": "n"})
    point: np.ndarray = field(metadata={"json": "map"})
    objective: float
    residual: float
    distance_to_limit: float
    flags: tuple


@dataclass(frozen=True)
class PerturbationReport:
    """MAP trajectory of a perturbation experiment against its limit.

    ``entries`` holds one ``PerturbationEntry`` per schedule index and
    ``limit_solution`` the unperturbed MAP point.  ``prerequisite_probes``
    maps each probe's name to its records: a list of
    ``ContinuousConvEntry`` under ``potential_continuous_convergence``
    for the data and projection kinds; the largest recovery gap (a float,
    or None), a list of ``LiminfReport`` and one ``EquicoercivityEntry``
    under ``prior_recovery_max_gap``, ``prior_liminf`` and
    ``prior_equicoercivity`` for the prior kind.
    """

    kind: str
    entries: list
    limit_solution: MapSolution = field(metadata={"json": "limit"})
    mode_convergence: ModeConvReport
    prerequisite_probes: dict


def perturbation_experiment(kind: str, prior, obs: LinearObservation,
                            schedule: Callable[[int], object],
                            indices: Sequence[int]) -> PerturbationReport:
    """Solve the MAP problem along a perturbation schedule.

    Each index n gives one member problem (prior_n, obs_n):
    kind "data": schedule(n) returns the data of obs_n;
    kind "potential_projection": schedule(n) returns the projection
    dimension, and obs_n is obs with the columns past it zeroed (a
    Galerkin truncation of the unknown);
    kind "prior": schedule(n) returns prior_n.
    The limit problem is (prior, obs).  Every problem is solved by
    ``map_solve`` with its defaults, and its potential is the misfit of
    its own observation, a ``Potential`` with no gradient, so none runs
    the finite-difference check.  Solutions are tracked with the
    mode-convergence detector against the limit objective, on the
    posterior functionals ``posterior_om`` builds, and the report bundles
    the convergence probes at the limit point licensing the limit
    interchange (potential continuity for data/projection,
    functional-family probes for priors).
    """
    if kind not in ("data", "potential_projection", "prior"):
        raise InputError(f"unknown perturbation kind {kind!r}")
    indices = list(indices)
    if not indices:
        raise InputError("the perturbation schedule has no indices")

    def member(n):
        if kind == "data":
            return prior, LinearObservation(obs.matrix, obs.noise_cov, schedule(n))
        if kind == "potential_projection":
            return prior, LinearObservation(project(obs.matrix, int(schedule(n))),
                                            obs.noise_cov, obs.data)
        return schedule(n), obs

    priors, observations = zip(*map(member, indices))
    limit_sol = map_solve(prior, obs)
    solutions = [map_solve(pr, ob) for pr, ob in zip(priors, observations)]
    entries = [PerturbationEntry(n, s.point, s.objective, s.optimality_residual,
                                 float(np.linalg.norm(s.point - limit_sol.point)), s.flags)
               for n, s in zip(indices, solutions)]

    limit_pot, pots = _misfit_potential(obs), [_misfit_potential(ob) for ob in observations]
    probes: dict = {}
    if kind == "prior":
        fam_prior = om_family(priors, prior, indices)
        base, prior_fns = fam_prior.limit, fam_prior.members
        probes["prior_recovery_max_gap"] = recovery_gap(fam_prior, limit_sol.point)
        probes["prior_liminf"] = [gamma_liminf_probe(fam_prior, limit_sol.point)]
        probes["prior_equicoercivity"] = equicoercivity_probe(fam_prior, 1.0)
    else:
        base = prior_om(prior)
        prior_fns = [base] * len(indices)
        probes["potential_continuous_convergence"] = continuous_convergence_probe(
            pots, limit_pot, [limit_sol.point], indices)
    fam = FunctionalSequence(indices, list(map(posterior_om, prior_fns, pots)),
                             posterior_om(base, limit_pot))
    mode_report = mode_convergence_check(fam, [s.point for s in solutions],
                                         ModeConvOpts(limit_min=limit_sol.objective))
    return PerturbationReport(kind, entries, limit_sol, mode_report, probes)


# ---------------------------------------------------------------------------
# small-noise experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SmallNoiseReport:
    """Trajectory of minimisers of n*Phi + I0 against the constrained point.

    For Phi >= 0, n*Phi + I0 increases in n, so with lower semicontinuous
    members it Gamma-converges to its pointwise supremum (Dal Maso 1993,
    Prop. 5.4).  The experiment does not probe that limit, so
    ``gamma_liminf_asserted`` stays False; it measures the trajectory.
    ``flags`` holds each solve's ``MapSolution.flags``, one tuple per n: a
    ``non-unique-minimiser`` there means the distance is to one of several
    minimisers.
    """

    n_values: list
    points: list
    distances: list
    flags: list
    constrained_point: np.ndarray
    constrained_value: float
    pointwise_table: list
    gamma_liminf_asserted: bool = False


def constrained_prior_minimum(prior, obs: LinearObservation) -> np.ndarray:
    """Minimise the prior functional subject to O u = y: the rule of the
    prior's factor (``_FACTOR_RULES``) at weight 0.  A whitened misfit above
    1e-8 times max(1, that of the prior mean) is a NumericsError."""
    point, (w_mat, w_y) = _factor_rule(prior)(prior, obs, None, 0.0).point, obs.whitened()
    scale = max(1.0, float(np.linalg.norm(w_y - w_mat @ prior.mean)))
    if np.linalg.norm(w_y - w_mat @ point) > 1e-8 * scale:
        raise NumericsError("misfit minimum is not attained on the prior support")
    return point


def small_noise_experiment(prior, obs: LinearObservation,
                           n_list: Sequence[int]) -> SmallNoiseReport:
    """Minimise n*Phi + I0 along n, as Phi + I0 / n: the rule of the prior's
    factor (``_FACTOR_RULES``) at weight 1/n with ``map_solve``'s defaults,
    its flags certifying the residual of n*Phi + I0; compare with the
    constrained point, the same rule at weight 0.  The pointwise table
    reads n*Phi + I0 at the constrained point and at that point + 0.1."""
    n_list = [int(n) for n in n_list]
    if not n_list:
        raise InputError("the noise-scaling schedule has no indices")
    if any(n < 1 for n in n_list):
        raise InputError("noise-scaling indices must be positive")
    rule, star = _factor_rule(prior), constrained_prior_minimum(prior, obs)
    points, dists, flags = [], [], []
    for n in n_list:
        sol = rule(prior, obs, None, 1.0 / n)
        points.append(sol.point)
        dists.append(float(np.linalg.norm(sol.point - star)))
        flags.append(sol.flags)

    prior_fn, pot = prior_om(prior), _misfit_potential(obs)
    table = []
    for x in (star, star + 0.1):
        phi, prior_value = pot.eval(x), prior_fn.eval(x)
        table.append({"x": list(map(float, x)), "phi": float(phi),
                      "values": [float(n * phi + prior_value) for n in n_list]})
    return SmallNoiseReport(n_list, points, dists, flags, star, float(prior_fn.eval(star)),
                            table)
