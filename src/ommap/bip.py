"""Bayesian inverse problem layer: potentials, MAP solvers, experiments.

MAP estimators are computed as minimisers of potential + prior
functional: a reduced normal-equations solve for linear observations
under a Gaussian prior, and an accelerated proximal-gradient
(soft-thresholding) iteration for the weighted-l1 functional of a
Besov-1 prior, which stops on its optimality residual or, for a linear
observation, on an exact solve over its settled support.
``map_solve`` and ``constrained_prior_minimum`` take their rules from
the prior's 1-d factor.  The experiments perturb data, potential, or
prior along a schedule and track the MAP trajectory against the limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import InputError, NumericsError, ParameterError
from .gamma import (FunctionalSequence, ModeConvOpts, ModeConvReport,
                    continuous_convergence_probe, equicoercivity_probe, gamma_liminf_probe,
                    mode_convergence_check, om_family, recovery_gap)
from .measures import LaplaceFactor, NormalFactor
from .om import posterior_om, prior_om
from .spaces import SpectralOperator, _as_vector, project


@dataclass
class Potential:
    """Real-valued misfit with gradient and optional smoothness metadata.

    When a gradient is supplied it is validated against central finite
    differences at a few random points (1e-6 relative tolerance).
    """

    eval: Callable[[np.ndarray], float]
    gradient: Optional[Callable[[np.ndarray], np.ndarray]]
    dim: int
    lipschitz_grad: Optional[float] = None

    def __post_init__(self):
        if self.gradient is not None:
            rng = np.random.default_rng(0)
            for _ in range(5):
                u = rng.uniform(-1.0, 1.0, self.dim)
                g = np.asarray(self.gradient(u), dtype=float)
                fd = _central_diff(self.eval, u)
                scale = max(1.0, float(np.linalg.norm(g)))
                if np.linalg.norm(g - fd) > 1e-6 * scale:
                    raise ParameterError(
                        f"gradient disagrees with finite differences by "
                        f"{np.linalg.norm(g - fd) / scale:.2e} (relative)")

    def __call__(self, u) -> float:
        return float(self.eval(u))


def _central_diff(f, u, h: float = 1e-6) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    out = np.empty_like(u)
    for k in range(u.size):
        e = np.zeros_like(u)
        e[k] = h
        out[k] = (f(u + e) - f(u - e)) / (2.0 * h)
    return out


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
    """Value, gradient and gradient Lipschitz constant of |w_y - W u|^2 / 2."""

    def value(u):
        r = w_y - w_mat @ np.asarray(u, dtype=float)
        return 0.5 * float(r @ r)

    def grad(u):
        r = w_y - w_mat @ np.asarray(u, dtype=float)
        return -(w_mat.T @ r)

    return value, grad, float(np.linalg.norm(w_mat, 2)) ** 2  # exact: top eigenvalue of W^T W


def quadratic_potential(obs: LinearObservation) -> Potential:
    """Half the squared whitened misfit."""
    value, grad, lip = _misfit(*obs.whitened())
    return Potential(eval=value, gradient=grad, dim=obs.n_unknown, lipschitz_grad=lip)


def projected_potential(pot: Potential, n: int) -> Potential:
    """pot composed with the projection onto the first n coordinates."""

    def value(u):
        return pot.eval(project(u, n))

    grad = None
    if pot.gradient is not None:
        def grad(u):
            g = np.asarray(pot.gradient(project(u, n)), dtype=float)
            out = np.zeros_like(g)
            out[:n] = g[:n]
            return out

    return Potential(eval=value, gradient=grad, dim=pot.dim, lipschitz_grad=pot.lipschitz_grad)


# ---------------------------------------------------------------------------
# solvers
# ---------------------------------------------------------------------------

def map_solve(prior, obs: LinearObservation, prox: Optional[ProxOpts] = None) -> MapSolution:
    """MAP estimate for a linear observation, by the solver of the prior's factor."""
    return _factor_rules(prior, "MAP solver")[0](prior, obs, prox)


def _reduced_map(prior, o: np.ndarray):
    """B = O C^(1/2) on the free eigendirections of a normal-factor prior,
    C^(1/2) = basis diag(scale), and the map w -> m + C^(1/2) w from
    reduced coefficients back to the unknown."""
    free, basis = ~prior.pinned, prior.basis
    sig = prior.scale[free]
    cols = o if basis is None else o @ basis

    def lift(w: np.ndarray) -> np.ndarray:
        coeff = np.zeros(prior.dim)
        coeff[free] = sig * w
        return prior.mean + (coeff if basis is None else basis @ coeff)

    return cols[:, free] * sig[None, :], lift


def _map_solve_gaussian(prior, obs: LinearObservation,
                        prox: Optional[ProxOpts] = None) -> MapSolution:
    """Exact MAP for a linear observation under a prior of normal factors;
    ``prox`` is unused, as the solve is direct.

    The unknown is substituted as m + C^(1/2) w over the non-null
    eigendirections, which turns the problem into the always
    well-posed reduced normal equations (B^T B + I) w = B^T r.
    """
    if obs.n_unknown != prior.dim:
        raise InputError("observation and prior dimensions differ")
    w_mat, w_y = obs.whitened()
    b, lift = _reduced_map(prior, w_mat)
    r = w_y - w_mat @ prior.mean
    lhs = b.T @ b + np.eye(b.shape[1])
    rhs = b.T @ r
    flags = []
    try:
        w = np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError:
        w = np.linalg.lstsq(lhs, rhs, rcond=None)[0]
        flags.append("minimum-norm-fallback")
    residual = float(np.linalg.norm(lhs @ w - rhs))
    point = lift(w)
    misfit = w_y - w_mat @ point
    objective = 0.5 * float(misfit @ misfit) + 0.5 * float(w @ w)
    return MapSolution(point, objective, residual, 1, "normal-equations", tuple(flags))


@dataclass(frozen=True)
class ProxOpts:
    tol: float = 1e-8
    max_iter: int = 10 ** 5
    check_uniqueness: bool = False


_BACKTRACK = 2.0  # step shrink factor of the line search
_UNIQUENESS_POINT_TOL = 1e-4
_UNIQUENESS_OBJ_TOL = 1e-10


def _soft_threshold(x: np.ndarray, thresh: np.ndarray) -> np.ndarray:
    return np.sign(x) * np.maximum(np.abs(x) - thresh, 0.0)


def kkt_residual(grad: np.ndarray, u: np.ndarray, inv_gamma: np.ndarray) -> float:
    """Distance of -grad from the weighted-l1 subdifferential at u."""
    on = u != 0
    res_on = np.abs(grad[on] + np.sign(u[on]) * inv_gamma[on])
    res_off = np.maximum(np.abs(grad[~on]) - inv_gamma[~on], 0.0)
    return float(max(res_on.max(initial=0.0), res_off.max(initial=0.0)))


def map_solve_besov(prior, pot: Potential, opts: Optional[ProxOpts] = None) -> MapSolution:
    """Accelerated proximal gradient for pot(u) + sum_k |u_k| / gamma_k
    under a centred prior of Laplace factors of scales gamma_k.

    Backtracking line search from the step 1 / ``pot.lipschitz_grad``,
    with function-value restarts; stops when the subdifferential
    optimality residual drops below the tolerance.
    """
    if pot.dim != prior.dim:
        raise InputError("potential and prior dimensions differ")
    if pot.gradient is None:
        raise InputError("the proximal solver needs a potential gradient")
    return _proximal_solve(_l1_weights(prior), (pot.eval, pot.gradient, pot.lipschitz_grad),
                           opts or ProxOpts())


def _l1_weights(prior) -> np.ndarray:
    """1 / scale, the weights of a Laplace-factor prior's weighted-l1 functional;
    refused unless its form is centred and in the coordinate basis."""
    if prior.basis is not None or np.any(prior.mean):
        raise InputError(f"the weighted-l1 solvers need a centred prior in the coordinate "
                         f"basis; this {type(prior).__name__} has a basis or a nonzero mean")
    return 1.0 / prior.scale


def _proximal_solve(inv_gamma: np.ndarray, misfit: tuple, opts: ProxOpts,
                    polish: Optional[Callable[[np.ndarray], Optional[np.ndarray]]] = None
                    ) -> MapSolution:
    """The loop of ``map_solve_besov`` for the weights ``inv_gamma`` on
    ``misfit`` = (value, gradient, gradient Lipschitz constant or None).
    At a residual check that fails with the sign pattern unchanged since
    the previous check, ``polish(u)`` may propose a point; the run stops
    on it once its own residual is below the tolerance.
    """
    value, gradient, lip = misfit

    def full_obj(u):
        return value(u) + float(np.abs(u) @ inv_gamma)

    def residual(u):
        return kkt_residual(np.asarray(gradient(u), dtype=float), u, inv_gamma)

    step = 1.0 / max(lip or 1.0, 1e-12)
    u = np.zeros(inv_gamma.size)
    z = u.copy()
    t_acc = 1.0
    f_prev = full_obj(u)
    solver = "fista-backtracking"
    signs = None
    it = 0
    for it in range(1, opts.max_iter + 1):
        g = np.asarray(gradient(z), dtype=float)
        fz = value(z)
        while True:
            u_new = _soft_threshold(z - step * g, step * inv_gamma)
            diff = u_new - z
            quad_model = fz + float(g @ diff) + float(diff @ diff) / (2.0 * step)
            if value(u_new) <= quad_model + 1e-15 or step < 1e-18:
                break
            step /= _BACKTRACK
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_acc * t_acc))
        z = u_new + ((t_acc - 1.0) / t_next) * (u_new - u)
        f_new = full_obj(u_new)
        if f_new > f_prev:  # function-value restart
            z = u_new
            t_next = 1.0
        f_prev = f_new
        u = u_new
        t_acc = t_next
        if it % 10 == 0 or it == 1:
            if residual(u) < opts.tol:
                break
            if polish is not None and np.array_equal(np.sign(u), signs):
                candidate = polish(u)
                if candidate is not None and residual(candidate) < opts.tol:
                    u, solver = candidate, "fista+active-set-polish"
                    break
            signs = np.sign(u)
    res = residual(u)
    flags = [] if res < opts.tol else ["not-converged"]
    if not np.all(np.isfinite(u)):
        raise NumericsError("proximal iteration produced non-finite values")
    return MapSolution(u, full_obj(u), res, it, solver, tuple(flags))


_CD_MAX_SWEEPS = 10 ** 4
_CD_TOL = 1e-12  # stop once no coordinate moves by more than this in a sweep


def coordinate_descent_weighted_l1(obs: LinearObservation, gamma: np.ndarray) -> np.ndarray:
    """Cyclic coordinate descent from zero for the whitened misfit + weighted l1.

    A secondary solver: it shares no code with the proximal path and is
    used to surface non-uniqueness.
    """
    w_mat, w_y = obs.whitened()
    k = obs.n_unknown
    g_mat = w_mat.T @ w_mat
    b = w_mat.T @ w_y
    u = np.zeros(k)
    inv_gamma = 1.0 / np.asarray(gamma, dtype=float)
    for _ in range(_CD_MAX_SWEEPS):
        delta = 0.0
        for j in range(k):
            if g_mat[j, j] == 0.0:
                continue
            rho = b[j] - g_mat[j] @ u + g_mat[j, j] * u[j]
            new = math.copysign(max(abs(rho) - inv_gamma[j], 0.0), rho) / g_mat[j, j]
            delta = max(delta, abs(new - u[j]))
            u[j] = new
        if delta < _CD_TOL:
            break
    return u


def _active_set_polish(w_mat: np.ndarray, w_y: np.ndarray, inv_gamma: np.ndarray,
                       u: np.ndarray) -> Optional[np.ndarray]:
    """Solve the stationarity system of the whitened misfit (W, y) on
    the support of u exactly.

    With the support and signs frozen, the optimality condition is
    linear; the solution is returned only when no sign flips.
    """
    active = u != 0.0
    if not np.any(active):
        return None
    signs = np.sign(u[active])
    a = w_mat[:, active]
    rhs = a.T @ w_y - signs * inv_gamma[active]
    u_act = np.linalg.lstsq(a.T @ a, rhs, rcond=None)[0]
    if np.any(u_act * signs < 0):
        return None
    out = np.zeros_like(u)
    out[active] = u_act
    return out


def map_solve_besov_linear(prior, obs: LinearObservation,
                           opts: Optional[ProxOpts] = None) -> MapSolution:
    """Laplace-factor (Besov-1) prior MAP for a linear observation, with a uniqueness flag.

    Runs the proximal solver on the quadratic misfit.  Once the sign
    pattern holds between two residual checks, it also solves the
    stationarity system on that support exactly, and stops with solver
    ``fista+active-set-polish`` when that point's residual is below the
    tolerance, where the first-order iteration alone would crawl.  A run
    that reaches ``max_iter`` with neither certificate is flagged
    ``not-converged``.  When requested, a coordinate-descent pass
    restarted elsewhere flags solutions that land far away at
    numerically equal objective.  The misfit's gradient is analytic and
    skips the finite-difference check of a ``Potential``.
    """
    if obs.n_unknown != prior.dim:
        raise InputError("observation and prior dimensions differ")
    opts = opts or ProxOpts()
    w_mat, w_y = obs.whitened()
    misfit, inv_g = _misfit(w_mat, w_y), _l1_weights(prior)
    sol = _proximal_solve(inv_g, misfit, opts,
                          lambda u: _active_set_polish(w_mat, w_y, inv_g, u))
    if opts.check_uniqueness:
        alt = coordinate_descent_weighted_l1(obs, prior.scale)
        obj_alt = misfit[0](alt) + float(np.abs(alt) @ inv_g)
        if (np.linalg.norm(alt - sol.point) > _UNIQUENESS_POINT_TOL
                and abs(obj_alt - sol.objective) <= _UNIQUENESS_OBJ_TOL):
            sol = replace(sol, flags=sol.flags + ("non-unique-minimiser",))
    return sol


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

    kind "data": schedule(n) returns the perturbed data vector;
    kind "potential_projection": schedule(n) returns the projection
    dimension (Galerkin truncation of the observation);
    kind "prior": schedule(n) returns the perturbed prior measure.
    The limit problem uses the unperturbed ingredients; all solve with
    ``map_solve``'s defaults.  Solutions are tracked with the
    mode-convergence detector against the limit objective and the report
    bundles the convergence probes at the limit point licensing the limit
    interchange (potential continuity for data/projection,
    functional-family probes for priors).
    """
    if kind not in ("data", "potential_projection", "prior"):
        raise InputError(f"unknown perturbation kind {kind!r}")
    indices = list(indices)
    limit_sol = map_solve(prior, obs)

    limit_pot = quadratic_potential(obs)
    priors, pot_members, solutions = [], [], []
    # the probes only call a perturbed member's value: it is a plain callable,
    # not a Potential, whose finite-difference check the analytic gradient
    # does not need
    for n in indices:
        prior_n, obs_n, pot_n = prior, obs, limit_pot
        if kind == "data":
            obs_n = LinearObservation(obs.matrix, obs.noise_cov, schedule(n))
            pot_n = _misfit(*obs_n.whitened())[0]
        elif kind == "potential_projection":
            dim_n = int(schedule(n))
            o_n = obs.matrix.copy()
            o_n[:, dim_n:] = 0.0
            obs_n = LinearObservation(o_n, obs.noise_cov, obs.data)
            pot_n = lambda u, dim_n=dim_n: limit_pot.eval(project(u, dim_n))
        else:
            prior_n = schedule(n)
        priors.append(prior_n)
        pot_members.append(pot_n)
        solutions.append(map_solve(prior_n, obs_n))

    entries = [PerturbationEntry(n, s.point, s.objective, s.optimality_residual,
                                 float(np.linalg.norm(s.point - limit_sol.point)), s.flags)
               for n, s in zip(indices, solutions)]

    # posterior functional family for the convergence check
    fam = FunctionalSequence(
        indices, [posterior_om(prior_om(pr), pt) for pr, pt in zip(priors, pot_members)],
        posterior_om(prior_om(prior), limit_pot))
    mode_report = mode_convergence_check(fam, [s.point for s in solutions],
                                         ModeConvOpts(limit_min=limit_sol.objective))

    probes: dict = {}
    if kind in ("data", "potential_projection"):
        probes["potential_continuous_convergence"] = continuous_convergence_probe(
            pot_members, limit_pot, [limit_sol.point], indices)
    else:
        fam_prior = om_family(priors, prior, indices)
        probes["prior_recovery_max_gap"] = recovery_gap(fam_prior, limit_sol.point)
        probes["prior_liminf"] = [gamma_liminf_probe(fam_prior, limit_sol.point)]
        probes["prior_equicoercivity"] = equicoercivity_probe(fam_prior, 1.0, 200)

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
    """

    n_values: list
    points: list
    distances: list
    constrained_point: np.ndarray
    constrained_value: float
    pointwise_table: list
    gamma_liminf_asserted: bool = False


def constrained_prior_minimum(prior, obs: LinearObservation) -> np.ndarray:
    """Minimise the prior functional subject to O u = y, by the rule of the
    prior's factor (``_FACTOR_RULES``)."""
    return _factor_rules(prior, "constrained solver")[1](prior, obs)


def _gaussian_constrained(prior, obs: LinearObservation) -> np.ndarray:
    """Minimum Cameron-Martin norm point on the affine set, via the
    pseudoinverse of the reduced map."""
    o = obs.matrix
    b, lift = _reduced_map(prior, o)
    rhs = obs.data - o @ prior.mean
    v = np.linalg.pinv(b) @ rhs
    if np.linalg.norm(b @ v - rhs) > 1e-8 * max(1.0, np.linalg.norm(rhs)):
        raise NumericsError("misfit minimum is not attained on the prior support")
    return lift(v)


def _besov_constrained(prior, obs: LinearObservation) -> np.ndarray:
    """Weighted basis pursuit solved as a linear program."""
    from scipy.optimize import linprog

    o = obs.matrix
    k = prior.dim
    cost = np.tile(_l1_weights(prior), 2)
    res = linprog(cost, A_eq=np.hstack([o, -o]), b_eq=obs.data,
                  bounds=[(0, None)] * (2 * k), method="highs")
    if not res.success:
        raise NumericsError(f"basis pursuit failed: {res.message}")
    return res.x[:k] - res.x[k:]


#: factor type -> (MAP solver, constrained solver) of a product prior
_FACTOR_RULES = {NormalFactor: (_map_solve_gaussian, _gaussian_constrained),
                 LaplaceFactor: (map_solve_besov_linear, _besov_constrained)}


def _factor_rules(prior, what: str) -> tuple:
    rules = _FACTOR_RULES.get(type(getattr(prior, "factor", None)))
    if rules is None:
        raise InputError(f"no {what} for prior type {type(prior).__name__}")
    return rules


def small_noise_experiment(prior, obs: LinearObservation, n_list: Sequence[int],
                           probe_points: Optional[Sequence] = None) -> SmallNoiseReport:
    """Minimise n*Phi + I0 along n with ``map_solve``'s defaults and
    compare with the constrained point."""
    n_list = [int(n) for n in n_list]
    if any(n < 1 for n in n_list):
        raise InputError("noise-scaling indices must be positive")
    star = constrained_prior_minimum(prior, obs)
    points, dists = [], []
    for n in n_list:
        scaled = LinearObservation(obs.matrix,
                                   SpectralOperator(obs.noise_cov.eigenvalues / n,
                                                    obs.noise_cov.basis),
                                   obs.data)
        sol = map_solve(prior, scaled)
        points.append(sol.point)
        dists.append(float(np.linalg.norm(sol.point - star)))

    prior_fn = prior_om(prior)
    pot = quadratic_potential(obs)
    pts = list(probe_points) if probe_points is not None else [star, star + 0.1]
    table = []
    for x in pts:
        x = _as_vector(x, prior.dim)
        phi, prior_value = pot.eval(x), prior_fn.eval(x)
        table.append({"x": list(map(float, x)), "phi": float(phi),
                      "values": [float(n * phi + prior_value) for n in n_list]})
    return SmallNoiseReport(n_list, points, dists, star, float(prior_fn.eval(star)), table)
