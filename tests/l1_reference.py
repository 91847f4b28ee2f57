"""Independent references for the weighted-l1 problems of a Besov-1 prior.

The library solves the MAP point of a Laplace-factor (Besov-1) prior
under a linear observation by the lasso homotopy, its small-noise limit
by the same homotopy followed to its end, and, for a general potential,
the MAP point by a proximal Newton iteration whose steps are homotopy
solves.  Tests check these against two methods that share no code with
them: coordinate descent from zero on the whitened misfit plus
sum_k |u_k| / gamma_k, for a noise covariance in the coordinate basis,
and weighted basis pursuit as a linear program.
"""

import math

import numpy as np
from scipy.optimize import linprog


def coordinate_descent(obs, gamma, sweeps: int = 40000, tol: float = 1e-14) -> np.ndarray:
    """Minimiser of |C^(-1/2)(y - O u)|^2 / 2 + sum_k |u_k| / gamma_k, by
    sweeps of exact one-coordinate minimisation until no coordinate moves
    by more than ``tol`` in a sweep, or ``sweeps`` have run."""
    w = 1.0 / np.sqrt(obs.noise_cov.eigenvalues)
    a = obs.matrix * w[:, None]
    b = obs.data * w
    g = a.T @ a
    rhs = a.T @ b
    u = np.zeros(a.shape[1])
    thr = 1.0 / np.asarray(gamma, dtype=float)
    for _ in range(sweeps):
        delta = 0.0
        for i in range(len(u)):
            if g[i, i] == 0.0:
                continue
            rho = rhs[i] - g[i] @ u + g[i, i] * u[i]
            new = math.copysign(max(abs(rho) - thr[i], 0.0), rho) / g[i, i]
            delta = max(delta, abs(new - u[i]))
            u[i] = new
        if delta < tol:
            break
    return u


def basis_pursuit(obs, gamma) -> np.ndarray:
    """Minimiser of sum_k |u_k| / gamma_k subject to O u = y, as the linear
    program over u = u+ - u-, u+- >= 0, solved by HiGHS."""
    k = obs.n_unknown
    cost = np.tile(1.0 / np.asarray(gamma, dtype=float), 2)
    res = linprog(cost, A_eq=np.hstack([obs.matrix, -obs.matrix]), b_eq=obs.data,
                  bounds=[(0, None)] * (2 * k), method="highs")
    assert res.success, res.message
    return res.x[:k] - res.x[k:]
