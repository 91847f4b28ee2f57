"""Cyclic coordinate descent for the weighted-l1 MAP, kept as an independent reference.

The library solves the MAP point of a Laplace-factor (Besov-1) prior
under a linear observation by the lasso homotopy and, for a general
potential, by a proximal Newton iteration whose steps are homotopy
solves.  Tests check the homotopy against this method, which shares no
code with it: coordinate descent from zero on the whitened misfit plus
sum_k |u_k| / gamma_k, for a noise covariance in the coordinate basis.
"""

import math

import numpy as np


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
