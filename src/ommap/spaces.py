"""Truncated weighted sequence spaces and spectral operators.

Everything here works on finite truncations of sequence spaces: a vector
``u`` of length ``K`` stands for the first ``K`` coordinates of a
sequence.  The module holds the weighted p-norm, of one vector or of every
row of an array at once, coordinate projections, and symmetric positive
semi-definite operators in spectral form: their eigenbasis, the change of
coordinates into it, and which eigenvalues count as zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import InputError, ParameterError

#: An eigenvalue counts as zero iff lam_k <= RANK_TOL * max_j lam_j.
RANK_TOL = 1e-12

#: v lies in range(op^(1/2)) iff its kernel components stay below
#: RANGE_ATOL * max(1, |v|).
RANGE_ATOL = 1e-10

#: Tolerance for the orthonormality check of explicit bases.
ORTHO_TOL = 1e-10


def _as_vector(u, dim: Optional[int] = None) -> np.ndarray:
    v = np.asarray(u, dtype=float)
    if v.ndim != 1:
        raise InputError(f"expected a vector, got array of shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise InputError(f"dimension mismatch: expected {dim}, got {v.shape[0]}")
    return v


@dataclass(frozen=True)
class WeightedSeqSpace:
    """Weighted l^p space on the first ``dim`` coordinates.

    The norm of ``u`` is ``(sum_k |u_k / weights_k|^p)^(1/p)``, with the
    max of ``|u_k / weights_k|`` for ``p = inf``.
    """

    p: float
    weights: np.ndarray

    def __post_init__(self):
        w = _as_vector(self.weights)
        object.__setattr__(self, "weights", w)
        if w.size < 1:
            raise ParameterError("space dimension must be >= 1")
        if not np.all(np.isfinite(w)) or np.any(w <= 0):
            raise ParameterError("all weights must be strictly positive and finite")
        if not (self.p > 0):
            raise ParameterError(f"p must be positive, got {self.p}")

    @property
    def dim(self) -> int:
        return int(self.weights.size)

    @classmethod
    def unweighted(cls, p: float, dim: int) -> "WeightedSeqSpace":
        return cls(p=p, weights=np.ones(dim))


def row_norms(x: np.ndarray, space: WeightedSeqSpace) -> np.ndarray:
    """Norms ``||x_i / weights||_p`` of the rows of an (n, dim) array; a
    row with a non-finite entry gets the max of its ``|x_ik / weights_k|``."""
    scaled = np.abs(x) / space.weights
    if math.isinf(space.p):
        return scaled.max(axis=1)
    if space.p == 1.0:
        return scaled.sum(axis=1)
    if space.p == 2.0:
        return np.sqrt((scaled * scaled).sum(axis=1))
    # generic p: scale each row by its max, so |x/w|^p neither under- nor overflows
    m = scaled.max(axis=1)
    plain = (m == 0.0) | ~np.isfinite(m)
    safe = np.where(plain, 1.0, m)[:, None]
    return np.where(plain, m, m * ((scaled / safe) ** space.p).sum(axis=1) ** (1.0 / space.p))


def weighted_norm(u, space: WeightedSeqSpace) -> float:
    """Norm of ``u`` in ``space``, the one-row case of ``row_norms``; may be
    +inf for non-finite input."""
    return float(row_norms(_as_vector(u, space.dim)[None, :], space)[0])


def project(u, n: int) -> np.ndarray:
    """Keep coordinates 1..n of a vector, or of every row of an (m, dim)
    array, and zero the rest.  Idempotent, norm-1 in any weighted l^p."""
    v = np.asarray(u, dtype=float)
    if v.ndim != 2:
        v = _as_vector(v)
    if not (1 <= n <= v.shape[-1]):
        raise InputError(f"projection dimension {n} out of range [1, {v.shape[-1]}]")
    out = v.copy()
    out[..., n:] = 0.0
    return out


@dataclass(frozen=True)
class SpectralOperator:
    """Symmetric positive semi-definite operator stored spectrally.

    ``eigenvalues`` are the (non-negative) eigenvalues; ``basis`` holds
    the orthonormal eigenvectors as columns, or ``None`` for the
    coordinate basis.  When the operator is a covariance, the
    eigenvalues are variances.
    """

    eigenvalues: np.ndarray
    basis: Optional[np.ndarray] = field(default=None)

    def __post_init__(self):
        lam = _as_vector(self.eigenvalues)
        object.__setattr__(self, "eigenvalues", lam)
        if np.any(lam < 0) or not np.all(np.isfinite(lam)):
            raise ParameterError("eigenvalues must be non-negative and finite")
        if self.basis is not None:
            b = np.asarray(self.basis, dtype=float)
            if b.shape != (lam.size, lam.size):
                raise ParameterError(
                    f"basis shape {b.shape} incompatible with {lam.size} eigenvalues"
                )
            err = np.max(np.abs(b.T @ b - np.eye(lam.size)))
            if err > ORTHO_TOL:
                raise ParameterError(f"basis not orthonormal: deviation {err:.3e}")
            object.__setattr__(self, "basis", b)

    @property
    def dim(self) -> int:
        return int(self.eigenvalues.size)

    @classmethod
    def from_dense(cls, mat) -> "SpectralOperator":
        """Spectral form of a dense SPSD matrix (symmetrised first)."""
        a = np.asarray(mat, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ParameterError(f"expected a square matrix, got shape {a.shape}")
        a = 0.5 * (a + a.T)
        lam, vec = np.linalg.eigh(a)
        floor = -1e-10 * max(1.0, float(np.max(np.abs(lam))))
        if np.any(lam < floor):
            raise ParameterError(f"matrix is not PSD: min eigenvalue {lam.min():.3e}")
        return cls(eigenvalues=np.maximum(lam, 0.0), basis=vec)

    # -- coordinate transforms -------------------------------------------
    def to_eigen(self, x) -> np.ndarray:
        v = _as_vector(x, self.dim)
        return v if self.basis is None else self.basis.T @ v

    def to_eigen_matrix(self, mat: np.ndarray) -> np.ndarray:
        """Rows of ``mat`` re-expressed in the eigenbasis."""
        return mat if self.basis is None else self.basis.T @ mat

    def zero_mask(self) -> np.ndarray:
        """Boolean mask of eigenvalues treated as zero at ``RANK_TOL``."""
        top = float(np.max(self.eigenvalues)) if self.dim else 0.0
        if top == 0.0:
            return np.ones(self.dim, dtype=bool)
        return self.eigenvalues <= RANK_TOL * top
