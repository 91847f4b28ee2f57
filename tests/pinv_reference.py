"""Spectral pseudoinverse operations, kept as independent references.

The library reads its OM functionals, recovery sequences and MAP maps off
the product form, so it calls none of these.  Tests use them to check
those results against the Cameron-Martin algebra written out directly:
``sqrt_pinv_apply`` maps a shift to its Cameron-Martin coordinates,
``in_range_sqrt`` tells whether it has any, and ``pinv_apply`` is the
minimum-norm solve of criterion 12.
"""

import numpy as np

from ommap.spaces import RANGE_ATOL, SpectralOperator, _as_vector


def from_eigen(op: SpectralOperator, c) -> np.ndarray:
    v = _as_vector(c, op.dim)
    return v if op.basis is None else op.basis @ v


def apply(op: SpectralOperator, x) -> np.ndarray:
    return from_eigen(op, op.eigenvalues * op.to_eigen(x))


def sqrt_apply(op: SpectralOperator, x) -> np.ndarray:
    return from_eigen(op, np.sqrt(op.eigenvalues) * op.to_eigen(x))


def pinv_apply(op: SpectralOperator, y) -> np.ndarray:
    """Moore-Penrose pseudoinverse applied to ``y``.

    In the eigenbasis the k-th component of the result is y_k / lam_k
    where lam_k is a nonzero eigenvalue, and 0 on the kernel directions
    (the pseudoinverse annihilates the orthogonal complement of the
    range).
    """
    c = op.to_eigen(_as_vector(y, op.dim))
    zero = op.zero_mask()
    out = np.zeros_like(c)
    out[~zero] = c[~zero] / op.eigenvalues[~zero]
    return from_eigen(op, out)


def sqrt_pinv_apply(op: SpectralOperator, v) -> np.ndarray:
    """Pseudoinverse of the operator square root applied to ``v``."""
    c = op.to_eigen(_as_vector(v, op.dim))
    zero = op.zero_mask()
    out = np.zeros_like(c)
    out[~zero] = c[~zero] / np.sqrt(op.eigenvalues[~zero])
    return from_eigen(op, out)


def in_range_sqrt(op: SpectralOperator, v) -> bool:
    """Range-membership test for the operator square root.

    ``v`` lies in range(op^(1/2)) iff its components along the kernel
    directions vanish; numerically, iff their magnitude stays below
    ``RANGE_ATOL * max(1, |v|)``.
    """
    c = op.to_eigen(_as_vector(v, op.dim))
    zero = op.zero_mask()
    if not np.any(zero):
        return True
    scale = max(1.0, float(np.linalg.norm(c)))
    return bool(np.max(np.abs(c[zero]), initial=0.0) <= RANGE_ATOL * scale)
