"""Potentials stated one point at a time, for tests.

A ``Potential`` is a row kernel: it maps the rows of an ``(n, dim)``
array to their n values.  A test that writes its potential as a function
of one point wraps it here; the kernel calls that function on each row.
"""

import numpy as np

from ommap import Potential


def pointwise(f, dim: int, gradient=None) -> Potential:
    """The Potential on R^dim whose value at each row u is ``f(u)``."""
    return Potential(lambda pts: np.array([float(f(u)) for u in pts], dtype=float),
                     gradient, dim)
