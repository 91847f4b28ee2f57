"""Exact least squares, kept as an independent reference.

The library extrapolates ratio curves and the Gamma-probe's deficits to a
zero abscissa with one routine of orthogonal polynomials in floats
(``ommap.measures._poly_intercepts``).  Tests check its intercepts and
residuals against the least-squares polynomial computed here in exact
rational arithmetic.
"""

import math
from fractions import Fraction


def exact_lstsq_intercept(d, y, degree):
    """The constant term of the least-squares polynomial of the given
    degree through (d, y), in exact rational arithmetic (the normal
    equations of the Fraction design, solved by Gauss-Jordan elimination),
    and the fit's rms residual as a float."""
    d, y = [Fraction(float(v)) for v in d], [Fraction(float(v)) for v in y]
    rows = [[sum(t ** (i + j) for t in d) for j in range(degree + 1)]
            + [sum(v * t ** i for t, v in zip(d, y))] for i in range(degree + 1)]
    for i in range(degree + 1):
        pivot = next(r for r in range(i, degree + 1) if rows[r][i] != 0)
        rows[i], rows[pivot] = rows[pivot], rows[i]
        rows[i] = [v / rows[i][i] for v in rows[i]]
        for r in range(degree + 1):
            if r != i:
                rows[r] = [v - rows[r][i] * w for v, w in zip(rows[r], rows[i])]
    resid = [v - sum(row[-1] * t ** i for i, row in enumerate(rows)) for t, v in zip(d, y)]
    return rows[0][-1], math.sqrt(sum(r * r for r in resid) / len(d))
