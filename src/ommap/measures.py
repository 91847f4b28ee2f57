"""Measures and small-ball probability estimation.

The primitive underlying every mode and functional in this package is
the mass mu(B_r(x)) of a small ball.  This module provides:

* product measures on truncated sequence spaces (Gaussian, and Besov-1 as
  a Laplace product), each a product of 1-d factors in eigen coordinates,
  plus generic 1-d densities;
* exact ball masses of product measures where an exact rule exists
  (point masses, weighted sup-norm balls, one-dimensional balls, and
  weighted l2 balls of Gaussians from Ruben's chi^2 series where it
  certifies its truncation), and Monte Carlo masses and
  common-random-number ratio curves for the rest;
* the ball masses of measures off the product form (``Density1D``, the
  registered examples), whose own ``mass_table`` is the one rule, in the
  method their class names, for their own norm only;
* the supremum of the ball mass over all centres, where a symmetry
  argument places it (product measures: at the mean);
* the coordinate half-widths of the OM sublevel sets {I <= t};
* extrapolation of ratio curves to the small-radius limit.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from ._seeds import child_rng
from .errors import InputError, ParameterError
from .spaces import (RANGE_ATOL, SpectralOperator, WeightedSeqSpace, _as_vector, row_norms,
                     weighted_norm)

# ---------------------------------------------------------------------------
# product measures: one 1-d factor per eigen coordinate
# ---------------------------------------------------------------------------

def _row_dots(f, z: np.ndarray, a: np.ndarray) -> np.ndarray:
    """f(z) @ a, taken over blocks of 256 rows of z so that no temporary as
    large as z is made: a Monte Carlo batch then holds one (draws, dim)
    array, its draws z."""
    return np.concatenate([f(z[i:i + 256]) @ a for i in range(0, len(z), 256)])


class NormalFactor:
    """Standard normal factors: a coordinate of variance v is sqrt(v) X.

    The ``mc_*`` hooks expand the free-coordinate log density at c + s*w*z
    in the proposal scale s: with d = c - m it is -1/2 [|d|^2_v +
    2s z.(d w / v) + s^2 (z*z).(w*w / v)] - log norm, so each scale costs
    O(n) on top of one matvec per center; at -z only the middle term flips.
    """

    exponent = 2.0  # the log density is -|x|^exponent / exponent + const

    def log_sf(self, x):
        """log P(X > x)."""
        from scipy.special import log_ndtr

        return log_ndtr(-x)

    def draw(self, rng, shape):
        return rng.standard_normal(shape)

    def mc_draw_stat(self, setup, z):
        return _row_dots(np.square, z, setup.w * setup.w / setup.spread)

    def mc_center(self, setup, d):
        """For d = c - m, the function (draws, scales) -> free-coordinate log
        density at c + s*w*z and then at c - s*w*z, of shape (len(scales), 2n)."""
        v = setup.spread
        lin_w = d * setup.w / v
        log_d0 = -0.5 * float(np.sum(d * d / v)) - 0.5 * float(np.sum(np.log(2.0 * math.pi * v)))

        def log_density(draws, scales):
            s = np.asarray(scales, dtype=float)[:, None]
            ld, odd = np.tile(log_d0 - 0.5 * s * s * draws.stat, 2), s * (draws.z @ lin_w)
            ld[:, :odd.shape[1]] -= odd
            ld[:, odd.shape[1]:] += odd
            return ld

        return log_density

    def neg_log_density(self, c, inv_scale):
        """Per row of c (over its last axis), sum_k -log density of
        c_k * inv_scale_k, up to a constant."""
        w = c * inv_scale
        return 0.5 * np.einsum("...i,...i->...", w, w)

    def sublevel_reach(self, basis, scale, spread, t):
        """Per row of the (n, dim) stacks, max |(B diag(scale) g)_k| over
        {|g|^2 / 2 <= t}: sqrt(2t ((B*B) v)_k), v the row of ``spread``."""
        # matmul's batch of (B*B) v keeps the bits of the one-row product
        v = spread if basis is None else np.matmul(basis * basis, spread[:, :, None])[:, :, 0]
        return np.sqrt(2.0 * t * v)


class LaplaceFactor:
    """Unit Laplace factors, density exp(-|x|) / 2: a coordinate of scale b is b X.

    In the Monte Carlo expansion, coordinates where c = 0 contribute
    s |z|.(w / b), the same at z and -z; only the nonzero coordinates of c
    are evaluated at each scale and sign.
    """

    exponent = 1.0  # the log density is -|x| + const

    def log_sf(self, x):
        """log P(X > x)."""
        return np.where(x >= 0, math.log(0.5) - x,
                        np.log1p(-0.5 * np.exp(np.minimum(x, 0.0))))

    def draw(self, rng, shape):
        return rng.laplace(size=shape)

    def mc_draw_stat(self, setup, z):
        return _row_dots(np.abs, z, setup.w / setup.spread)

    def mc_center(self, setup, d):
        b, nz = setup.spread, d != 0.0
        log_norm, abs_w = float(np.sum(np.log(2.0 * b))), setup.w / b
        idx = np.flatnonzero(nz)
        c_nz, w_nz = d[nz] / b[nz], abs_w[nz]

        def log_density(draws, scales):
            s = np.asarray(scales, dtype=float)[:, None]
            if not idx.size:
                return np.tile(-log_norm - s * draws.stat, 2)
            z_nz, h = draws.z[:, idx] * w_nz, len(draws.z)
            # the coordinates where c = 0 give the draw statistic less the others' terms
            ld = np.tile(-log_norm - s * (draws.stat - np.abs(z_nz).sum(axis=1)), 2)
            for i, si in enumerate(s[:, 0]):
                ld[i, :h] -= np.abs(c_nz + si * z_nz).sum(axis=1)
                ld[i, h:] -= np.abs(c_nz - si * z_nz).sum(axis=1)
            return ld

        return log_density

    def neg_log_density(self, c, inv_scale):
        """Per row of c (over its last axis), sum_k -log density of
        c_k * inv_scale_k, up to a constant."""
        return np.abs(c) @ inv_scale

    def sublevel_reach(self, basis, scale, spread, t):
        """Per row b of the (n, dim) ``scale``, max |(B diag(b) g)_k| over
        {sum |g| <= t}, reached at a vertex t e_j: t max_j |B_kj b_j|."""
        return (scale if basis is None else np.abs(basis * scale[:, None, :]).max(axis=2)) * t


class ProductMeasure:
    """A product of 1-d factors in eigen coordinates, read through its form.

    The form is ``basis`` (eigenvectors as columns, None for the coordinate
    basis), ``mean`` and its ``eigen_mean``, the per-coordinate ``scale`` of the
    1-d ``factor`` and the factor's density parameter ``spread``; ``pinned``
    marks the coordinates Monte Carlo holds at the mean, and off which the
    OM functional is +inf.  ``om_meta`` is the ``meta`` of that functional.
    """

    basis = None
    pinned = property(lambda self: np.zeros(self.dim, dtype=bool))
    eigen_mean = property(lambda self: self.to_eigen(self.mean))

    def to_eigen(self, x: np.ndarray) -> np.ndarray:
        return x if self.basis is None else self.basis.T @ x


def _in_range(c: np.ndarray, pinned: np.ndarray) -> np.ndarray:
    """Which rows (over the last axis) of eigen coordinates c of u - mean
    put u on a product measure's domain: those whose components along the
    ``pinned`` coordinates stay below ``spaces.RANGE_ATOL * max(1, |c|)``.
    With no coordinate pinned every row does."""
    if not np.any(pinned):
        return np.ones(c.shape[:-1], dtype=bool)
    scale = np.maximum(1.0, np.linalg.norm(c, axis=-1))
    return np.max(np.abs(c[..., pinned]), axis=-1) <= RANGE_ATOL * scale


@dataclass(frozen=True)
class GaussianMeasure(ProductMeasure):
    """N(mean, cov) on R^K with SPSD covariance in spectral form."""

    mean: np.ndarray
    cov: SpectralOperator

    factor = NormalFactor()
    om_meta = {"kind": "gaussian"}
    dim = property(lambda self: self.cov.dim)
    basis = property(lambda self: self.cov.basis)
    spread = property(lambda self: self.cov.eigenvalues)  # variances
    pinned = property(lambda self: self.cov.zero_mask())

    def __post_init__(self):
        object.__setattr__(self, "mean", _as_vector(self.mean, self.cov.dim))
        if not np.all(np.isfinite(self.mean)):
            raise InputError("Gaussian mean must be finite")

    @cached_property
    def scale(self):
        return np.sqrt(self.cov.eigenvalues)

    def default_space(self) -> WeightedSeqSpace:
        return WeightedSeqSpace.unweighted(2.0, self.dim)


@dataclass(frozen=True)
class BesovMeasure(ProductMeasure):
    """Product of centred Laplace distributions with scales gamma_k.

    The scales follow the power law gamma_k = k^(1 - 1/tau) with
    tau = (s/d + 1/2)^(-1); the ambient space carries the faster-growing
    weights delta_k = k^(2 + eta - 1/tau).
    """

    s: float
    d: int
    eta: float
    dim: int

    factor = LaplaceFactor()
    om_meta = {"kind": "besov1", "finite_everywhere": "every truncated vector is summable"}
    tau = property(lambda self: self._weights[0])
    t = property(lambda self: self._weights[1])
    gamma = scale = spread = property(lambda self: self._weights[2])
    delta = property(lambda self: self._weights[3])

    def __post_init__(self):
        if int(self.d) != self.d:
            raise ParameterError("spatial dimension d must be a positive integer")
        self._weights  # besov_weights checks d >= 1, eta > 0 and tau > 0
        if self.dim < 1:
            raise ParameterError("truncation dimension must be >= 1")

    @cached_property
    def _weights(self):
        return besov_weights(self.s, self.d, self.eta, self.dim)

    @cached_property
    def mean(self):
        return np.zeros(self.dim)  # built once: a family's rules read every member's form

    def coefficient_space(self) -> WeightedSeqSpace:
        """The l^1_gamma space where the measure's functional is finite."""
        return WeightedSeqSpace(p=1.0, weights=self.gamma)

    def ambient_space(self) -> WeightedSeqSpace:
        """The l^1_delta space carrying full measure."""
        return WeightedSeqSpace(p=1.0, weights=self.delta)

    default_space = ambient_space


def besov_weights(s: float, d: int, eta: float, dim: int):
    """Derived parameters (tau, t, gamma, delta) of a Besov-1 measure.

    gamma_k = k^(1 - 1/tau) = k^(1/2 - s/d) and
    delta_k = k^(2 + eta - 1/tau) = k^(3/2 + eta - s/d); always
    gamma_1 = delta_1 = 1.
    """
    if d < 1:
        raise ParameterError("spatial dimension d must be a positive integer")
    if not (eta > 0):
        raise ParameterError("tail parameter eta must be positive")
    inv_tau = s / d + 0.5
    if not (inv_tau > 0):
        raise ParameterError("need s/d + 1/2 > 0 so that tau > 0")
    k = np.arange(1, dim + 1, dtype=float)
    gamma = k ** (1.0 - inv_tau)
    delta = k ** (2.0 + eta - inv_tau)
    return 1.0 / inv_tau, s - d * (1.0 + eta), gamma, delta


_QUAD_TOL = 1e-12  # absolute error goal of the quadrature over a ball


@dataclass(frozen=True)
class Density1D:
    """Probability density on a union of intervals of the line, whose ball
    masses come from quadrature.  If ``total_mass`` is not given, the
    density is integrated at construction and must be 1 within 1e-8.
    """

    pdf: Callable[[float], float]
    support: tuple
    total_mass: Optional[float] = None

    method = "quadrature"  # how ``mass_table`` is computed; a class constant, not a field

    def __post_init__(self):
        sup = tuple((float(a), float(b)) for a, b in self.support)
        for a, b in sup:
            if not a < b:
                raise ParameterError(f"empty support interval ({a}, {b})")
        object.__setattr__(self, "support", sup)
        if self.total_mass is None:
            from scipy.integrate import quad

            total = sum(quad(self.pdf, a, b, limit=200)[0] for a, b in sup)
            if abs(total - 1.0) > 1e-8:
                raise ParameterError(f"density mass {total!r} differs from 1 beyond 1e-8")
        # 31 points inside each interval, evenly spaced in arctan where it is unbounded
        xs = np.concatenate([np.linspace(a, b, 33)[1:-1] if math.isfinite(b - a) else
                             np.tan(np.linspace(math.atan(a), math.atan(b), 33)[1:-1])
                             for a, b in sup])
        if min(self.pdf(float(x)) for x in xs) < 0:
            raise ParameterError("density is negative on its support")

    def mass_table(self, centers, radii) -> np.ndarray:
        """Quadrature of the pdf over each open ball B_r(c), interval by
        interval, shape (len(centers), len(radii))."""
        from scipy.integrate import quad

        cs, rs = _table_axes(self, centers, radii)
        out = np.zeros((len(cs), len(rs)))
        for i, c in enumerate(cs[:, 0].tolist()):
            for j, r in enumerate(rs.tolist()):
                for a, b in self.support:
                    lo, hi = max(a, c - r), min(b, c + r)
                    if lo < hi:
                        out[i, j] += quad(self.pdf, lo, hi, epsabs=_QUAD_TOL, limit=200)[0]
        return out


# ---------------------------------------------------------------------------
# options and result records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RatioOpts:
    """Knobs for ball masses, ratio curves and their extrapolation: every
    small-ball mass table reads its method, Monte Carlo sizes, closure and
    seed, and only ratio curves read ``fit_points`` and ``fit_in``.

    Monte Carlo masses evaluate n_samples // n_batches points per batch,
    the antithetic pairs z, -z of half as many draws (rounded up), batch b
    on its own stream (seed, stream, b), so a table, and the results.json
    made from it, is the same bytes on every run of that seed.  A table
    draws one batch at a time, in the call that asks for it, so its
    memory is O(n_samples / (2 n_batches) * dim).
    Ball masses, ``classify_mode`` and ``m_property_probe`` draw every
    batch, each in one piece; a ratio curve draws its first four batches
    in chunks that end at 512 2^j draws, and stops once its limit has
    settled, at a chunk end of those four batches or after a round of
    four whole batches (``ball_ratio_curve``), so for it ``n_samples``
    and ``n_batches`` are a cap.
    """

    n_samples: int = 10 ** 6      # total MC evaluations, split across batches
    n_batches: int = 20
    fit_points: int = 5           # smallest radii used in the fit
    fit_in: str = "r"             # "r" | "sqrt_r": abscissa of the log-ratio fit
    method: str = "auto"          # auto | exact | mc
    closed: bool = False          # closed balls (open is the default everywhere)
    seed: int = 0

    def __post_init__(self):
        if self.method not in ("auto", "exact", "mc"):
            raise ParameterError(f"ball-mass method must be 'auto', 'exact' or 'mc', "
                                 f"got {self.method!r}")
        # a stderr needs two batches, and each batch at least one evaluation
        if self.n_batches < 2:
            raise ParameterError(f"n_batches must be >= 2, got {self.n_batches}")
        if self.n_samples < self.n_batches:
            raise ParameterError(f"n_samples must be >= n_batches ({self.n_batches}), "
                                 f"got {self.n_samples}")
        if self.fit_points < 1:
            raise ParameterError(f"fit_points must be >= 1, got {self.fit_points}")
        if self.fit_in not in ("r", "sqrt_r"):
            raise ParameterError(f"fit_in must be 'r' or 'sqrt_r', got {self.fit_in!r}")


def radius_schedule(r0: float = 0.5, levels: int = 10, factor: float = 2.0) -> np.ndarray:
    """Geometric radius schedule r0 * factor^(-j), decreasing."""
    return r0 * factor ** (-np.arange(levels, dtype=float))


@dataclass(frozen=True)
class BallMass:
    estimate: float
    stderr: float
    method: str
    low_confidence: bool = False


@dataclass(frozen=True)
class BallRatioEstimate:
    """Ratio curve mu(B_r(x1)) / mu(B_r(x2)) with its extrapolated limit."""

    radii: np.ndarray
    ratios: np.ndarray
    stderr: np.ndarray
    extrapolated_limit: float = field(metadata={"json": "limit"})
    ci: tuple
    method: str
    fit_in: str = "r"
    se_model: float = 0.0
    se_limit: float = 0.0
    norm_p: Optional[float] = None
    diagnostic: Optional[str] = None
    n_samples: int = 0            # Monte Carlo evaluations the curve read; 0 for exact masses

    def __post_init__(self):
        r = np.asarray(self.radii, dtype=float)
        if np.any(np.diff(r) >= 0):
            raise InputError("radii must be strictly decreasing")
        if np.any(r <= 0):
            raise InputError("radii must be positive")
        good = np.isfinite(self.ratios)
        if np.any(np.asarray(self.ratios)[good] < 0):
            raise InputError("ratios must be non-negative")


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def sample(measure, n: int, seed: int) -> np.ndarray:
    """n i.i.d. draws as rows; deterministic given the seed."""
    if n < 1:
        raise InputError("need n >= 1 draws")
    if not isinstance(measure, ProductMeasure):
        raise InputError(f"sampling is defined for product measures, not {type(measure).__name__}")
    rng = child_rng(seed, "sample")
    scaled = measure.factor.draw(rng, (n, measure.dim)) * measure.scale
    if measure.basis is not None:
        scaled = scaled @ measure.basis.T
    return measure.mean + scaled


def _uniform_pball(rng: np.random.Generator, n: int, k: int, p: float,
                   out: Optional[np.ndarray] = None) -> np.ndarray:
    """Uniform draws in the unit p-ball of R^k, as rows of ``out`` when it
    is given (an (n, k) float array).

    Barthe, Guedon, Mendelson & Naor: with Y_i i.i.d. of density
    proportional to exp(-|t|^p) and E ~ Exp(1), Y / (sum_i |Y_i|^p + E)^(1/p)
    is uniform in the unit p-ball.  For p = 2, Y = g / sqrt(2) with g
    standard normal, which gives g / sqrt(|g|^2 + 2E).  For p = inf the
    coordinates are uniform on (-1, 1), as 2u - 1 for u uniform on [0, 1).
    """
    if math.isinf(p):
        u = rng.random((n, k), out=out)
        u *= 2.0
        u -= 1.0
        return u
    if p == 2.0:
        g = rng.standard_normal((n, k), out=out)
        e = rng.standard_exponential(n)
        g /= np.sqrt(np.einsum("ij,ij->i", g, g) + 2.0 * e)[:, None]
        return g
    # gamma(1) is the standard exponential, drawn in bulk from the same stream
    g = rng.standard_exponential((n, k)) if p == 1.0 else rng.gamma(1.0 / p, 1.0, size=(n, k))
    u = rng.random(size=(n, k))
    e = rng.standard_exponential(n)
    denom = (g.sum(axis=1) + e) ** (1.0 / p)
    return np.copysign(g ** (1.0 / p) / denom[:, None], u - 0.5, out=out)


def _log_pball_volume(r: float, k: int, p: float, weights: Optional[np.ndarray] = None) -> float:
    """log volume of {x in R^k : ||x / weights||_p < r}."""
    if r <= 0:
        return -math.inf
    logv = k * math.log(2.0 * r)
    if weights is not None:
        logv += float(np.sum(np.log(weights)))
    if not math.isinf(p):
        logv += k * math.lgamma(1.0 + 1.0 / p) - math.lgamma(1.0 + k / p)
    return logv


# ---------------------------------------------------------------------------
# product-measure geometry
# ---------------------------------------------------------------------------

class _ProductSetup:
    """Shared geometry for MC ball masses of one product measure.

    Works in the measure's eigen coordinates.  Pinned coordinates are
    held at the mean; the remaining ones carry the product density of the
    measure's factor.  Proposals are c + s * w * z with z
    uniform in a unit ball: the ball of the space's own norm and weights
    w when the basis is aligned with the coordinates, the Euclidean ball
    with w = 1 otherwise.
    """

    def __init__(self, measure, space: WeightedSeqSpace):
        self.factor, self.basis, self.to_eigen = measure.factor, measure.basis, measure.to_eigen
        self.mean_e, self.zero = measure.eigen_mean, measure.pinned
        self.space = space
        self.free = ~self.zero
        self.k_free = int(np.sum(self.free))
        self.aligned = self.basis is None
        self.m_free = self.mean_e[self.free]
        if self.aligned:
            self.w, self.draw_p = space.weights[self.free], space.p
        else:
            self.w, self.draw_p = np.ones(self.k_free), 2.0
            self.basis_free = self.basis[:, self.free]
            w_mat = self.basis_free / space.weights[:, None]
            # with no free coordinate the ball section is a point: any gain will do
            smin = float(np.linalg.svd(w_mat, compute_uv=False)[-1]) if self.k_free else 1.0
            # one proposal gain for every center: it depends on the geometry only
            self.gain = smin * len(self.zero) ** (1.0 / space.p - 0.5) if space.p >= 2 else smin
            if self.gain <= 0:
                raise InputError("degenerate geometry: cannot bound the ball section")
        self.spread = measure.spread[self.free]


class _Draws:
    """One batch of unit-ball draws z and the statistics all centers share.

    These are the factor's per-draw statistic and, in a rotated basis, the
    ambient directions zb = z @ basis_free.T and their norms ||zb / w||_p.
    Each is computed once per batch: one draw array and one norm per draw,
    whatever the number of centers and radii; even in z, they serve -z too.
    """

    def __init__(self, setup: _ProductSetup, z: np.ndarray):
        self.z = z
        self.stat = setup.factor.mc_draw_stat(setup, z)
        if setup.aligned:
            self.zb = self.zb_norm = None
        else:
            self.zb = z @ setup.basis_free.T
            self.zb_norm = row_norms(self.zb, setup.space)


class _CenterPlan:
    """Per-center proposal plan: where to sample and with what volume."""

    def __init__(self, setup: _ProductSetup, center: np.ndarray):
        self.setup = setup
        c_e = setup.to_eigen(np.asarray(center, dtype=float))
        self.c_free = c_e[setup.free]
        sp = setup.space
        p = sp.p
        if setup.aligned:
            # fixed coordinates contribute offsets to the ball inequality
            off = np.abs(setup.mean_e[setup.zero] - c_e[setup.zero]) / sp.weights[setup.zero]
            if math.isinf(p):
                self.fixed_sup = float(np.max(off, initial=0.0))
            else:
                self.fixed_pow = float(np.sum(off ** p))
        else:
            # rotated basis: keep the exact indicator, enlarge the proposal;
            # the ambient-coordinate offset of the pinned coordinates is None
            # when the center sits on the mean there
            fix_full = np.zeros(len(setup.zero))
            fix_full[setup.zero] = setup.mean_e[setup.zero] - c_e[setup.zero]
            self.fix_vec = setup.basis @ fix_full if np.any(fix_full) else None
            self.fix_norm = 0.0 if self.fix_vec is None else weighted_norm(self.fix_vec, sp)
        # log density at c + s*w*z, expanded in s by the factor
        self.log_density = setup.factor.mc_center(setup, self.c_free - setup.m_free)

    def section_radius(self, r: float, closed: bool) -> Optional[float]:
        """Radius of the free-coordinate ball section (aligned case)."""
        p = self.setup.space.p
        if math.isinf(p):
            return r if (self.fixed_sup <= r if closed else self.fixed_sup < r) else None
        rem = r ** p - self.fixed_pow
        return rem ** (1.0 / p) if rem > 0 else None

    def proposal(self, r: float, closed: bool) -> tuple:
        """Proposal scale s and log volume of {c + s*w*z} for radius r.

        The log volume is -inf where the ball misses the section of the
        support.
        """
        setup = self.setup
        if setup.aligned:
            r_sec = self.section_radius(r, closed)
            if r_sec is None:
                return 0.0, -math.inf
            return r_sec, _log_pball_volume(r_sec, setup.k_free, setup.space.p, setup.w)
        rho = (r + self.fix_norm) / setup.gain
        return rho, _log_pball_volume(rho, setup.k_free, 2.0)


def _log_sum_exp_parts(x: np.ndarray) -> tuple:
    """``(top, total)`` over the last axis of x: its max and the sum of
    exp(x - top), the max taken as 0 in that sum where it is not finite."""
    top = np.max(x, axis=-1)
    e = x - np.where(np.isfinite(top), top, 0.0)[..., None]
    np.exp(e, out=e)  # one temporary the size of x
    return top, np.sum(e, axis=-1)


def _log_mean_of_parts(top: np.ndarray, total: np.ndarray, count: int) -> np.ndarray:
    """Log of the mean of exp(x) over ``count`` values of x whose
    ``_log_sum_exp_parts`` are ``(top, total)``; -inf where all of x is -inf."""
    with np.errstate(divide="ignore"):
        return np.where(np.isfinite(top), top, 0.0) + np.log(total / count)


def _merge_log_sum_exp(top: np.ndarray, total: np.ndarray, top2: np.ndarray,
                       total2: np.ndarray) -> tuple:
    """The ``_log_sum_exp_parts`` of the concatenation of two arrays from
    those of each: a running log-sum-exp, each sum rescaled to the larger max."""
    new = np.maximum(top, top2)
    base = np.where(np.isfinite(new), new, 0.0)
    return new, total * np.exp(top - base) + total2 * np.exp(top2 - base)


def _log_mean_exp(x: np.ndarray) -> np.ndarray:
    """Log of the mean of exp(x) over the last axis; -inf where all of it is -inf."""
    return _log_mean_of_parts(*_log_sum_exp_parts(x), x.shape[-1])


_MC_MIN_BATCHES = 4       # batches per round of a table that may stop early
_MC_CHUNK = 512           # draws of a batch's first chunk; each later chunk doubles the draws


def _chunk_ends(half: int) -> list:
    """The draw counts at which a batch of ``half`` draws ends its chunks:
    ``_MC_CHUNK`` 2^j below ``half``, then ``half``."""
    ends, end = [], _MC_CHUNK
    while end < half:
        ends.append(end)
        end *= 2
    return ends + [half]


def _mc_mass_batches(measure, centers: Sequence[np.ndarray], radii: np.ndarray,
                     space: WeightedSeqSpace, n_samples: int, n_batches: int,
                     seed: int, stream: str, closed: bool = False,
                     settled: Optional[Callable[[np.ndarray, int], bool]] = None) -> np.ndarray:
    """Per-batch log ball masses with common random numbers.

    Returns an array of shape (n_centers, n_radii, n_batches): the log
    of an unbiased per-batch estimate of mu(B_r(c)), -inf where the
    batch finds no mass.  A batch draws (n_samples // n_batches + 1) // 2
    points z of the symmetric unit ball and evaluates each at z and at -z
    (antithetic pairs), which for Gaussian factors cancels the log
    density's first-order term.  Batch b draws from its own stream
    (seed, stream, b), so it depends on nothing but b and results.json is
    the same bytes on every run.  The batches are drawn one at a time, in
    this call, into one draw buffer, and every center and radius is
    evaluated on a call's draws before the next call draws, so memory is
    O(n_samples / (2 n_batches) * dim).

    With ``settled`` and at least ``_MC_MIN_BATCHES`` batches, the table
    is drawn in stages, one batch after another.  The first
    ``_MC_MIN_BATCHES`` batches are drawn one chunk at a time, one
    ``_uniform_pball`` call each, the chunks ending at ``_MC_CHUNK`` 2^j
    draws and, the last one cut short, at the batch's size
    (``_chunk_ends``); a batch's log mass is a running log-sum-exp over
    its chunks (``_merge_log_sum_exp``), so after j chunks it is, bit for
    bit, that of a batch as large as its j-th chunk end, and a batch of at
    most ``_MC_CHUNK`` draws is one chunk, its log mass ``_log_mean_exp``
    of its evaluations.  The other batches follow in rounds of
    ``_MC_MIN_BATCHES`` (the last one may be short).  After each stage
    but the last, ``settled`` is called on the B columns drawn so far and
    their draws m per batch; once it returns true, those columns are the
    table.  A table that stops is thus, bit for bit, the one of B batches
    of 2m evaluations each with ``settled``, and one that never does is
    the whole table.  Every other batch, and every batch of a table
    without ``settled``, is drawn whole, in one call.

    Per call the draw work is done once (``_Draws``); each center then
    costs O(n_radii * n) on top of its factor's log-density expansion,
    whose odd terms alone are formed at both signs.  In a rotated basis
    the ball indicator is homogeneous in the proposal scale,
    ||rho zb / w||_p = rho ||zb / w||_p, so all radii are masked in one
    comparison; only a center off the mean in pinned coordinates
    evaluates the norms of rho zb +- offset per radius.
    """
    setup = _ProductSetup(measure, space)
    plans = [_CenterPlan(setup, c) for c in centers]
    half = (n_samples // n_batches + 1) // 2
    radii = np.asarray(radii, dtype=float)
    props = [np.array([plan.proposal(float(r), closed) for r in radii]).T for plan in plans]
    log_vol = np.array([logv for _, logv in props])
    cmp = np.less_equal if closed else np.less
    out = np.empty((len(plans), len(radii), n_batches))

    def log_density(plan, scales, draws):
        ld = plan.log_density(draws, scales)  # columns z, then -z
        if draws.zb is not None:
            if plan.fix_vec is None:
                norms = np.tile(scales[:, None] * draws.zb_norm, 2)
            else:  # at -z the norm of -rho zb + offset, that of rho zb - offset
                norms = np.array([np.concatenate([row_norms(rho * draws.zb + f, space)
                                                  for f in (plan.fix_vec, -plan.fix_vec)])
                                  for rho in scales])
            ld[~cmp(norms, radii[:, None])] = -np.inf
        return ld

    # (batches, draws from, draws to) of each stage
    if settled is None or n_batches < _MC_MIN_BATCHES:
        stages = [(range(n_batches), 0, half)]
    else:
        ends = _chunk_ends(half)
        stages = [(range(_MC_MIN_BATCHES), lo, hi) for lo, hi in zip([0] + ends, ends)]
        stages += [(range(lo, min(lo + _MC_MIN_BATCHES, n_batches)), 0, half)
                   for lo in range(_MC_MIN_BATCHES, n_batches, _MC_MIN_BATCHES)]
    z = np.empty((max(hi - lo for _, lo, hi in stages), setup.k_free))
    # a batch's generator and the log-sum-exp parts of its chunks, from one chunk to the next
    between = {}
    for i, (batches, lo, hi) in enumerate(stages):
        for b in batches:
            rng, top, total = between.pop(b) if lo else (child_rng(seed, stream, b), None, None)
            draws = _Draws(setup, _uniform_pball(rng, hi - lo, setup.k_free, setup.draw_p,
                                                 z[:hi - lo]))
            # each center's log densities are freed before the next one's are made
            parts = [_log_sum_exp_parts(log_density(plan, scales, draws))
                     for plan, (scales, _) in zip(plans, props)]
            del draws  # free this batch's statistics before the next one is drawn
            new = np.array(parts).transpose(1, 0, 2)
            top, total = _merge_log_sum_exp(top, total, *new) if lo else new
            if hi < half:
                between[b] = rng, top, total
            out[:, :, b] = _log_mean_of_parts(top, total, 2 * hi) + log_vol
        if i + 1 < len(stages):
            table = out[:, :, :batches.stop].copy()
            if settled(table, hi):
                return table
    return out


# ---------------------------------------------------------------------------
# exact ball masses for product measures
# ---------------------------------------------------------------------------

def _product_exact_log_mass(measure, centers: Sequence[np.ndarray], radii: np.ndarray,
                            space: WeightedSeqSpace, closed: bool) -> Optional[tuple]:
    """``(log masses, method)`` of the balls of every radius about every
    centre, shape (n_centres, n_radii), where an exact rule covers the
    whole table; else None.  This is the one place that decides between
    an exact and a Monte Carlo product mass.  The rules, in order:

    * a point mass (no free coordinate), in any norm: "closed-form";
    * a coordinate-aligned measure in a weighted sup norm, or any measure
      on a one-dimensional space, whose balls factor over coordinates:
      "closed-form", per centre by ``_factor_log_mass``;
    * a Gaussian in a weighted l2 norm, any basis, pinned coordinates
      too: Ruben's chi^2 series, "series" (``_gaussian_l2_log_mass``).
      The table is None unless the series certifies every cell, so a
      table is exact or Monte Carlo as a whole.
    """
    inside = np.less_equal if closed else np.less
    if np.all(measure.pinned):
        # a point mass at the mean: the ball holds all of it or none, in any norm
        return np.array([np.where(inside(weighted_norm(c - measure.mean, space), radii), 0.0,
                                  -np.inf) for c in centers]), "closed-form"
    if (measure.basis is None or measure.dim == 1) and (math.isinf(space.p) or space.dim == 1):
        return np.array([_factor_log_mass(measure, c, radii, space, inside)
                         for c in centers]), "closed-form"
    if isinstance(measure.factor, NormalFactor) and space.p == 2.0:
        return _gaussian_l2_log_mass(measure, np.array(centers), radii, space)
    return None


def _factor_log_mass(measure, center: np.ndarray, radii: np.ndarray, space: WeightedSeqSpace,
                     inside) -> np.ndarray:
    """Log masses of the balls about one centre, one per radius, for balls
    that factor over coordinates: the sum of the coordinates' log interval
    masses.  The coordinate densities are symmetric, so each interval is
    reflected to lie on the upper side of its center of symmetry and its
    mass taken as a difference of survival functions, sf(a) - sf(b),
    computed from their logs; a far interval then neither cancels nor
    underflows.
    """
    c, mean = measure.to_eigen(center), measure.eigen_mean
    sd, log_sf = measure.scale, measure.factor.log_sf
    half = radii[:, None] * space.weights
    pinned = sd == 0.0
    hits = np.all(inside(np.abs(c - mean)[pinned], half[:, pinned]), axis=1)
    free = ~pinned
    lo = (c - half - mean)[:, free] / sd[free]
    hi = (c + half - mean)[:, free] / sd[free]
    below = lo + hi < 0
    lo, hi = np.where(below, -hi, lo), np.where(below, -lo, hi)
    ls_lo = log_sf(lo)
    terms = ls_lo + np.log(-np.expm1(log_sf(hi) - ls_lo))
    # the masked terms come out F-ordered; a C-ordered copy sums each row in
    # numpy's pairwise order, as the sum over one radius's coordinates does
    return np.where(hits, np.ascontiguousarray(terms).sum(axis=1), -np.inf)


# ---------------------------------------------------------------------------
# exact l2 ball masses of Gaussian measures
# ---------------------------------------------------------------------------

_SERIES_RTOL = 1e-13     # certified relative truncation error of a series mass
_SERIES_TERMS = 480      # series terms per table (blocks of 32, 64, 128, 256) before Monte Carlo
_COEF_MAX = 1e150        # a series weight above this rescales its row
_GAMMA_ITERS = 10_000    # steps of the incomplete gamma series or continued fraction
_EPS = float(np.finfo(float).eps)


def _gaussian_l2_log_mass(measure, centers: np.ndarray, radii: np.ndarray,
                          space: WeightedSeqSpace) -> Optional[tuple]:
    """``(log masses, "series")`` of the weighted-l2 balls of a Gaussian
    about every centre, or None where the series leaves a cell uncertified.

    With the free coordinates Z standard normal, the ball is
    |e + A Z| < r for A = W^-1 B_free diag(scale_free) and e = W^-1 (m - c).
    One SVD A = U diag(sigma) V^T per table turns it into
    sum_j lam_j (Z_j + b_j)^2 < r^2 - |e_perp|^2 with lam = sigma^2,
    b = U^T e / sigma and e_perp = e - U U^T e, the offset along pinned
    directions, which ``_ruben_log_cdf`` sums.
    """
    free = ~measure.pinned
    e = (measure.mean - centers) / space.weights
    basis = np.eye(measure.dim) if measure.basis is None else measure.basis
    u, sigma, _ = np.linalg.svd(basis[:, free] * measure.scale[free] / space.weights[:, None],
                                full_matrices=False)
    proj = e @ u
    perp = e - proj @ u.T
    t = radii * radii - np.einsum("ij,ij->i", perp, perp)[:, None]
    log_mass, certified = _ruben_log_cdf(sigma * sigma, proj / sigma, t)
    return (log_mass, "series") if certified.all() else None


def _ruben_log_cdf(lam: np.ndarray, b: np.ndarray, t: np.ndarray) -> tuple:
    """``(log P, certified)`` for P = P(sum_j lam_j (Z_j + b_j)^2 < t) with Z
    standard normal, per row of b (n_centres, n) and entry of t (n_centres,
    n_radii), by Ruben's (1962) mixture of central chi^2 CDFs F_nu:

        P = sum_k c_k F_{n+2k}(t / beta),  beta = min lam,
        c_0 = prod_j (beta / lam_j)^(1/2) exp(-|b|^2 / 2),
        c_k = (1 / 2k) sum_{m=1..k} g_m c_{k-m},
        g_m = sum_j gamma_j^m + m b_j^2 (beta / lam_j) gamma_j^(m-1),
        gamma_j = 1 - beta / lam_j.

    The c_k are nonnegative and sum to 1, and F_nu falls as nu grows, so the
    terms after the first K add at most (1 - S_K) F_{n+2K}(t / beta), with
    S_K = c_0 + ... + c_{K-1}; 1 - S_K is taken as at least K eps, the
    rounding error of a sum of K terms, so a partial sum that rounds to 1
    certifies no more than it can.  Terms come in blocks of doubling
    length until that bound is within ``_SERIES_RTOL`` of the sum in every
    cell, or ``_SERIES_TERMS`` are spent; ``certified`` marks the cells
    where it is.  Each row carries c_k exp(-L) and a log scale L that grows
    with them, so an underflowing c_0 or the large c_k of a far centre stay
    in range.  A cell with t <= 0
    holds no mass.
    """
    n = lam.size
    beta = float(lam.min())
    ratio = beta / lam
    gam = 1.0 - ratio
    wb = b * b * ratio
    log_scale = 0.5 * float(np.sum(np.log(ratio))) - 0.5 * np.einsum("ij,ij->i", b, b)
    empty = t <= 0.0
    # F_nu(t / beta) = P(nu / 2, t / (2 beta)), the regularised lower incomplete gamma
    x = np.where(empty, 1.0, t) / (2.0 * beta)
    coef, g = np.ones((len(b), 1)), np.zeros((len(b), 1))  # c_0 e^-L = 1; g_0 is unused
    total = np.full(t.shape, -np.inf)
    lo, size = 0, 32
    with np.errstate(divide="ignore"):
        while True:
            hi = min(lo + size, _SERIES_TERMS)
            grow = np.zeros((len(b), hi - coef.shape[1]))  # the arrays grow block by block
            coef, g = np.hstack([coef, grow]), np.hstack([g, grow])
            m = np.arange(max(lo, 1), hi)
            powers = gam[:, None] ** (m - 1)
            g[:, m] = gam @ powers + m * (wb @ powers)
            for k in m.tolist():
                coef[:, k] = np.einsum("ij,ij->i", g[:, 1:k + 1], coef[:, k - 1::-1]) / (2 * k)
                big = coef[:, k] > _COEF_MAX
                if big.any():
                    top = coef[big, k]
                    coef[big, :k + 1] /= top[:, None]
                    log_scale[big] += np.log(top)
            # log F_{n+2k} for k in [lo, hi): down from F_{n+2hi}, as
            # P(a, x) = P(a + 1, x) + x^a e^-x / Gamma(a + 1), all terms positive
            a = 0.5 * n + np.arange(lo, hi)
            log_top = _log_gamma_p(0.5 * n + hi, x)
            log_d = _log_gamma_prefix(a, x[..., None])
            steps = np.concatenate([log_top[..., None], log_d[..., ::-1]], axis=-1)
            log_f = np.logaddexp.accumulate(steps, axis=-1)[..., :0:-1]
            terms = np.log(coef[:, None, lo:hi]) + log_f
            total = np.logaddexp(total, log_scale[:, None] + _log_mean_exp(terms)
                                 + math.log(hi - lo))
            log_sum = log_scale + np.log(coef[:, :hi].sum(axis=1))
            log_rest = np.log(np.maximum(-np.expm1(np.minimum(log_sum, 0.0)), hi * _EPS))
            certified = empty | (log_rest[:, None] + log_top <= math.log(_SERIES_RTOL) + total)
            if certified.all() or hi == _SERIES_TERMS:
                return np.where(empty, -np.inf, total), certified
            lo, size = hi, 2 * size


def _log_gamma_p(a: float, x: np.ndarray) -> np.ndarray:
    """log P(a, x), the regularised lower incomplete gamma function, for one
    a > 0 and an array of x > 0: the power series
    P = x^a e^-x / Gamma(a + 1) sum_n x^n / ((a + 1) ... (a + n)) where
    x < a + 1, else log(1 - Q) with Q from Legendre's continued fraction
    by Lentz's method.  NaN where either has not converged."""
    out = np.full(x.shape, np.nan)
    low = x < a + 1.0
    xs = x[low]
    term, total = np.ones_like(xs), np.ones_like(xs)
    for i in range(1, _GAMMA_ITERS):
        if np.all(term <= 1e-17 * total):
            out[low] = _log_gamma_prefix(a, xs) + np.log(total)
            break
        term *= xs / (a + i)
        total += term
    xs, tiny = x[~low], 1e-300
    bb = xs + 1.0 - a
    c, d = np.full_like(xs, 1.0 / tiny), 1.0 / bb
    h, delta = d.copy(), np.zeros_like(xs)
    for i in range(1, _GAMMA_ITERS):
        if np.all(np.abs(delta - 1.0) <= 4e-16):
            log_q = _log_gamma_prefix(a, xs) + math.log(a) + np.log(h)
            out[~low] = np.log(-np.expm1(log_q))
            break
        an, bb = -i * (i - a), bb + 2.0
        d, c = an * d + bb, bb + an / c
        d, c = 1.0 / np.where(np.abs(d) < tiny, tiny, d), np.where(np.abs(c) < tiny, tiny, c)
        delta = d * c
        h *= delta
    return out


def _log_gamma_prefix(a, x):
    """log(x^a e^-x / Gamma(a + 1)) for a scalar or vector a, broadcast
    against x > 0.  From a = 50 on it is a log(x / a) - (x - a) - (Stirling's
    series of log Gamma(a + 1) - a log a + a), with log(x / a) as
    log1p((x - a) / a) from x = a / 2 on, which does not cancel a log x
    against log Gamma(a + 1) near x = a.  The terms in a alone are computed
    once per a, not once per element of the broadcast."""
    a = np.atleast_1d(np.asarray(a, dtype=float))
    big = a >= 50.0
    inv = 1.0 / a
    log_g = 0.5 * np.log(2.0 * math.pi * a) + inv * (
        1 / 12 - inv * inv * (1 / 360 - inv * inv * (1 / 1260 - inv * inv / 1680)))
    log_g[~big] = [math.lgamma(v + 1.0) for v in a[~big].tolist()]
    log_ratio = np.where(x < 0.5 * a, np.log(x / a), np.log1p((x - a) / a))
    return np.where(big, a * log_ratio - (x - a), a * np.log(x) - x) - log_g


def default_space(measure) -> WeightedSeqSpace:
    """Norm used for balls when the caller does not specify one: the
    measure's own ``default_space``, else the absolute value on the line."""
    own = getattr(measure, "default_space", None)
    return own() if own is not None else WeightedSeqSpace.unweighted(2.0, 1)


# ---------------------------------------------------------------------------
# ball masses
# ---------------------------------------------------------------------------

def ball_mass(measure, center, radius: float, space: Optional[WeightedSeqSpace] = None,
              opts: Optional[RatioOpts] = None) -> BallMass:
    """mu(B_radius(center)) with a standard error and the method that gave it.

    A product measure reads the one-cell mass table (``_log_mass_table``)
    that ratio curves, ``classify_mode`` and ``m_property_probe`` read,
    exact where an exact rule covers it (``_product_exact_log_mass``: a
    closed form, or a certified series for a Gaussian's l2 balls) and
    ``opts.method`` allows it, else Monte Carlo on ``opts.seed``'s own
    stream (low-confidence past ``_LOW_CONFIDENCE_REL_ERR``); a measure
    off the product form reads the one-cell table of its own
    ``mass_table`` (``_mass_table``), in its own norm only.
    """
    return _ball_masses(measure, [center], radius, space, opts)[0]


_LOW_CONFIDENCE_REL_ERR = 0.5  # MC stderr/estimate above this -> low confidence


def _ball_masses(measure, centers: Sequence, radius: float, space, opts) -> list:
    """One ``BallMass`` per centre for the balls of one radius, the rule of
    ``ball_mass`` and ``sup_ball_mass``.  Off the product form the estimates
    are the cells of the measure's ``mass_table`` bit for bit."""
    opts, radii = opts or RatioOpts(), np.array([_checked_radius(radius)])
    space = space or default_space(measure)
    if not isinstance(measure, ProductMeasure):
        masses, method = _mass_table(measure, centers, radii, space, opts.method)
        return [BallMass(m, 0.0, method) for m in masses[:, 0].tolist()]
    table, method = _log_mass_table(measure, centers, radii, space, opts, "ball-mass")
    est, se = (v[:, 0].tolist() for v in _batch_mean_se(table))
    mc, rel = method == "monte-carlo", _LOW_CONFIDENCE_REL_ERR
    return [BallMass(e, s, method, mc and (e == 0.0 or s > rel * max(e, 1e-300)))
            for e, s in zip(est, se)]


def _checked_radius(radius) -> float:
    """A ball radius, refused unless it is finite and positive."""
    if not 0 < radius < math.inf:
        raise InputError(f"ball radius must be finite and positive, got {radius!r}")
    return float(radius)


def _table_axes(measure, centers, radii) -> tuple:
    """A ``mass_table``'s centres and radii as float arrays of shapes (n, dim)
    and (m,), dim being the measure's ``dim`` (1 if it names none).  A centre
    outside R^dim or a NaN, infinite or nonpositive radius is an InputError."""
    dim, c = getattr(measure, "dim", 1), np.asarray(centers, dtype=float)
    if c.ndim not in (1, 2) or c.size != len(c) * dim:
        where = "on the line" if dim == 1 else f"in R^{dim}"
        raise InputError(f"a {type(measure).__name__} ball needs a centre {where}, "
                         f"got centres of shape {c.shape}")
    r = np.asarray(radii, dtype=float).reshape(-1)
    if not np.all((r > 0) & (r < math.inf)):
        raise InputError(f"ball radii must be finite and positive, got {radii!r}")
    return c.reshape(len(c), dim), r


def _mass_table(measure, centers: Sequence, radii: np.ndarray, space, method: str) -> tuple:
    """``(masses, method)`` of the balls of every radius about every centre,
    shape (n_centers, n_radii), for a measure off the product form: its own
    ``mass_table`` and the method its class names.  Each centre passes
    ``_own_ball``."""
    if not hasattr(measure, "mass_table"):
        raise InputError(f"no ball-mass rule for measure type {type(measure).__name__}")
    return measure.mass_table([_own_ball(measure, space, method, c) for c in centers],
                              radii), measure.method


def _own_ball(measure, space: WeightedSeqSpace, method: str, center):
    """The check of every ball mass off the product form.  It refuses a
    forced method the measure lacks (Monte Carlo always, "exact" unless
    its masses are closed-form), a centre of another dimension and any
    norm but the measure's own: unweighted, of its ``dim`` (1 if it has
    none) and of its ``p`` where it names one.  Returns the centre, a
    float for a measure on the line, else an array of its ``dim``
    coordinates; it reads ``space``'s fields and builds no space."""
    name, dim, p = type(measure).__name__, getattr(measure, "dim", 1), getattr(measure, "p", None)
    if method == "mc":
        raise InputError(f"Monte Carlo ball masses need a product measure, not a {name}")
    if method == "exact" and measure.method != "closed-form":
        raise InputError(f"no exact ball mass for a {name}: its masses come from "
                         f"{measure.method}")
    # the weights must be dim ones: a list compares them faster than numpy
    if space.weights.tolist() != [1.0] * dim or (p is not None and space.p != p):
        raise InputError(f"a {name} takes balls of its own norm only, not {space}")
    c = np.asarray(center, dtype=float)
    if c.size != dim or c.ndim > 1:
        raise InputError(f"a {name} ball needs a centre in R^{dim}, got shape {c.shape}")
    return float(c.reshape(())) if dim == 1 else c


def _batch_mean_se(table: np.ndarray) -> tuple:
    """Mean mass and its standard error over the batches (last axis) of a
    log mass table; the error is 0 for one exact batch."""
    masses = np.exp(table)
    n = table.shape[-1]
    se = masses.std(axis=-1, ddof=1) / math.sqrt(n) if n > 1 else np.zeros(table.shape[:-1])
    return masses.mean(axis=-1), se


def _heaviest_centers(measure, space: WeightedSeqSpace) -> tuple:
    """``(centres, r_max)``: the points among which the heaviest ball of
    every radius below ``r_max`` is centred, by the product form or the
    measure's own ``heaviest_centers``; a measure with neither names none."""
    if not isinstance(measure, ProductMeasure):
        own = getattr(measure, "heaviest_centers", None)
        return own(space) if own is not None else ((), 0.0)
    # Anderson (1955): a centred product of symmetric log-concave factors
    # (normal, Laplace) gives a symmetric convex set its largest mass among
    # all translates.  A p < 1 ball is not convex, but in the coordinate
    # basis it is unconditional with interval sections, so Fubini and the
    # 1-d case cover it.
    if space.p >= 1 or measure.basis is None or measure.dim == 1:
        return (measure.mean,), math.inf
    return (), 0.0


def sup_ball_mass(measure, radius: float, space: Optional[WeightedSeqSpace] = None,
                  opts: Optional[RatioOpts] = None) -> Optional[BallMass]:
    """sup_z mu(B_radius(z)) where a rule gives it without a search, else None:
    the heaviest of the balls about the measure's heaviest centres, when the
    radius is below the reach of its rule."""
    space = space or default_space(measure)
    centres, r_max = _heaviest_centers(measure, space)
    if not _checked_radius(radius) < r_max:
        return None
    return max(_ball_masses(measure, centres, radius, space, opts), key=lambda m: m.estimate)


def sublevel_halfwidth(measure, t: float) -> np.ndarray:
    """Coordinate half-widths of the OM sublevel set {I <= t} of a product
    measure: the k-th entry is max |u_k| over the set.  The one-row case of
    its factor's ``sublevel_reach``, which ``gamma._halfwidths`` calls once
    per group of the equicoercivity probe's members that share a basis."""
    if not isinstance(measure, ProductMeasure):
        raise InputError(f"no sublevel half-width for measure type {type(measure).__name__}")
    # {I <= t} = m + B diag(scale) {g : sum_k |g_k|^p / p <= t}
    reach = measure.factor.sublevel_reach(measure.basis, measure.scale[None, :],
                                          measure.spread[None, :], t)
    return np.abs(measure.mean) + reach[0]


# ---------------------------------------------------------------------------
# ratio curves
# ---------------------------------------------------------------------------

def _exp_or_inf(v: float) -> float:
    """exp(v) as a float, +inf where it exceeds the largest float."""
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


def _log_mass_table(measure, centers: Sequence, radii: np.ndarray, space: WeightedSeqSpace,
                    opts, stream: str = "ratio-curve", settled=None) -> tuple:
    """Per-batch log masses, shape (n_centers, n_radii, n_batches), and
    their method.  Every ball mass of a product measure comes from here.

    Measures off the product form give one batch, the logs of their own
    masses (``_mass_table``).  A product measure gives one exact batch
    where ``_product_exact_log_mass`` covers the whole table (closed
    form, or a certified series: a certificate depends on
    the centre and the radius, so one row does not decide for the others)
    and ``opts.method`` is not "mc", else common-random-number Monte Carlo
    with every center on the same draws of ``opts.seed``'s ``stream``;
    "exact" refuses a table no exact rule covers.  Of the ``RatioOpts``
    only the method, Monte Carlo sizes, closure and seed are read.  A
    Monte Carlo table with ``settled``, called with the columns drawn so
    far and their draws per batch, draws its first batches in chunks and
    may stop at a chunk end of those or after a round of whole batches
    (``_mc_mass_batches``).
    """
    if radii.size == 0:
        raise InputError("the radius schedule is empty")
    if not np.all((radii > 0) & (radii < math.inf)) or np.any(np.diff(radii) >= 0):
        raise InputError("radii must be finite, positive and strictly decreasing")
    if not isinstance(measure, ProductMeasure):
        masses, method = _mass_table(measure, centers, radii, space, opts.method)
        with np.errstate(divide="ignore"):
            return np.log(masses)[:, :, None], method
    if space.dim != measure.dim:
        raise InputError(f"norm dimension {space.dim} differs from measure "
                         f"dimension {measure.dim}")
    centers = [_as_vector(c, space.dim) for c in centers]
    if opts.method != "mc":
        exact = _product_exact_log_mass(measure, centers, radii, space, opts.closed)
        if exact is not None:
            return exact[0][:, :, None], exact[1]
        if opts.method == "exact":
            raise InputError("no certified exact ball mass for this measure, norm and table")
    return (_mc_mass_batches(measure, centers, radii, space, opts.n_samples, opts.n_batches,
                             opts.seed, stream, opts.closed, settled), "monte-carlo")


def _ratio_curves(log_num: np.ndarray, log_den: np.ndarray, radii: np.ndarray,
                  opts: RatioOpts) -> dict:
    """Ratio curves of the rows of two log mass tables, (n, radii, batches)
    over (m, radii, batches), broadcast one over many or many over one:
    ``BallRatioEstimate``'s fields of every curve, ``ratios`` and
    ``stderr`` as (curves, radii) arrays and the rest as lists.

    A stderr is that of the per-batch ratios (0 for one exact batch), their
    spread taken relative to the ratio so that it cannot overflow.  A
    limit fits log(ratio) linearly against r (or sqrt r), or by a constant
    at one radius, over the smallest radii and reports the exponentiated
    intercept.  The curves share the design matrix, so one solve with a
    right-hand side per curve fits them all, bit for bit as one solve per
    curve for up to 7 radii in the fit window (from 8, LAPACK may round an
    intercept 1 ulp apart).  The intercept is linear in the log ratios, so
    its sd is exact: se_fit = sqrt(sum_i (P[0, i] se_i / y_i)^2) with P the
    fit's pseudoinverse.  The interval exp(c0 -+ (1.96 se_fit + 2
    se_model)) widens it by twice the rms fit residual for model error.
    Infinite or nonpositive ratios in the fit window give no fit, an
    exponent beyond the largest float reads +inf, and a denominator of
    zero mass is named, each in a diagnostic.

    ``settled`` marks the curves whose limit the draws can no longer move
    against its model error: over B >= 2 batches, every per-batch ratio in
    the fit window is finite and positive, and the batch-means stderr of
    the intercept, sd_b(P[0] . log r_b) / sqrt(B), is at most se_model / 4.
    A fit window of one radius never settles.
    """
    log1, log2 = _log_mean_exp(log_num), _log_mean_exp(log_den)
    outside = np.isneginf(log2)
    with np.errstate(invalid="ignore", over="ignore"):
        log_rb = log_num - log_den
        rb = np.where(np.isneginf(log_den), np.nan, np.exp(log_rb))
        ratios = np.where(outside, np.nan, np.exp(log1 - log2))
    count = np.sum(np.isfinite(rb), axis=-1)
    k = count > 1
    ses = np.zeros(count.shape)
    if k.any():  # an exact table has one batch
        scale = np.where((ratios > 0) & (ratios < np.inf), ratios, 1.0)[k]
        ses[k] = scale * np.nanstd(rb[k] / scale[:, None], axis=1, ddof=1) / np.sqrt(count[k])
        ses = np.nan_to_num(ses)

    n_fit = min(opts.fit_points, len(radii))
    idx = np.argsort(radii)[:n_fit]
    y, se = ratios[:, idx], ses[:, idx]
    good = np.all(np.isfinite(y) & (y > 0), axis=1)
    x = np.sqrt(radii[idx]) if opts.fit_in == "sqrt_r" else radii[idx]
    a = np.column_stack([np.ones_like(x), x])[:, :min(n_fit, 2)]
    logy = np.log(y[good])
    coef = np.linalg.lstsq(a, logy.T, rcond=None)[0]
    # a stack of matrix-vector products rounds as a one-curve fit does
    resid = logy - np.matmul(a, coef.T[:, :, None])[:, :, 0]
    se_model = np.sqrt(np.mean(resid ** 2, axis=1))
    p0 = np.linalg.lstsq(a, np.eye(n_fit), rcond=None)[0][0]
    se_fit = np.sqrt(np.sum((p0 * se[good] / y[good]) ** 2, axis=1))
    half = 1.96 * se_fit + 2.0 * se_model

    settled = np.zeros(len(y), dtype=bool)
    n_b = rb.shape[-1]
    if n_fit > 1 and n_b > 1:
        r_fit = rb[:, idx]
        ok = good & np.all((r_fit > 0) & (r_fit < np.inf), axis=(1, 2))
        intercepts = np.einsum("i,cib->cb", p0, log_rb[ok][:, idx])
        se_draws = np.std(intercepts, axis=1, ddof=1) / math.sqrt(n_b)
        settled[ok] = se_draws <= 0.25 * se_model[ok[good]]

    nan = float("nan")
    out = {"ratios": ratios, "stderr": ses, "extrapolated_limit": [nan] * len(y),
           "ci": [(nan, nan)] * len(y), "se_model": [nan] * len(y), "se_limit": [nan] * len(y),
           "diagnostic": [None] * len(y), "settled": settled.tolist()}
    for i in np.flatnonzero(~good):
        out["diagnostic"][i] = ("infinite-ratios-in-fit-window" if np.any(np.isposinf(y[i]))
                                else "nonpositive-ratios-in-fit-window")
    for i, c0, h, sf, sm in zip(np.flatnonzero(good), coef[0], half.tolist(), se_fit.tolist(),
                                se_model.tolist()):
        limit = _exp_or_inf(c0)
        ci = (_exp_or_inf(c0 - h), _exp_or_inf(c0 + h))
        if math.isinf(ci[1]):
            diagnostic = "limit-overflow" if math.isinf(limit) else "ci-upper-overflow"
        else:
            diagnostic = "single-radius-no-extrapolation" if n_fit == 1 else None
        out["extrapolated_limit"][i], out["ci"][i], out["diagnostic"][i] = limit, ci, diagnostic
        out["se_model"][i], out["se_limit"][i] = sm, limit * math.hypot(sf, sm)
    for i in np.flatnonzero(np.broadcast_to(np.any(outside, axis=1), len(y))):
        out["diagnostic"][i] = "x2 outside support"
    return out


def ball_ratio_curve(measure, x1, x2, radii, space: Optional[WeightedSeqSpace] = None,
                     opts: Optional[RatioOpts] = None) -> BallRatioEstimate:
    """Curve r -> mu(B_r(x1)) / mu(B_r(x2)) and its extrapolated limit.

    Masses are carried as logs and ratios formed from log differences,
    so they neither underflow nor overflow at high dimension.  A product
    measure's masses are exact where ``_product_exact_log_mass`` covers
    both centres (a Gaussian's weighted-l2 balls among them) and
    ``opts.method`` is not "mc"; else they come from common-random-number
    Monte Carlo: the same proposal draws enter the numerator and the
    denominator, so the curve for x1 == x2 is exactly 1.  ``method``
    names the rule: "closed-form", "series" or "monte-carlo".

    Monte Carlo extends its first ``_MC_MIN_BATCHES`` batches one chunk
    at a time, then draws whole batches in rounds of ``_MC_MIN_BATCHES``
    (``_mc_mass_batches``), and stops at the first chunk end or round
    whose B batches of m draws have settled the limit (``_ratio_curves``:
    the draws' stderr of the intercept is at most a quarter of the fit's
    rms residual), with ``opts.n_samples`` and ``opts.n_batches`` as the
    cap.  The curve is then the fit that settled it, bit for bit the
    curve of ``RatioOpts`` with ``n_batches`` = B and ``n_samples`` = 2mB,
    and ``n_samples`` on the estimate counts the evaluations it read, 2mB
    (0 for exact masses).
    """
    opts = opts or RatioOpts()
    radii = np.asarray(radii, dtype=float)
    space = space or default_space(measure)
    stop = {}

    def settled(table, draws):
        fit = _ratio_curves(table[:1], table[1:], radii, opts)
        if fit["settled"][0]:
            stop.update(fit=fit, n_samples=2 * draws * table.shape[-1])
        return fit["settled"][0]

    table, method = _log_mass_table(measure, [x1, x2], radii, space, opts, settled=settled)
    fit = stop.get("fit") or _ratio_curves(table[:1], table[1:], radii, opts)
    del fit["settled"]
    n_samples = 0
    if method == "monte-carlo":
        n_samples = stop.get("n_samples",
                             2 * ((opts.n_samples // opts.n_batches + 1) // 2) * table.shape[-1])
    return BallRatioEstimate(radii, method=method, fit_in=opts.fit_in, norm_p=space.p,
                             n_samples=n_samples, **{key: v[0] for key, v in fit.items()})


# ---------------------------------------------------------------------------
# JSON serialisation
# ---------------------------------------------------------------------------

#: name -> factory(**params) for the registered example measures
EXAMPLE_MEASURE_FACTORIES: dict = {}


def measure_from_json(obj: dict):
    kind = obj.get("type")
    if kind == "gaussian":
        eig = np.asarray(obj["eigenvalues"], dtype=float)
        basis = np.asarray(obj["basis"], dtype=float) if "basis" in obj else None
        return GaussianMeasure(mean=np.asarray(obj["mean"], dtype=float),
                               cov=SpectralOperator(eig, basis))
    if kind == "besov1":
        return BesovMeasure(s=float(obj["s"]), d=int(obj["d"]),
                            eta=float(obj["eta"]), dim=int(obj["dim"]))
    if kind == "density1d":
        name = obj.get("name")
        factory = EXAMPLE_MEASURE_FACTORIES.get(name)
        if factory is None:
            raise ParameterError(f"unknown registered measure name {name!r}")
        return _registered_measure(name, factory, obj.get("params", {}))
    raise ParameterError(f"unknown measure type {kind!r}")


def _registered_measure(name: str, factory, params: dict):
    """``factory(**params)``; the factory's keyword parameters are the
    fields a registered measure accepts, and those without a default
    are required."""
    allowed = inspect.signature(factory).parameters
    for key in params:
        if key not in allowed:
            raise ParameterError(f"unknown parameter {key!r} for registered measure {name!r}; "
                                 f"allowed: {', '.join(allowed)}")
    for key, param in allowed.items():
        if param.default is param.empty and key not in params:
            raise ParameterError(f"registered measure {name!r} needs parameter {key!r}")
    return factory(**params)
