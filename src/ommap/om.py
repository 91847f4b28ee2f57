"""Onsager-Machlup functionals and mode classification.

An Onsager-Machlup functional assigns to each point of a measure's
effective domain a value whose differences are the negative logs of
small-ball mass-ratio limits; off the domain it is extended by +inf.
This module builds these functionals for product measures (Gaussian,
Besov-1) from their product form; ``prior_om`` takes any other
measure's from its own ``om_functional``.  It provides the empirical
probes that tie them back to ball masses: difference checks,
vanishing-ratio (domain) checks, and strong/weak mode classification,
whose supremum ball mass is the largest in one mass table over the
candidate, its competitors and the measure's heaviest centres.

All functional values are only meaningful up to an additive constant;
every check here compares differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import InputError
from .measures import (_FIT_POINTS, BallRatioEstimate, Density1D, ProductMeasure, RatioOpts,
                       _batch_mean_se, _fit_in, _heaviest_centers, _in_range, _log_mass_table,
                       _log_mean_exp, _ratio_curves, ball_ratio_curve, default_space)
from .spaces import WeightedSeqSpace, _as_vector


class _RowKernel:
    """The readings of a row kernel on R^dim, shared by functionals and
    potentials: ``kernel`` maps the rows of an ``(n, dim)`` array to their
    n values, ``values`` is its checked many-row case and ``eval`` its
    one-point case.  A kernel with a true ``_one_point`` attribute also
    maps one point of shape ``(dim,)`` to its value, bit for bit its
    one-row result (``_product_om``'s kernel does)."""

    @cached_property
    def eval(self) -> Callable[[np.ndarray], float]:
        """The value at one point: the kernel's at the checked point itself
        where it takes one point, else its one-row case; a 0-d value is
        read as a 1-vector.  Bound per instance, so one instance's
        evaluations can be wrapped."""
        kernel, dim = self.kernel, self.dim
        shape, direct = (dim,), getattr(kernel, "_one_point", False)

        def value(u) -> float:
            v = np.asarray(u, dtype=float)
            if v.shape != shape:  # _as_vector's checks and messages
                v = _as_vector(v.reshape(1) if v.ndim == 0 else v, dim)
            return float(kernel(v) if direct else kernel(v[None, :])[0])

        return value

    def values(self, pts) -> np.ndarray:
        """Values at the rows of an ``(n, dim)`` array."""
        pts = np.asarray(pts, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise InputError(f"expected an (n, {self.dim}) array of points, "
                             f"got shape {pts.shape}")
        return self.kernel(pts)


@dataclass
class OmFunctional(_RowKernel):
    """Extended-real functional, +inf exactly off its effective domain.

    ``kernel`` maps the rows of an ``(n, k)`` array to their n values in
    (-inf, +inf]; ``eval``, ``values`` and ``domain_test`` derive from it.
    A product measure's functional (``_product_om``) evaluates one point
    with the kernel itself (``ndarray.dot`` and einsum's C entry), bit
    for bit the one-row result; a many-row ``values`` call can still
    differ from ``eval`` on a row by 1 ulp, since BLAS orders a matrix
    product's sums differently for many rows than for one.  The anchor
    is a reference point with finite value (the minimiser for the
    measures constructed here).
    """

    kernel: Callable[[np.ndarray], np.ndarray]
    anchor: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.anchor = np.atleast_1d(np.asarray(self.anchor, dtype=float))
        if not math.isfinite(self.eval(self.anchor)):
            raise InputError("anchor must have a finite functional value")

    @property
    def dim(self) -> int:
        return self.anchor.size

    def domain_test(self, u) -> bool:
        """Whether u lies in the effective domain, where the value is finite."""
        return math.isfinite(self.eval(u))


def prior_om(measure) -> OmFunctional:
    """The Onsager-Machlup functional of a measure: a product measure's from
    its form (``_product_om``), any other's from its own ``om_functional``."""
    if isinstance(measure, ProductMeasure):
        return _product_om(measure)
    if not hasattr(measure, "om_functional"):
        raise InputError(f"no OM functional for measure type {type(measure).__name__}")
    return measure.om_functional()


def _product_om(mu: ProductMeasure) -> OmFunctional:
    """The sum of the factors' negative log densities at the whitened eigen
    coordinates (u - mean) / scale, the OM functional of a product measure.

    For a Gaussian that is half the squared Cameron-Martin norm of
    u - mean, for Besov-1 the weighted l^1 norm sum_k |u_k| / gamma_k.
    The mean is the anchor and unique minimiser.  Off the domain
    (``measures._in_range``) the value is +inf.  ``meta`` is the
    measure's ``om_meta``; where no coordinate is pinned there is no such
    point, and it carries ``finite_everywhere`` (the measure's own reason
    if it gives one).

    The kernel reads its points over the last axis, so ``eval`` calls it
    on one point of shape (k,), without the (1, k) copy: the change of
    basis is one ``ndarray.dot`` call and the Gaussian sum einsum's C
    entry, and they, like the norm, sum in the order of their one-row
    cases, bit for bit the one-row value.
    """
    mean, basis, pinned = mu.mean, mu.basis, mu.pinned
    centred = not np.any(mean)  # then the subtraction is skipped
    degenerate = bool(np.any(pinned))  # only then can a point leave the domain
    free = ~pinned
    inv_scale = 1.0 / mu.scale[free]
    neg_log_density = mu.factor.neg_log_density

    def kernel(pts: np.ndarray) -> np.ndarray:
        d = pts if centred else pts - mean
        c = d if basis is None else d.dot(basis)
        if not degenerate:
            return neg_log_density(c, inv_scale)
        return np.where(_in_range(c, pinned), neg_log_density(c[..., free], inv_scale), math.inf)

    kernel._one_point = True

    meta = dict(mu.om_meta)
    if not degenerate:
        meta.setdefault("finite_everywhere", "no eigen coordinate is degenerate")
    return OmFunctional(kernel, mean, meta)


def density_om(measure: Density1D, anchor: float) -> OmFunctional:
    """Negative log density of a 1-d measure, up to an additive constant."""

    def value(x: float) -> float:
        p = measure.pdf(x)
        return -math.log(p) if p > 0 else math.inf

    return OmFunctional(lambda pts: np.array([value(float(x)) for x in pts[:, 0]]),
                        anchor, {"kind": "density1d"})


def posterior_om(prior_om: OmFunctional, pot) -> OmFunctional:
    """The posterior functional I + Phi of a prior functional I and a
    potential Phi (a ``bip.Potential``), itself a row kernel: the
    potential's kernel is added on the rows where the prior's value is
    finite, and is not called on the others, which stay +inf.  The domain
    is the prior's."""
    if pot.dim != prior_om.dim:
        raise InputError(f"a potential on R^{pot.dim} and a functional on "
                         f"R^{prior_om.dim} do not add")
    base, phi = prior_om.kernel, pot.kernel

    def kernel(pts: np.ndarray) -> np.ndarray:
        vals = base(pts)
        on = np.isfinite(vals)
        if on.all():
            return vals + phi(pts)
        out = np.array(vals, dtype=float)
        if on.any():
            out[on] += phi(pts[on])
        return out

    return OmFunctional(kernel, prior_om.anchor, dict(prior_om.meta))


# ---------------------------------------------------------------------------
# probes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OmDifferenceReport:
    x1: np.ndarray
    x2: np.ndarray
    expected: float                # exp(I(x2) - I(x1))
    curve: BallRatioEstimate
    tolerance: float
    verdict: str                   # pass | fail | inconclusive
    note: str = ""


_WIDE_CI_FACTOR = 0.5  # CI halfwidth above this fraction of the target -> inconclusive


def om_difference_check(measure, om: OmFunctional, x1, x2, radii,
                        space: Optional[WeightedSeqSpace] = None,
                        opts: Optional[RatioOpts] = None,
                        abs_tol: float = 1e-2) -> OmDifferenceReport:
    """Check that the ball-ratio limit equals exp(I(x2) - I(x1)), within
    the half-width of the curve's interval plus ``abs_tol``.  A limit that
    is not finite, or an interval too wide to tell, is inconclusive, with
    its reason in ``note``."""
    i1, i2 = om.eval(x1), om.eval(x2)
    if not (math.isfinite(i1) and math.isfinite(i2)):
        raise InputError("both points must lie in the functional's effective domain")
    expected = math.exp(i2 - i1)
    curve = ball_ratio_curve(measure, x1, x2, radii, space, opts)
    half = 0.5 * (curve.ci[1] - curve.ci[0])
    tol = half + abs_tol
    diff = abs(curve.extrapolated_limit - expected)
    note = ""
    if not math.isfinite(curve.extrapolated_limit):
        verdict, note = "inconclusive", "the ratio curve's limit is not finite"
    elif diff <= tol:
        verdict = "pass"
    elif half > _WIDE_CI_FACTOR * max(expected, 1e-12):
        verdict, note = "inconclusive", (f"interval half-width {half:.3g} above "
                                         f"{_WIDE_CI_FACTOR:g} times the target {expected:.3g}")
    else:
        verdict = "fail"
    return OmDifferenceReport(np.atleast_1d(x1), np.atleast_1d(x2), expected, curve, tol,
                              verdict, note)


@dataclass(frozen=True)
class MPropertyEntry:
    point: np.ndarray
    ratios: np.ndarray
    min_ratio: float
    decreasing_fraction: float
    verdict: str


@dataclass(frozen=True)
class MPropertyReport:
    anchor: np.ndarray
    entries: list
    all_pass: bool = field(init=False)

    def __post_init__(self):
        from .gamma import fold_verdicts  # gamma imports this module
        object.__setattr__(self, "all_pass",
                           fold_verdicts(e.verdict for e in self.entries) == "pass")


def m_property_probe(measure, om: OmFunctional, outside_points: Sequence, radii,
                     space: Optional[WeightedSeqSpace] = None,
                     opts: Optional[RatioOpts] = None) -> MPropertyReport:
    """Check that ratio curves against the anchor vanish off the domain.

    For each point that fails the domain test, the curve
    mu(B_r(x)) / mu(B_r(anchor)) should trend down toward 0 over the
    radius schedule; the report records the smallest achieved ratio and
    the fraction of decreasing steps.  Every point is tested before any
    mass is computed.  The curves read one mass table over the anchor and
    the points, the masses ``ball_ratio_curve`` computes with the same
    ``opts``: Monte Carlo draws once for all of them, and one solve fits
    them all.  A functional whose meta carries ``finite_everywhere`` has
    no off-domain points, and is refused, as is an empty point list.
    """
    reason = om.meta.get("finite_everywhere")
    if reason:
        raise InputError(f"the {om.meta.get('kind', 'given')} functional is finite on all of "
                         f"R^{om.anchor.size} ({reason}), so the measure has no off-domain "
                         "points to probe")
    opts = opts or RatioOpts()
    points = list(outside_points)
    if not points:
        raise InputError("outside_points is empty: the probe needs at least one point")
    for x in points:
        if om.domain_test(x):
            raise InputError(f"point {x!r} passes the domain test; probe expects outside points")
    space = space or default_space(measure)
    radii = np.asarray(radii, dtype=float)
    table, _ = _log_mass_table(measure, [om.anchor, *points], radii, space, opts)
    curves = _ratio_curves(table[1:], table[:1], radii, _fit_in(measure))
    ratios, stderr = np.nan_to_num(curves["ratios"], nan=0.0), curves["stderr"]
    slack = 5.0 * np.maximum(stderr[:, 1:], stderr[:, :-1])
    dec = np.mean(np.diff(ratios) <= slack, axis=1) if len(radii) > 1 else np.ones(len(points))
    min_ratio = np.min(ratios, axis=1)
    ok = (dec >= 0.8) & (min_ratio <= 0.2 * np.maximum(ratios[:, 0], 1e-300))
    entries = [MPropertyEntry(np.atleast_1d(x), row, float(m), float(d), "pass" if o else "fail")
               for x, row, m, d, o in zip(points, ratios, min_ratio, dec, ok)]
    return MPropertyReport(om.anchor, entries)


@dataclass(frozen=True)
class ModeClassification:
    """Three-valued strong/weak mode verdicts for one candidate point.

    The supremum mass M_r is the largest mass over the candidate, the
    competitors and the measure's heaviest centres.  It is exact at the
    radii below the reach of the centres' rule; elsewhere, and for
    measures without a rule, it is the largest over the competitor set,
    so a "yes" is relative to that set.  The caveat field says which,
    radius by radius.
    """

    candidate: np.ndarray
    radii: np.ndarray
    strong_ratio_curve: np.ndarray
    strong_ratio_stderr: np.ndarray
    weak_worst_ratio: float
    strong: str
    global_weak: str
    norm_p: float
    caveat: str


_STRONG_TOL = 0.05  # tail of the strong curve >= 1 - tol -> strong yes
_DIP_TOL = 0.05     # strong curve below 1 - max(5 se, tol) at any radius -> strong no
_WEAK_TOL = 0.05    # worst competitor limit <= 1 + tol -> weak yes

#: where classify_mode's supremum mass M_r is exact, and where it is not
_EXACT_CAVEAT = "sup mass exact: the largest over the measure's heaviest centres"
_COMPETITORS_CAVEAT = "sup over competitor set only, not over all of X"


def classify_mode(measure, candidate, competitor_set: Sequence, radii,
                  space: Optional[WeightedSeqSpace] = None,
                  opts: Optional[RatioOpts] = None) -> ModeClassification:
    """Strong and global-weak mode verdicts for a candidate point.

    Both read one mass table over the candidate and its competitors, the
    masses ``ball_ratio_curve`` computes.  Strong: the candidate's ball
    mass over the supremum mass M_r must tend to 1.  M_r is the largest
    mass in the table, whose last rows are the measure's heaviest centres
    (``measures._heaviest_centers``: a product measure's mean by
    Anderson's inequality, those a counterexample's ``heaviest_centers``
    names), on the candidate's draws.  Below the reach of that rule
    M_r is exact; elsewhere it is the largest over the competitors, so a
    caller who needs more passes a grid of them.  Weak: no competitor's
    extrapolated mass-ratio limit against the candidate may exceed 1; one
    solve fits the curve of every competitor but the candidate itself.

    ``opts`` sets the method, Monte Carlo sizes, closure and seed of
    every mass.  Verdicts are three-valued with noise-aware thresholds; a
    dip of the strong curve below 1 - max(5 stderr, ``_DIP_TOL``) at any
    radius is a "no" witness.  With no competitor and no radius below the rule's
    reach, the table holds the candidate's row alone, and strong reads
    "inconclusive".
    """
    opts = opts or RatioOpts()
    space = space or default_space(measure)
    radii = np.asarray(radii, dtype=float)
    cand = _as_vector(candidate, space.dim)
    points = np.array([cand] + [_as_vector(w, space.dim) for w in competitor_set])
    centres, r_max = _heaviest_centers(measure, space)
    centres = np.array([_as_vector(c, space.dim) for c in centres]).reshape(-1, space.dim)
    # the heaviest centres that are not among the points
    new = ~np.any(np.all(centres[:, None] == points[None], axis=2), axis=1)
    rows = np.concatenate([points, centres[new]])
    table, _ = _log_mass_table(measure, rows, radii, space, opts)
    log_mass = _log_mean_exp(table)
    if np.any(np.isneginf(log_mass[0])):
        raise InputError("candidate has zero ball mass; it must lie in the support")

    # from log masses: at high dimension the masses themselves underflow.
    # Each row's batches over its own mean give its relative stderr
    own = np.where(np.isfinite(log_mass), log_mass, 0.0)
    est, se = _batch_mean_se(table - own[:, :, None])
    rel_se = np.divide(se, est, out=np.zeros_like(se), where=est > 0)
    best = np.argmax(log_mass, axis=0)
    cols = np.arange(len(radii))
    caveats = [_EXACT_CAVEAT if r < r_max else _COMPETITORS_CAVEAT for r in radii]

    strong_curve = np.exp(log_mass[0] - log_mass[best, cols])
    strong_se = strong_curve * np.hypot(rel_se[0], rel_se[best, cols])

    # strong verdict: a dip below the noise-aware threshold at any radius
    # is a witness against the limit being 1
    dip_thresh = 1.0 - np.maximum(5.0 * strong_se, _DIP_TOL)
    dipped = bool(np.any(strong_curve < dip_thresh))
    n_tail = min(3, len(radii))
    tail_limit = float(np.mean(strong_curve[-n_tail:]))  # radii are decreasing
    if dipped:
        strong = "no"
    elif len(rows) == 1 and not np.any(radii < r_max):
        strong = "inconclusive"  # M_r is the candidate's own mass: the curve is 1
    elif tail_limit >= 1.0 - _STRONG_TOL:
        strong = "yes"
    else:
        strong = "inconclusive"

    # weak verdict: worst extrapolated limsup over competitors; only the
    # fit window of smallest radii enters, so bumps pinned at a fixed
    # competitor-dependent radius do not masquerade as limsup mass
    window = slice(len(radii) - min(_FIT_POINTS, len(radii)), len(radii))
    others = ~np.all(points[1:] == cand, axis=1)
    curves = _ratio_curves(table[1:len(points)][others], table[:1], radii, _fit_in(measure))
    vals = np.column_stack([curves["ratios"][:, window], curves["extrapolated_limit"]])
    worst = float(np.max(vals, where=np.isfinite(vals), initial=0.0))
    if worst <= 1.0 + _WEAK_TOL:
        weak = "yes"
    elif worst > 1.0 + max(_WEAK_TOL, 5.0 * float(np.max(strong_se))):
        weak = "no"
    else:
        weak = "inconclusive"

    # a strong mode is always a global weak mode; reconcile contradictions
    if strong == "yes" and weak == "no":
        strong = "inconclusive"

    return ModeClassification(cand, radii, strong_curve, strong_se, worst,
                              strong, weak, space.p, "; ".join(dict.fromkeys(caveats)))
