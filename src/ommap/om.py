"""Onsager-Machlup functionals and mode classification.

An Onsager-Machlup functional assigns to each point of a measure's
effective domain a value whose differences are the negative logs of
small-ball mass-ratio limits; off the domain it is extended by +inf.
This module builds these functionals for product measures (Gaussian,
Besov-1) from their product form, and for generic 1-d measures
(``prior_om`` dispatches on the measure type), and provides
the empirical probes that tie them back to ball masses: difference
checks, vanishing-ratio (domain) checks, and strong/weak mode
classification.

All functional values are only meaningful up to an additive constant;
every check here compares differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, singledispatch
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.optimize import minimize

from .errors import InputError
from .measures import (BallOpts, BallRatioEstimate, BesovMeasure, Density1D, ProductMeasure,
                       RatioOpts, _ball_opts, _heaviest_center, _in_range, _log_mass_table,
                       _ratio_estimate, ball_mass, ball_ratio_curve, default_space,
                       sup_ball_mass)
from .spaces import WeightedSeqSpace, _as_vector


@dataclass
class OmFunctional:
    """Extended-real functional, +inf exactly off its effective domain.

    ``kernel`` maps the rows of an ``(n, k)`` array to their n values in
    (-inf, +inf]; every other reading derives from it.  The anchor is a
    reference point with finite value (the minimiser for the measures
    constructed here).
    """

    kernel: Callable[[np.ndarray], np.ndarray]
    anchor: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.anchor = np.atleast_1d(np.asarray(self.anchor, dtype=float))
        if not math.isfinite(self.eval(self.anchor)):
            raise InputError("anchor must have a finite functional value")

    def __call__(self, u) -> float:
        return self.eval(u)

    @cached_property
    def eval(self) -> Callable[[np.ndarray], float]:
        """The value at one point, the one-row case of ``kernel``.  Bound
        per instance, so one functional's evaluations can be wrapped."""
        kernel, dim = self.kernel, self.anchor.size
        return lambda u: float(kernel(_as_vector(np.atleast_1d(u), dim)[None, :])[0])

    def values(self, pts) -> np.ndarray:
        """Functional values at the rows of an ``(n, k)`` array."""
        pts = np.asarray(pts, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.anchor.size:
            raise InputError(f"expected an (n, {self.anchor.size}) array of points, "
                             f"got shape {pts.shape}")
        return self.kernel(pts)

    def domain_test(self, u) -> bool:
        """Whether u lies in the effective domain, where the value is finite."""
        return math.isfinite(self.eval(u))


@singledispatch
def prior_om(measure) -> OmFunctional:
    """The Onsager-Machlup functional of a measure, dispatched on its type;
    example measures register theirs where they are defined."""
    raise InputError(f"no OM functional for measure type {type(measure).__name__}")


@prior_om.register(ProductMeasure)
def _product_om(mu: ProductMeasure) -> OmFunctional:
    """The sum of the factors' negative log densities at the whitened eigen
    coordinates (u - mean) / scale, the OM functional of a product measure.

    For a Gaussian that is half the squared Cameron-Martin norm of
    u - mean, for Besov-1 the weighted l^1 norm sum_k |u_k| / gamma_k.
    The mean is the anchor and unique minimiser.  Off the domain
    (``measures._in_range``) the value is +inf.  ``meta`` is the
    measure's ``om_meta``.
    """
    mean, basis, pinned = mu.mean, mu.basis, mu.pinned
    centred = not np.any(mean)  # then the subtraction is skipped
    degenerate = bool(np.any(pinned))  # only then can a point leave the domain
    free = ~pinned
    inv_scale = 1.0 / mu.scale[free]
    neg_log_density = mu.factor.neg_log_density

    def kernel(pts: np.ndarray) -> np.ndarray:
        d = pts if centred else pts - mean
        c = d if basis is None else d @ basis
        if not degenerate:
            return neg_log_density(c, inv_scale)
        out = neg_log_density(c[:, free], inv_scale)
        out[~_in_range(c, pinned)] = math.inf
        return out

    return OmFunctional(kernel, mean, dict(mu.om_meta))


def besov_tail_bound(mu: BesovMeasure, coef_bound: float, decay: float) -> float:
    """Upper bound for the functional mass beyond the truncation.

    For coefficients dominated by coef_bound * k^(-decay), the tail
    sum_{k>K} |u_k|/gamma_k is at most coef_bound * integral_K^inf
    x^(s/d - 1/2 - decay) dx, finite iff the exponent is < -1.
    """
    a = mu.s / mu.d - 0.5 - decay
    if a >= -1:
        return math.inf
    return coef_bound * mu.dim ** (a + 1) / (-a - 1)


def density_om(measure: Density1D, anchor: float) -> OmFunctional:
    """Negative log density of a 1-d measure, up to an additive constant."""

    def value(x: float) -> float:
        p = measure.pdf(x)
        return -math.log(p) if p > 0 else math.inf

    return OmFunctional(lambda pts: np.array([value(float(x)) for x in pts[:, 0]]),
                        anchor, {"kind": "density1d"})


def posterior_om(prior_om: OmFunctional, phi) -> OmFunctional:
    """Add a real-valued potential ``phi``, any callable, to a prior
    functional, one point at a time.  The domain is unchanged."""

    def value(u: np.ndarray) -> float:
        base = prior_om.eval(u)
        return base if math.isinf(base) else base + float(phi(u))

    return OmFunctional(lambda pts: np.array([value(u) for u in pts]), prior_om.anchor,
                        {**prior_om.meta, "reweighted": True})


# ---------------------------------------------------------------------------
# probes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProbeOpts:
    abs_tol: float = 1e-2
    ratio: RatioOpts = field(default_factory=RatioOpts)


@dataclass(frozen=True)
class OmDifferenceReport:
    x1: np.ndarray
    x2: np.ndarray
    expected: float                # exp(I(x2) - I(x1))
    curve: BallRatioEstimate
    tolerance: float
    verdict: str                   # pass | fail | inconclusive

    def to_dict(self) -> dict:
        return {"expected": float(self.expected), "limit": float(self.curve.extrapolated_limit),
                "ci": [float(c) for c in self.curve.ci], "tolerance": float(self.tolerance),
                "verdict": self.verdict, "norm_p": self.curve.norm_p}


_WIDE_CI_FACTOR = 0.5  # CI halfwidth above this fraction of the target -> inconclusive


def om_difference_check(measure, om: OmFunctional, x1, x2, radii,
                        space: Optional[WeightedSeqSpace] = None,
                        opts: Optional[ProbeOpts] = None) -> OmDifferenceReport:
    """Check that the ball-ratio limit equals exp(I(x2) - I(x1))."""
    opts = opts or ProbeOpts()
    i1, i2 = om.eval(x1), om.eval(x2)
    if not (math.isfinite(i1) and math.isfinite(i2)):
        raise InputError("both points must lie in the functional's effective domain")
    expected = math.exp(i2 - i1)
    curve = ball_ratio_curve(measure, x1, x2, radii, space, opts.ratio)
    half = 0.5 * (curve.ci[1] - curve.ci[0])
    tol = half + opts.abs_tol
    diff = abs(curve.extrapolated_limit - expected)
    if not math.isfinite(curve.extrapolated_limit):
        verdict = "inconclusive"
    elif diff <= tol:
        verdict = "pass"
    elif half > _WIDE_CI_FACTOR * max(expected, 1e-12):
        verdict = "inconclusive"
    else:
        verdict = "fail"
    return OmDifferenceReport(np.atleast_1d(x1), np.atleast_1d(x2), expected, curve, tol, verdict)


@dataclass(frozen=True)
class MPropertyEntry:
    point: np.ndarray
    ratios: np.ndarray
    min_ratio: float
    decreasing_fraction: float
    verdict: str

    def to_dict(self) -> dict:
        return {"point": list(map(float, np.atleast_1d(self.point))),
                "ratios": list(map(float, self.ratios)),
                "min_ratio": float(self.min_ratio),
                "decreasing_fraction": float(self.decreasing_fraction),
                "verdict": self.verdict}


@dataclass(frozen=True)
class MPropertyReport:
    anchor: np.ndarray
    entries: list

    @property
    def all_pass(self) -> bool:
        return all(e.verdict == "pass" for e in self.entries)

    def to_dict(self) -> dict:
        return {"anchor": list(map(float, np.atleast_1d(self.anchor))),
                "entries": [e.to_dict() for e in self.entries],
                "all_pass": self.all_pass}


def m_property_probe(measure, om: OmFunctional, outside_points: Sequence, radii,
                     space: Optional[WeightedSeqSpace] = None,
                     opts: Optional[ProbeOpts] = None) -> MPropertyReport:
    """Check that ratio curves against the anchor vanish off the domain.

    For each point that fails the domain test, the curve
    mu(B_r(x)) / mu(B_r(anchor)) should trend down toward 0 over the
    radius schedule; the report records the smallest achieved ratio and
    the fraction of decreasing steps.  A functional whose meta carries
    ``finite_everywhere`` has no off-domain points, and is refused.
    """
    reason = om.meta.get("finite_everywhere")
    if reason:
        raise InputError(f"the {om.meta.get('kind', 'given')} functional is finite on all of "
                         f"R^{om.anchor.size} ({reason}), so the measure has no off-domain "
                         "points to probe")
    opts = opts or ProbeOpts()
    entries = []
    for x in outside_points:
        if om.domain_test(x):
            raise InputError(f"point {x!r} passes the domain test; probe expects outside points")
        curve = ball_ratio_curve(measure, x, om.anchor, radii, space, opts.ratio)
        ratios = np.nan_to_num(curve.ratios, nan=0.0)
        steps = np.diff(ratios)
        slack = 5.0 * np.maximum(curve.stderr[1:], curve.stderr[:-1])
        dec = float(np.mean(steps <= slack)) if len(steps) else 1.0
        min_ratio = float(np.min(ratios))
        start = max(ratios[0], 1e-300)
        ok = dec >= 0.8 and min_ratio <= 0.2 * start
        entries.append(MPropertyEntry(np.atleast_1d(x), ratios, min_ratio, dec,
                                      "pass" if ok else "fail"))
    return MPropertyReport(om.anchor, entries)


@dataclass(frozen=True)
class ModeClassification:
    """Three-valued strong/weak mode verdicts for one candidate point.

    The supremum mass M_r is the largest of the candidate's mass, the
    competitors' masses and the mass at the heaviest centre (a product
    measure's mean) or, where another measure has one, the closed-form
    ``sup_ball_mass`` rule.  Without either M_r comes from the competitor
    set plus an optional Nelder-Mead refinement, so a "yes" is relative
    to that approximation.  The caveat field names what was computed.
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

    def to_dict(self) -> dict:
        return {"candidate": list(map(float, np.atleast_1d(self.candidate))),
                "radii": list(map(float, self.radii)),
                "strong_ratio_curve": list(map(float, self.strong_ratio_curve)),
                "strong_ratio_stderr": list(map(float, self.strong_ratio_stderr)),
                "weak_worst_ratio": float(self.weak_worst_ratio),
                "strong": self.strong, "global_weak": self.global_weak,
                "norm_p": float(self.norm_p), "caveat": self.caveat}


@dataclass(frozen=True)
class ClassifyOpts:
    """Knobs for ``classify_mode``.

    ``ratio`` sets the Monte Carlo sizes, closure and seed of every mass.
    ``refine`` and ``nm_iters`` govern only the fallback for measures
    without a ``sup_ball_mass`` rule: a Nelder-Mead search of at most
    ``nm_iters`` iterations around the best competitor.
    """

    strong_tol: float = 0.05       # extrapolated limit >= 1 - tol -> strong yes
    dip_tol: float = 0.05          # curve below 1 - max(5 se, dip_tol) -> strong no
    weak_tol: float = 0.05
    refine: bool = True
    nm_iters: int = 50
    ratio: RatioOpts = field(default_factory=RatioOpts)


#: how classify_mode found the supremum mass M_r, one text per path
_ANDERSON_CAVEAT = "sup mass at the mean, the largest by Anderson's inequality"
_CLOSED_FORM_CAVEAT = "sup mass exact: closed-form maximum over the measure's components"
_SEARCH_CAVEAT = "sup over competitor set + Nelder-Mead refinement, not over all of X"
_COMPETITORS_CAVEAT = "sup over competitor set only, not over all of X"


def _refined_sup_mass(measure, best, r, space, bopts: BallOpts, nm_iters: int) -> float:
    """Nelder-Mead search for a larger ball mass, starting at the best competitor."""

    def neg_mass(w):
        return -ball_mass(measure, w, r, space, bopts).estimate

    res = minimize(neg_mass, best, method="Nelder-Mead",
                   options={"maxiter": nm_iters, "xatol": 1e-8, "fatol": 1e-12})
    return -float(res.fun)


def classify_mode(measure, candidate, competitor_set: Sequence, radii,
                  space: Optional[WeightedSeqSpace] = None,
                  opts: Optional[ClassifyOpts] = None) -> ModeClassification:
    """Strong and global-weak mode verdicts for a candidate point.

    Both read one mass table over the candidate and its competitors, the
    masses ``ball_ratio_curve`` computes.  Strong: the candidate's ball
    mass over the supremum mass M_r must tend to 1.  M_r is the largest
    mass in the table, which for a product measure also holds the row of
    the mean, the heaviest centre by Anderson's inequality (except for a
    rotated basis under p < 1), on the candidate's draws.  Other measures
    take ``sup_ball_mass`` where they have a rule, else the competitors
    and, with ``opts.refine``, a Nelder-Mead search.  Weak:
    no competitor's extrapolated mass-ratio limit against the candidate
    may exceed 1.  Verdicts are three-valued with noise-aware thresholds;
    a dip of the strong curve below 1 - max(5 stderr, dip_tol) at any
    radius is a "no" witness.
    """
    opts = opts or ClassifyOpts()
    space = space or default_space(measure)
    radii = np.asarray(radii, dtype=float)
    cand = _as_vector(candidate, space.dim)
    points = [cand] + [_as_vector(w, space.dim) for w in competitor_set]
    # the heaviest ball's centre joins the table as its last row, so its
    # mass shares the candidate's draws
    heaviest = _heaviest_center(measure, space)
    rows = points if heaviest is None else points + [heaviest]
    table, method = _log_mass_table(measure, rows, radii, space, opts.ratio)
    masses = np.exp(table)
    est, se = masses.mean(axis=2), np.zeros(table.shape[:2])
    if table.shape[2] > 1:  # Monte Carlo batches
        se = masses.std(axis=2, ddof=1) / math.sqrt(table.shape[2])
    cand_mass, cand_se = est[0], se[0]
    if np.any(cand_mass <= 0):
        raise InputError("candidate has zero ball mass; it must lie in the support")

    # supremum mass: the largest of the table's masses, with the heaviest
    # centre's row where it is known, else the rule or the search per radius
    best = np.argmax(est, axis=0)
    sup_mass, sup_se = est.max(axis=0), se[best, np.arange(len(radii))]
    if heaviest is not None:
        paths = [_ANDERSON_CAVEAT]
    else:
        bopts = _ball_opts(opts.ratio)
        paths = []
        for i, r in enumerate(radii):
            rule = sup_ball_mass(measure, float(r), space, bopts)
            if rule is not None:
                if rule.estimate > sup_mass[i]:
                    sup_mass[i], sup_se[i] = rule.estimate, rule.stderr
                paths.append(_CLOSED_FORM_CAVEAT)
            elif opts.refine:
                sup_mass[i] = max(sup_mass[i], _refined_sup_mass(
                    measure, points[best[i]], float(r), space, bopts, opts.nm_iters))
                paths.append(_SEARCH_CAVEAT)
            else:
                paths.append(_COMPETITORS_CAVEAT)

    strong_curve = cand_mass / sup_mass
    strong_se = strong_curve * np.sqrt((cand_se / cand_mass) ** 2 + (sup_se / sup_mass) ** 2)

    # strong verdict: a dip below the noise-aware threshold at any radius
    # is a witness against the limit being 1
    dip_thresh = 1.0 - np.maximum(5.0 * strong_se, opts.dip_tol)
    dipped = bool(np.any(strong_curve < dip_thresh))
    n_tail = min(3, len(radii))
    tail_limit = float(np.mean(strong_curve[-n_tail:]))  # radii are decreasing
    if dipped:
        strong = "no"
    elif tail_limit >= 1.0 - opts.strong_tol:
        strong = "yes"
    else:
        strong = "inconclusive"

    # weak verdict: worst extrapolated limsup over competitors; only the
    # fit window of smallest radii enters, so bumps pinned at a fixed
    # competitor-dependent radius do not masquerade as limsup mass
    window = slice(len(radii) - min(opts.ratio.fit_points, len(radii)), len(radii))
    worst = 0.0
    for j in range(1, len(points)):
        if np.array_equal(points[j], cand):
            continue
        curve = _ratio_estimate(table[j], table[0], radii, space, method, opts.ratio)
        vals = curve.ratios[window]
        vals = vals[np.isfinite(vals)]
        limsup_est = max(float(np.max(vals, initial=0.0)),
                         curve.extrapolated_limit if math.isfinite(curve.extrapolated_limit) else 0.0)
        worst = max(worst, limsup_est)
    if worst <= 1.0 + opts.weak_tol:
        weak = "yes"
    elif worst > 1.0 + max(opts.weak_tol, 5.0 * float(np.max(strong_se))):
        weak = "no"
    else:
        weak = "inconclusive"

    # a strong mode is always a global weak mode; reconcile contradictions
    if strong == "yes" and weak == "no":
        strong = "inconclusive"

    return ModeClassification(cand, radii, strong_curve, strong_se, worst,
                              strong, weak, space.p, "; ".join(dict.fromkeys(paths)))
