"""Closed-form example measures with exact ball masses.

These constructions serve as ground-truth oracles for the rest of the
package: every quantity here has a closed form (interval masses, modes,
divergences), so probe machinery can be validated against them.

Included:

* a 1-d Gaussian pair with the same mode at every variance ratio but
  divergent relative entropy;
* a two-bump Gaussian mixture whose mode jumps between the bumps under
  arbitrarily small density perturbations;
* a spike family converging pointwise to a unit Gaussian while its
  modes escape to 0;
* a dyadic piecewise-constant measure whose ball-mass ratios oscillate
  (limsup 2, liminf 0), so the vanishing-ratio condition holds only in
  liminf form;
* a singular-spike measure on the integers whose functional minimiser
  is a global weak mode but not a strong mode;
* uniform length measure on two crosses, where switching between the
  1-norm and the sup-norm flips the mode.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import InputError, ParameterError, RegimeError
from .measures import (Density1D, EXAMPLE_MEASURE_FACTORIES, RatioOpts, WeightedSeqSpace,
                       _checked_radius, _fit_in, _log_mass_table, _ratio_curves, _table_axes,
                       default_space, radius_schedule)
from .om import OmFunctional

SQRT_2PI = math.sqrt(2.0 * math.pi)


# ---------------------------------------------------------------------------
# (a) same mode, divergent relative entropy
# ---------------------------------------------------------------------------

def kl_gaussians(sigma: float) -> float:
    """Relative entropy of N(0,1) with respect to N(0, sigma).

    Closed form (1/sigma - 1 + log sigma) / 2; diverges as sigma -> 0
    or sigma -> inf even though both measures keep their mode at 0.
    """
    if not (sigma > 0):
        raise InputError(f"variance ratio must be positive, got {sigma}")
    return (1.0 / sigma - 1.0 + math.log(sigma)) / 2.0


def kl_gaussians_quadrature(sigma: float) -> float:
    """Quadrature of the defining integral rho_1 log(rho_1 / rho_sigma).

    The log ratio is expanded analytically so the integrand stays
    finite in the tails.
    """
    from scipy.integrate import quad

    if not (sigma > 0):
        raise InputError(f"variance ratio must be positive, got {sigma}")

    def integrand(x):
        return (math.exp(-0.5 * x * x) / SQRT_2PI
                * (-0.5 * x * x + x * x / (2.0 * sigma) + 0.5 * math.log(sigma)))

    return quad(integrand, -np.inf, np.inf, epsabs=1e-12, limit=200)[0]


def kl_quadrature_1d(p, q, breakpoints: Sequence[float]) -> float:
    """Generic 1-d relative entropy by piecewise adaptive quadrature."""
    from scipy.integrate import quad

    def integrand(x):
        px = p(x)
        if px <= 0:
            return 0.0
        return px * math.log(px / q(x))

    pts = sorted(breakpoints)
    return sum(quad(integrand, a, b, epsabs=1e-13, limit=300)[0]
               for a, b in zip(pts[:-1], pts[1:]))


# ---------------------------------------------------------------------------
# (b) mixture family: tiny density perturbations flip the mode
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MixtureFamily:
    """Two Gaussian bumps at +-r with masses weighted by (1 +- t) / 2."""

    t: float
    r: float = 5.0

    def __post_init__(self):
        if not (-1.0 < self.t < 1.0):
            raise ParameterError(f"mixture tilt must lie in (-1, 1), got {self.t}")
        if self.r < 3.0:
            warnings.warn("bump separation below 3: the two local maximisers may merge",
                          stacklevel=2)

    def density(self, x):
        """Density at a float, without a detour through a 0-d array (the
        quadratures and mode searches call it once per point), or
        elementwise on an ndarray."""
        du, dd = x - self.r, x + self.r
        up = (1.0 + self.t) * np.exp(-0.5 * (du * du))
        down = (1.0 - self.t) * np.exp(-0.5 * (dd * dd))
        return (up + down) / (2.0 * SQRT_2PI)


@dataclass(frozen=True)
class ModeSearch1D:
    mode: float
    local_maxima: tuple


def _polish_max(f, lo: float, hi: float) -> float:
    from scipy.optimize import minimize_scalar

    res = minimize_scalar(lambda x: -f(x), bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-12})
    return float(res.x)


def mixture_modes(t: float, r: float = 5.0) -> ModeSearch1D:
    """Global and local maximisers of the mixture density.

    For separated bumps there is one local maximiser near each of +-r;
    the sign of t decides which one is the global mode.
    """
    fam = MixtureFamily(t, r)
    f = lambda x: float(fam.density(x))
    locs = [_polish_max(f, 0.0, r + 6.0), _polish_max(f, -r - 6.0, 0.0)]
    locs.sort()
    mode = max(locs, key=f)
    return ModeSearch1D(mode=mode, local_maxima=tuple(locs))


def mixture_kl(t: float, r: float = 5.0) -> float:
    """Relative entropy between the +t and -t mixtures, by quadrature."""
    fam_p, fam_m = MixtureFamily(t, r), MixtureFamily(-t, r)
    return kl_quadrature_1d(lambda x: float(fam_p.density(x)),
                            lambda x: float(fam_m.density(x)),
                            [-r - 12.0, 0.0, r + 12.0])


def mixture_kl_exponent(ts: Sequence[float], r: float = 5.0):
    """Fitted log-log slope of t -> KL(mu_t || mu_-t), with the values."""
    ts = np.asarray(ts, dtype=float)
    if np.unique(ts).size < 2 or not np.all((ts > 0) & (ts < 1)):
        raise ParameterError(f"kl_t_values needs two or more distinct tilts, all in (0, 1), "
                             f"got {ts.tolist()}")
    kls = np.array([mixture_kl(float(t), r) for t in ts])
    slope = float(np.polyfit(np.log(ts), np.log(kls), 1)[0])
    return slope, kls


# ---------------------------------------------------------------------------
# (c) spike family: pointwise convergence without mode convergence
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpikeFamily:
    """Unit Gaussian at 1 plus a 1/n-scale spike at the origin.

    Density proportional to exp(-(x-1)^2/2) + [x >= 0] 4 n^2 x^2
    exp(-n^2 x^2); the normaliser is sqrt(2 pi) + sqrt(pi)/n.  As
    n -> inf the densities converge pointwise (not uniformly) to
    N(1, 1), yet each member's mode sits near 1/n.  The relative entropy
    of the limit with respect to member n vanishes at rate 1/n:
    n KL = C - O(1/n), with C ~= 0.28515 as given in `spike_kl`.
    """

    n: float  # positive integer or math.inf

    def __post_init__(self):
        if self.n != math.inf and (self.n < 1 or int(self.n) != self.n):
            raise ParameterError(f"spike index must be a positive integer or inf, got {self.n}")

    def density(self, x):
        """Density at a float or an ndarray of points, as ``MixtureFamily``'s."""
        d = x - 1.0
        g = np.exp(-0.5 * (d * d))
        if self.n == math.inf:
            return g / SQRT_2PI
        n = float(self.n)
        nx = n * x
        s = 4.0 * n * n * x * x * np.exp(-(nx * nx)) * (x >= 0)
        return (g + s) / (SQRT_2PI + math.sqrt(math.pi) / n)


def spike_mode(n) -> float:
    """Global maximiser of the spike density; exactly 1 for n = inf."""
    fam = SpikeFamily(n)
    if n == math.inf:
        return 1.0
    f = lambda x: float(fam.density(x))
    near_spike = _polish_max(f, 0.0, 3.0 / n)
    near_gauss = _polish_max(f, 0.5, 2.0)
    return max(near_spike, near_gauss, key=f)


def spike_kl(n: int) -> float:
    """Relative entropy of the Gaussian limit with respect to member n.

    Asymptotically n KL = C - O(1/n), the O(1/n) term being about 0.40/n:

        C = 1/sqrt(2) - (exp(-1/2)/sqrt(2 pi)) int_0^inf log(1 + 4 y^2 exp(1/2 - y^2)) dy
          ~= 0.28515.

    The normaliser contributes log(1 + 1/(n sqrt 2)), and with x = y/n the
    spike 4 y^2 exp(-y^2) meets the limit density at height exp(-1/2)/sqrt(2 pi).
    """
    if n == math.inf or n < 1:
        raise InputError("spike divergence needs a finite member index")
    lim, fam = SpikeFamily(math.inf), SpikeFamily(n)
    brk = [-12.0, 0.0, 0.5 / n, 1.0 / n, 2.0 / n, 4.0 / n, 1.0, 14.0]
    return kl_quadrature_1d(lambda x: float(lim.density(x)),
                            lambda x: float(fam.density(x)), brk)


# ---------------------------------------------------------------------------
# (d) oscillating ball-ratio measure (liminf-only vanishing)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LiminfOnlyMeasure:
    """Piecewise-constant dyadic measure around the points -1 and +1.

    Level n carries mass a_n - a_{n+1} at height 2^n on an interval just
    right of -1, and mass b_n - b_{n+1} just left of +1.  In the
    standard variant a_n = 2^(-(n-1)(n+6)/2) and b_n = a_n / 2, which
    makes ball-mass ratios of -1 against +1 oscillate: exactly 2 along
    the radii 2 alpha_n, and 2^(-n-2) -> 0 along the radii alpha_n
    (alpha_n is the level-n interval width).  The extreme variant uses
    a_n = 2^(-n(n-1)) and b_n = a_n / 2^n, for which the same two radius
    sequences give 2^n (diverging) and 2^(-n) (vanishing).

    All masses are finite sums of dyadic terms; they are evaluated in
    offset coordinates relative to the anchor points, so no precision
    is lost to the 1 +- tiny representation gap.
    """

    depth: int = 40
    variant: str = "standard"

    method = "closed-form"  # how ``mass_table`` is computed; a class constant, not a field

    def __post_init__(self):
        if self.variant not in ("standard", "extreme"):
            raise ParameterError("variant must be 'standard' or 'extreme'")
        max_depth = 42 if self.variant == "standard" else 31
        if not (2 <= self.depth <= max_depth):
            raise ParameterError(f"depth must lie in [2, {max_depth}] for this variant")
        for w in (self.widths_neg, self.widths_pos):
            if np.any(w <= 0) or np.any(w[:-1] <= 2.0 * w[1:]):
                raise ParameterError("interval widths must decrease by more than a factor 2")

    def a(self, n: int) -> float:
        e = (n - 1) * (n + 6) // 2 if self.variant == "standard" else n * (n - 1)
        return math.ldexp(1.0, -e)

    def b(self, n: int) -> float:
        return math.ldexp(self.a(n), -1 if self.variant == "standard" else -n)

    @cached_property
    def widths_neg(self) -> np.ndarray:
        """Level widths right of -1: 2^(-n) (a_n - a_{n+1})."""
        return np.array([math.ldexp(self.a(n) - self.a(n + 1), -n)
                         for n in range(1, self.depth + 1)])

    @cached_property
    def widths_pos(self) -> np.ndarray:
        """Level widths left of +1: 2^(-n) (b_n - b_{n+1})."""
        return np.array([math.ldexp(self.b(n) - self.b(n + 1), -n)
                         for n in range(1, self.depth + 1)])

    def delta_radius(self, n: int) -> float:
        return float(self.widths_neg[n - 1])

    def intervals(self):
        """(level, side, lo_offset, hi_offset, height) entries; offsets
        are measured rightward from -1 and leftward from +1."""
        out = []
        for n in range(1, self.depth + 1):
            h = math.ldexp(1.0, n)
            wn = self.widths_neg[n - 1]
            wp = self.widths_pos[n - 1]
            out.append((n, -1, wn, 2.0 * wn, h))
            out.append((n, +1, wp, 2.0 * wp, h))
        return out

    @cached_property
    def _interval_array(self) -> np.ndarray:
        """``intervals`` as rows of an array, built once per measure."""
        return np.array(self.intervals())

    def mass_table(self, centers, radii) -> np.ndarray:
        """Masses of the balls B_r(c), shape (len(centers), len(radii)), via
        interval overlaps in offset coordinates.

        Offsets c +- 1 are exact for centres within 0.5 of the anchors
        (Sterbenz); the measure is atomless, so open and closed balls have
        equal mass.  Every ball adds up its overlaps interval by interval,
        in the order of ``intervals``, a missed interval adding 0.0.
        """
        c, r = _table_axes(self, centers, radii)
        _, side, lo, hi, h = self._interval_array.T[:, :, None, None]
        off = np.where(side < 0, c + 1.0, 1.0 - c)
        overlap = np.minimum(hi, off + r) - np.maximum(lo, off - r)
        return np.add.accumulate(np.where(overlap > 0, h * overlap, 0.0))[-1]

    def om_functional(self) -> OmFunctional:
        """Functional with the single domain point +1, against which the
        vanishing-ratio probe compares every other point."""
        return OmFunctional(lambda pts: np.where(np.abs(pts[:, 0] - 1.0) < 1e-12, 0.0, math.inf),
                            np.array([1.0]))


def liminf_only_ratios(measure: LiminfOnlyMeasure, n_max: int):
    """The two oscillating ratio sequences, exact in dyadic arithmetic.

    Returns mu(B(-1, 2 alpha_n)) / mu(B(+1, 2 alpha_n)) and
    mu(B(-1, alpha_n)) / mu(B(+1, alpha_n)) for n = 1..n_max; in the
    standard variant these are exactly 2 and exactly 2^(-n-2).  Masses
    telescope to truncated dyadic sums a_k - a_(depth+1) (resp. b); at
    radius 2 alpha_n every level >= n lies inside the ball, while at
    radius alpha_n the level-n interval on the negative side only
    touches the ball boundary, dropping the ratio.  All quantities are
    dyadic with exponent gaps beyond double precision, so the float
    quotients below equal the exact values.
    """
    if n_max > measure.depth - 2:
        raise InputError("n_max must leave two spare levels below the truncation depth")
    tail_a = measure.a(measure.depth + 1)
    tail_b = measure.b(measure.depth + 1)
    eps, delta = [], []
    for n in range(1, n_max + 1):
        den = measure.b(n) - tail_b
        eps.append((measure.a(n) - tail_a) / den)
        delta.append((measure.a(n + 1) - tail_a) / den)
    return np.array(eps), np.array(delta)


# ---------------------------------------------------------------------------
# (e) functional minimiser that is not a strong mode
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OmNotStrongMeasure:
    """Integrable |x|^(-1/2) spikes at the integers plus thin plateaus.

    Component k (for k = 1..levels) is the base spike shape
    (|x|^(-1/2) - 2)/4 on [-1/4, 1/4], translated to k and scaled by
    1/k^2, plus a plateau of height k^2 and half-width 1/(2 k^4).  Ball
    masses around integers are k^(-2) (sqrt(r) - r) + 2 r k^2 for small
    r, so mass ratios against u = 1 tend to k^2, while at the special
    radii 1/(2 n^4) the plateau of component n beats u = 1 by a factor
    approaching sqrt(2).
    """

    levels: int = 30

    method = "closed-form"  # how ``mass_table`` is computed
    # ratio curves fit against sqrt(r): the masses about the integers go like sqrt(r)
    fit_in = "sqrt_r"

    def __post_init__(self):
        if self.levels < 2:
            raise ParameterError("need at least two components")

    #: normalisation of the untruncated density; kept symbolic so that
    #: all reported quantities stay ratios of unnormalised masses
    @property
    def norm_constant(self) -> float:
        return 24.0 / (5.0 * math.pi ** 2)

    @staticmethod
    def _spike_primitive(t):
        """Odd primitive of the base spike shape: integral over [0, t]."""
        a = np.minimum(np.abs(t), 0.25)
        return np.copysign((np.sqrt(a) - a) / 2.0, t)

    def component_mass(self, k, lo, hi):
        """Unnormalised mass of component k on [k + lo, k + hi]: the ends are
        offsets from k, so a small interval near k keeps its exact width.
        Numbers or arrays of one shape."""
        k2 = k * k
        w = 0.5 / (k2 * k2)
        spike = (self._spike_primitive(hi) - self._spike_primitive(lo)) / k2
        plateau = k2 * np.maximum(0.0, np.minimum(hi, w) - np.maximum(lo, -w))
        return spike + plateau

    def mass_table(self, centers, radii) -> np.ndarray:
        """Normalised masses of the balls B_r(c), shape (len(centers),
        len(radii)), in closed form, exact for the truncation.

        Component k lies in [k - 1/2, k + 1/2], so a ball adds up the
        components k_lo..k_hi it meets, in increasing k; the others would
        add exactly 0.0.
        """
        c, r = _table_axes(self, centers, radii)
        # k_lo stops at levels + 1, where a ball meets no component: k stays finite
        k_lo = np.minimum(np.maximum(1.0, np.ceil(c - r - 0.5)), self.levels + 1.0)
        count = np.minimum(self.levels, np.floor(c + r + 0.5)) - k_lo + 1.0
        raw = np.zeros(k_lo.shape)
        for j in range(int(count.max(initial=0.0))):
            k = k_lo + j
            raw = np.where(j < count, raw + self.component_mass(k, (c - k) - r, (c - k) + r),
                           raw)
        return self.norm_constant * raw

    def density(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for k in range(1, self.levels + 1):
            t = x - k
            # float_power takes libm's pow on arrays as on scalars (the SIMD
            # ``**`` can differ by an ulp, which the - 2 amplifies near |t| = 1/4)
            spike = np.where((np.abs(t) <= 0.25) & (t != 0),
                             0.25 * (np.float_power(np.abs(t), -0.5) - 2.0), 0.0) / k ** 2
            plateau = np.where(np.abs(t) <= 0.5 / k ** 4, float(k ** 2), 0.0)
            out += spike + plateau
        return self.norm_constant * out

    def om_functional(self) -> OmFunctional:
        """2 log k at the integers k = 1..levels, anchored at 1; +inf elsewhere."""
        def value(x: float) -> float:
            k = round(x)
            return 2.0 * math.log(k) if abs(x - k) <= 1e-9 and 1 <= k <= self.levels else math.inf

        return OmFunctional(lambda pts: np.array([value(float(x)) for x in pts[:, 0]]),
                            np.array([1.0]), {"kind": "om-not-strong"})

    def heaviest_centers(self, space) -> tuple:
        """The integers 1..levels, for r < 1/4.

        Each component is symmetric about k and non-increasing in |x - k|, so
        of the balls that meet only component k, B_r(k) has the most mass.
        For r < 1/4 a ball meets one component, except that for r > 1/8 it
        may reach from the plateau of component 1 (which ends at 3/2) into
        component 2 (which starts at 7/4).  Its unnormalised mass is then at
        most 1/4 from the plateau plus 1/32 + 1/8 from component 2, below
        the unnormalised mass sqrt(r) + r > 0.47 of B_r(1).
        """
        return tuple(np.array([float(k)]) for k in range(1, self.levels + 1)), 0.25


@dataclass(frozen=True)
class OmNotStrongReport:
    ratio_limits: dict          # str(k) -> extrapolated small-ball ratio mu(B(1))/mu(B(k))
    ratio_rel_errors: dict      # str(k) -> |limit - k^2| / k^2
    off_domain_decay_exponent: float
    dip_radius: float
    dip_value: float
    dip_bound: float
    dip_limit: float
    weak_verdict: str = field(metadata={"json": "weak"})
    strong_verdict: str = field(metadata={"json": "strong"})


def om_not_strong_suite(measure: OmNotStrongMeasure, ks: Sequence[int] = (2, 3, 5),
                        n_dip: int = 10, competitors: Optional[Sequence[int]] = None,
                        ) -> OmNotStrongReport:
    """Reproduce the three facts that make this measure a counterexample.

    (i) ratio curves mu(B_r(1)) / mu(B_r(k)) extrapolate to k^2: the
    masses behave like sqrt(r) near each integer, so the fit runs
    against sqrt(r) over very small radii where the plateau term is
    negligible; (ii) off-integer points decay linearly in r against the
    sqrt(r) decay at the integers, giving vanishing ratios; (iii) at
    radii 1/(2 n^4) the plateau of component n makes the strong-mode
    ratio of u = 1 dip toward 1/sqrt(2), so the functional minimiser is
    a global weak mode but not a strong mode.
    """
    from .om import classify_mode

    if not 2 <= n_dip <= measure.levels:
        raise ParameterError(f"n_dip must be a component index in [2, {measure.levels}], "
                             f"got {n_dip}")
    radii = radius_schedule(1e-8, 8, factor=4.0)
    for k in ks:
        if not (1 <= k <= measure.levels):
            raise InputError(f"component index {k} beyond the truncation level")
    # one mass table: the masses at 1 are shared by every curve
    space = default_space(measure)
    table, _ = _log_mass_table(measure, [np.array([float(c)]) for c in [1, *ks]],
                               radii, space, RatioOpts())
    fitted = _ratio_curves(table[:1], table[1:], radii, _fit_in(measure))["extrapolated_limit"]
    # str keys: results.json sorts them as text ("10" before "2"), int keys would not
    limits = {str(k): limit for k, limit in zip(ks, fitted)}
    rel_errors = {str(k): abs(limit - k ** 2) / k ** 2 for k, limit in zip(ks, fitted)}

    # off-domain point m + delta: mass ~ rho(x) 2r, anchored mass ~ sqrt(r)
    x_off = 2.1
    r_small = radius_schedule(1e-6, 6, factor=4.0)
    off, anchored = measure.mass_table([x_off, 1.0], r_small)
    ratios = off / anchored
    decay = float(np.polyfit(np.log(r_small), np.log(ratios), 1)[0])

    r_dip = 0.5 / n_dip ** 4
    anchored, dipped = measure.mass_table([1.0, float(n_dip)], [r_dip])[:, 0]
    dip_val = anchored / dipped
    dip_bound = (1.0 / (math.sqrt(2.0) * n_dip ** 2) + n_dip ** -4.0) * n_dip ** 2

    # schedule: the special plateau radii (strong-mode dips live there)
    # plus a much smaller tail so weak limsup estimates see r -> 0
    comp = list(competitors) if competitors is not None else list(range(1, 21))
    dip_radii = np.array([0.5 / m ** 4 for m in range(2, max(comp) + 1)])
    tail = radius_schedule(1e-9, 6, factor=4.0)
    cls_radii = np.sort(np.unique(np.concatenate([dip_radii, tail])))[::-1]
    cls = classify_mode(measure, np.array([1.0]),
                        [np.array([float(k)]) for k in comp],
                        cls_radii)
    return OmNotStrongReport(limits, rel_errors, decay, r_dip, float(dip_val),
                             float(dip_bound), 1.0 / math.sqrt(2.0),
                             cls.global_weak, cls.strong)


# ---------------------------------------------------------------------------
# (f) two crosses: the mode depends on the norm
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CrossesMeasure:
    """Uniform length measure on an axis-aligned cross at (1, 0) and a
    45-degree-rotated cross at (-1, 0), arms of half-length 1.

    Unnormalised: every reported quantity is a mass ratio or a log
    difference, so the total mass drops out.
    """

    norm_choice: str = "1"  # "1" or "inf"
    dim = 2  # a class constant, not a field: the crosses lie in the plane
    method = "closed-form"  # how ``mass_table`` is computed

    def __post_init__(self):
        if self.norm_choice not in ("1", "inf"):
            raise ParameterError("norm_choice must be '1' or 'inf'")

    @property
    def p(self) -> float:
        return 1.0 if self.norm_choice == "1" else math.inf

    def default_space(self):
        return WeightedSeqSpace.unweighted(self.p, self.dim)

    def segments(self):
        h = math.sqrt(0.5)
        return [
            (np.array([0.0, 0.0]), np.array([2.0, 0.0])),      # aligned, horizontal
            (np.array([1.0, -1.0]), np.array([1.0, 1.0])),     # aligned, vertical
            (np.array([-1.0 - h, -h]), np.array([-1.0 + h, h])),   # rotated
            (np.array([-1.0 - h, h]), np.array([-1.0 + h, -h])),   # rotated
        ]

    def mass_table(self, centers, radii) -> np.ndarray:
        """Arc length of the crosses inside each open norm ball B_r(c), exact,
        shape (len(centers), len(radii)).

        Along a segment v(t) = a + t unit - c the l^1 or sup-norm distance
        is convex and piecewise linear in t, with kinks where a component of
        v, or their sum or difference, vanishes: each centre finds them once
        for all radii.  Between kinks the part of a piece closer than r
        follows from linear interpolation.  Every ball adds up its pieces
        segment by segment and in increasing t; a piece it misses, or one
        of length 0 between repeated kinks, adds 0.0.
        """
        cs, r = _table_axes(self, centers, radii)
        a, b = np.array(self.segments()).transpose(1, 0, 2)  # (segment, coordinate)
        length = np.linalg.norm(b - a, axis=1)[:, None]
        unit, start = (b - a) / length, a - cs[:, None, :]  # start: (centre, segment, coordinate)
        u0, u1, s0, s1 = unit[:, 0], unit[:, 1], start[..., 0], start[..., 1]
        rates = np.stack([u0, u1, u0 - u1, u0 + u1], axis=-1)
        starts = np.stack([s0, s1, s0 - s1, s0 + s1], axis=-1)
        # a rate of 0 gives no kink: its entry stands at t = 0, before a piece of length 0
        kinks = np.clip(np.divide(-starts, rates, out=np.zeros_like(starts), where=rates != 0.0),
                        0.0, length)
        zero = np.zeros(kinks.shape[:-1] + (1,))
        t = np.sort(np.concatenate([zero, zero + length, kinks], axis=-1), axis=-1)
        reduce = np.sum if self.p == 1.0 else np.max
        g = reduce(np.abs(start[:, :, None, :] + t[..., None] * unit[:, None, :]), axis=-1)
        g = g[..., None] - r  # (centre, segment, kink, radius)
        lo, hi = np.minimum(g[:, :, :-1], g[:, :, 1:]), np.maximum(g[:, :, :-1], g[:, :, 1:])
        share = np.divide(-lo, hi - lo, out=np.ones_like(lo), where=(lo < 0.0) & (hi > 0.0))
        pieces = np.where(lo < 0.0, np.diff(t)[..., None] * share, 0.0)
        n = lo.shape[1] * lo.shape[2]  # the pieces of every segment, in order
        return np.add.accumulate(pieces.reshape(len(cs), n, r.size), axis=1)[:, -1]

    def heaviest_centers(self, space) -> tuple:
        """The cross centres e1 and -e1, for r < 1/4.

        The crosses lie 1/2 apart in the sup norm, and so at least 1/2 apart in
        the 1-norm: a ball of radius below 1/4 meets one cross only, and at
        most its two segments.  The ball is convex and symmetric, so its chord
        along a line is no longer than the parallel chord through its centre,
        and no segment ends within 1/4 of the cross centre.  So the ball about
        the centre of the cross it meets is at least as heavy.
        """
        return (E1, -E1), 0.25


E1 = np.array([1.0, 0.0])


def crosses_ball_masses(measure: CrossesMeasure, center, r: float) -> float:
    """Exact small-radius ball masses at the two cross centres.

    1-norm: 2 sqrt(2) r at (-1, 0) and 4 r at (1, 0); sup-norm:
    4 sqrt(2) r at (-1, 0) and 4 r at (1, 0).  Valid while the ball
    stays inside one cross (r <= 1/2).
    """
    if _checked_radius(r) > 0.5:
        raise RegimeError("closed forms hold only for r <= 1/2 (ball inside one cross)")
    c = np.asarray(center, dtype=float)
    if np.array_equal(c, E1):
        return 4.0 * r
    if np.array_equal(c, -E1):
        return (2.0 * math.sqrt(2.0) * r if measure.norm_choice == "1"
                else 4.0 * math.sqrt(2.0) * r)
    raise InputError("closed forms are available at the cross centres +-(1, 0) only")


def crosses_om_difference(norm_choice: str) -> float:
    """I(-e1) - I(e1) from the closed-form masses: the ratio limit
    mu(B_r(-e1)) / mu(B_r(e1)) equals exp(I(e1) - I(-e1))."""
    m = CrossesMeasure(norm_choice)
    ratio = crosses_ball_masses(m, -E1, 0.25) / crosses_ball_masses(m, E1, 0.25)
    return -math.log(ratio)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def _number(name: str, value, integer: bool = False):
    """A registered measure's or a counterexample config's numeric parameter,
    or a ParameterError naming it."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or \
            (integer and not float(value).is_integer()):
        raise ParameterError(f"parameter {name!r} must be {'an integer' if integer else 'a number'}"
                             f", got {value!r}")
    return int(value) if integer else float(value)


def _mixture_density1d(t: float, r: float = 5.0) -> Density1D:
    t, r = _number("t", t), _number("r", r)
    fam = MixtureFamily(t, r)
    return Density1D(pdf=lambda x: float(fam.density(x)),
                     support=((-r - 40.0, r + 40.0),), total_mass=1.0)


def _spike_density1d(n) -> Density1D:
    fam = SpikeFamily(math.inf if n in ("inf", math.inf) else _number("n", n, integer=True))
    return Density1D(pdf=lambda x: float(fam.density(x)),
                     support=((-40.0, 42.0),), total_mass=1.0)


EXAMPLE_MEASURE_FACTORIES["mixture"] = _mixture_density1d
EXAMPLE_MEASURE_FACTORIES["spike"] = _spike_density1d
EXAMPLE_MEASURE_FACTORIES["liminf_only"] = lambda depth=40, variant="standard": \
    LiminfOnlyMeasure(depth=_number("depth", depth, integer=True), variant=variant)
EXAMPLE_MEASURE_FACTORIES["om_not_strong"] = \
    lambda levels=30: OmNotStrongMeasure(levels=_number("levels", levels, integer=True))
EXAMPLE_MEASURE_FACTORIES["crosses"] = lambda norm_choice="1": CrossesMeasure(norm_choice=norm_choice)
