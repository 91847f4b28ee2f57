"""Variational-convergence probes for sequences of functionals.

Nothing here proves convergence: the probes are falsification tools.
The lower-bound probe searches for witness sequences that break the
liminf inequality; recovery sequences are read from the product forms
of the family's members and limit; the equicoercivity probe reads the
exact coordinate half-widths of the members' sublevel sets against the
limit's; the mode-convergence check clusters minimiser sequences and
compares cluster points against minimisers of the limit.

Every check answers "pass", "fail" or "inconclusive", and
``fold_verdicts`` decides a bundle of checks.  Every "pass" verdict
records how many paths, members or samples were read, every "fail"
carries a concrete witness, and every "inconclusive" carries its reason
in the report's ``note``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from ._seeds import child_rng
from .errors import InputError, ParameterError
from .measures import (ProductMeasure, _in_range, _poly_intercepts, _uniform_pball,
                       default_space, sublevel_halfwidth)
from .om import OmFunctional, posterior_om, prior_om
from .spaces import WeightedSeqSpace, _as_vector, row_norms


@dataclass
class FunctionalSequence:
    """Indexed family of functionals with a designated limit.

    ``measures`` and ``limit_measure`` retain the construction when the
    family comes from product measures, enabling construction-aware
    probes: recovery sequences and the sublevel half-widths of every
    member, both read from the product forms.
    """

    indices: list
    members: list
    limit: OmFunctional
    measures: Optional[list] = None
    limit_measure: Optional[object] = None

    def __post_init__(self):
        if len(self.indices) != len(self.members):
            raise InputError("indices and members must have equal length")
        if any(b <= a for a, b in zip(self.indices, self.indices[1:])):
            raise InputError("indices must be strictly increasing")


def om_family(measures: Sequence, limit_measure,
              indices: Optional[Sequence[int]] = None) -> FunctionalSequence:
    """The family of ``prior_om`` functionals of a measure sequence."""
    idx = list(indices) if indices is not None else list(range(1, len(measures) + 1))
    return FunctionalSequence(idx, [prior_om(m) for m in measures], prior_om(limit_measure),
                              measures=list(measures), limit_measure=limit_measure)


gaussian_om_family = besov_om_family = om_family


def fold_verdicts(verdicts) -> str:
    """Any "fail" fails, a non-empty bundle of passes passes, else "inconclusive"."""
    verdicts = set(verdicts)
    return "fail" if "fail" in verdicts else "pass" if verdicts == {"pass"} else "inconclusive"


# ---------------------------------------------------------------------------
# liminf probe
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LiminfOpts:
    n_random: int = 64
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.n_random, (int, np.integer)) or self.n_random < 0:
            raise ParameterError(f"n_random must be an integer >= 0, got {self.n_random!r}")


_PATH_ALPHAS = (0.5, 1.0, 2.0)
_MAGNITUDE_RANGE = (0.5, 2.0)
_WINDOW_DISTANCE = 0.03  # random paths reach this distance at the last index
_LIMINF_WINDOW_FRAC = 0.5  # trailing share of the family that the probe reads
_LIMINF_TOL = 1e-3  # an extrapolated deficit above this is a violation
_FIT_POINTS = 8  # nearest points of a path that its extrapolation reads


@dataclass(frozen=True)
class LiminfViolation:
    path_name: str = field(metadata={"json": "path"})
    margin: float
    at_index: int
    witness_point: np.ndarray


@dataclass(frozen=True)
class LiminfReport:
    x: np.ndarray
    n_paths: int
    violations: list
    verdict: str
    note: str = ""


@lru_cache(maxsize=32)
def _path_names(n_random: int, dim: int, toward: bool) -> tuple:
    """The names of the ``default_paths``, in their order."""
    return (*(f"random-{j}" for j in range(n_random)),
            *(f"axis{sign}{k}" for k in range(dim) for sign in "+-"),
            *["toward-anchor"][:toward], "constant")


def default_paths(seq: FunctionalSequence, x: np.ndarray, opts: LiminfOpts):
    """Random decaying-direction paths plus construction-aware ones.

    Random paths move along fixed unit directions with magnitudes
    c * n^(-alpha); c is scaled so the trailing window actually sits
    near x, otherwise slow decay rates never inform the limit.
    Adversarial paths head along coordinate axes and toward the limit
    anchor (the low-value direction) at the unscaled 1/n rate, which is
    the schedule that exposes moving-bump constructions.

    Returns the path names, their unit directions ``(paths, dim)`` and
    their magnitudes over the trailing window ``(window members, paths)``:
    the j-th window member's point on path p is x + mags[j, p] * dirs[p].
    """
    rng = child_rng(opts.seed, "liminf-paths")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    dim = x.size
    n_last = float(seq.indices[-1])
    start = int(len(seq.indices) * (1.0 - _LIMINF_WINDOW_FRAC))
    n_win = np.asarray(seq.indices[start:], dtype=float)
    # a scalar exponent per rate: numpy takes n ** -1.0 as a reciprocal
    decay = {alpha: n_win ** -alpha for alpha in _PATH_ALPHAS}
    anchor = np.atleast_1d(seq.limit.anchor)
    toward = anchor - x if anchor.size == dim else np.zeros(dim)
    nrm = np.linalg.norm(toward)
    axes = opts.n_random + 2 * dim  # the random paths, then the axis paths
    names = list(_path_names(opts.n_random, dim, bool(nrm > 0)))
    dirs = np.zeros((len(names), dim))
    mags = np.zeros((n_win.size, len(names)))
    u = np.empty(opts.n_random)
    lo, hi = _MAGNITUDE_RANGE
    for j, row in enumerate(dirs[:opts.n_random]):  # the stream: magnitude, then direction
        u[j] = lo + (hi - lo) * rng.random()  # rng.uniform(lo, hi), bit for bit
        rng.standard_normal(out=row)
    rand = dirs[:opts.n_random]
    # a stacked matmul takes each row's dot as d.dot(d) does, bit for bit
    rand /= np.sqrt(np.matmul(rand[:, None, :], rand[:, :, None])[:, :, 0])
    for k, alpha in enumerate(_PATH_ALPHAS):  # random path j decays at rate j % 3
        cols = slice(k, opts.n_random, len(_PATH_ALPHAS))
        mags[:, cols] = (u[cols] * _WINDOW_DISTANCE * n_last ** alpha) * decay[alpha][:, None]
    k = np.arange(dim)  # axis path 2k is +e_k, 2k + 1 is -e_k
    dirs[opts.n_random:axes].reshape(dim, 2, dim)[k, :, k] = [1.0, -1.0]
    if nrm > 0:
        dirs[axes] = toward / nrm
    mags[:, opts.n_random:-1] = decay[1.0][:, None]  # the adversarial paths' 1/n schedule
    return names, dirs, mags


def gamma_liminf_probe(seq: FunctionalSequence, x,
                       opts: Optional[LiminfOpts] = None) -> LiminfReport:
    """Search for sequences x_n -> x with liminf F_n(x_n) < F(x).

    Raw finite-index values undershoot F(x) along any slowly decaying
    path whenever the functionals are merely smooth, so the probe
    estimates the liminf along each path instead: the deficit
    F(x) - F_n(x_n) over the trailing index window is extrapolated to
    zero path distance (``_extrapolated_intercepts``: least-squares fits of
    degree 1..3 of every path at once, by ``measures._poly_intercepts``,
    the ratio curves' routine), and a positive intercept beyond
    ``_LIMINF_TOL`` is a violation, recorded with its witness point, the
    path's point of largest deficit in the window.

    Every path distance shrinks strictly with n, so a fit reads the last
    ``_FIT_POINTS`` window members of a path that is finite on all of
    them.  The probe evaluates those members on the points of every path
    first, and the rest of the window only at x, to find out whether
    every F_n(x) is finite, unless the member's meta carries
    ``finite_everywhere``.  It evaluates the whole window on every path,
    with the same result as if it had done so from the start, only when
    that suffix cannot decide: some F_n(x) is +inf, a path leaves some
    suffix member's domain, or a margin exceeds the tolerance (its
    witness is searched over the whole window).  The constant path gives
    F_n(x).
    """
    opts = opts or LiminfOpts()
    x = np.atleast_1d(np.asarray(x, dtype=float))
    target = seq.limit.eval(x)
    if math.isinf(target):
        return LiminfReport(x, 0, [], "inconclusive",
                            note="limit value is +inf; a finite probe cannot certify it")
    names, dirs, mags = default_paths(seq, x, opts)
    start = len(seq.indices) - len(mags)
    window = seq.members[start:]
    inv_n = 1.0 / np.asarray(seq.indices[start:], dtype=float)
    # np.linalg.norm's own ufuncs, without its wrapper
    lengths = np.sqrt(np.add.reduce(dirs * dirs, axis=1))

    def path_values(rows: slice) -> np.ndarray:
        return np.array([f.values(x + m[:, None] * dirs)
                         for f, m in zip(window[rows], mags[rows])])

    split = max(0, len(window) - _FIT_POINTS)
    vals = path_values(slice(split, None))
    deficits, margins = _liminf_margins(vals, mags[split:] * lengths, inv_n[split:], target)
    if split and not (np.all(np.isfinite(vals)) and np.all(margins <= _LIMINF_TOL)
                      and all(math.isfinite(f.eval(x)) for f in window[:split]
                              if not f.meta.get("finite_everywhere"))):
        vals = np.concatenate([path_values(slice(0, split)), vals])
        deficits, margins = _liminf_margins(vals, mags * lengths, inv_n, target)
        split = 0
    worst = split + np.argmax(np.where(np.isnan(deficits), -np.inf, deficits), axis=0)
    violations = [LiminfViolation(names[p], float(margins[p]), seq.indices[start + worst[p]],
                                  x + mags[worst[p], p] * dirs[p])
                  for p in np.flatnonzero(margins > _LIMINF_TOL)]
    verdict = "fail" if violations else "pass"
    return LiminfReport(x, len(names), violations, verdict)


def _liminf_margins(vals: np.ndarray, dists: np.ndarray, inv_n: np.ndarray,
                    target: float):
    """Deficits (NaN off a member's domain) and extrapolated margins of
    each path from its values on consecutive window members."""
    finite = np.isfinite(vals)
    at_x = vals[:, -1]  # the constant path sits at x
    drift = np.all(finite[:, -1])
    # same-member deficits isolate the moving-path effect from the family's
    # own (1/n) convergence drift, whose persistent part F(x) - F_n(x) is
    # shared by all paths and fitted as one more column, in 1/n
    deficits = at_x[:, None] - vals if drift else target - vals
    deficits[~finite] = np.nan
    # a path that escapes every domain has margin NaN: its liminf is +inf
    if not drift:
        return deficits, _extrapolated_intercepts(dists, deficits)
    both = _extrapolated_intercepts(np.column_stack([inv_n, dists]),
                                    np.column_stack([target - at_x, deficits]))
    return deficits, both[0] + both[1:]


def _extrapolated_intercepts(dists: np.ndarray, deficits: np.ndarray) -> np.ndarray:
    """Persistent part of each column's deficit as its abscissa vanishes.

    Takes ``(points, columns)`` arrays; NaN deficits are left out.  Each
    column is extrapolated from its ``_FIT_POINTS`` nearest points with
    polynomial models of degree 1..3, and the smallest intercept is kept:
    smooth functionals produce transient humps that a single linear fit
    would misread as persistent, while genuinely persistent
    (near-constant) deficits survive every fit.  The degree-q fit is made
    where a column has at least q + 1 distinct abscissae.  With fewer
    than 2, or all points at distance zero, the column's maximum deficit
    is returned, and NaN for a column without points.

    All columns are fitted at once by ``_poly_intercepts``, whose
    three-term recurrence gives every degree's intercept in one pass.
    Sums run over each column's points alone, so every column's result is
    the one it has when fitted by itself.
    """
    present = ~np.isnan(deficits)
    order = np.argsort(np.where(present, dists, np.inf), axis=0,
                       kind="stable")[:_FIT_POINTS]
    flat = order * dists.shape[1] + np.arange(dists.shape[1])  # one gather index for all three
    near = present.ravel()[flat]
    d = np.where(near, dists.ravel()[flat], 0.0)
    de = np.where(near, deficits.ravel()[flat], 0.0)
    scale = d.max(axis=0)
    # the present points come first, by ascending abscissa
    distinct = near[0] + np.sum(near[1:] & (d[1:] > d[:-1]), axis=0)
    best = np.where(near[0], np.max(np.where(near, de, -np.inf), axis=0), np.nan)
    fit = (distinct >= 2) & (scale >= 1e-14)
    fits = _poly_intercepts(d[:, fit], de[:, fit], near[:, fit], 3)[0]
    degree = np.arange(1, 4)[:, None]  # fits[0] is the mean, not a candidate
    best[fit] = np.min(np.where(distinct[fit] > degree, fits[1:], np.inf), axis=0)
    return best


# ---------------------------------------------------------------------------
# recovery sequences
# ---------------------------------------------------------------------------

def _shared_forms(*columns: list) -> list:
    """Rows grouped by the identity of their objects in every column (a
    member's basis, say): ``(objects, rows)`` per group, in order of first
    appearance, so that each group is computed as one stack.  ``rows`` is
    ``slice(None)`` when all rows are one group."""
    keys = list(zip(*(map(id, c) for c in columns)))
    if len(set(keys)) == 1:
        return [(tuple(c[0] for c in columns), slice(None))]
    groups = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, (tuple(c[i] for c in columns), []))[1].append(i)
    return list(groups.values())


def recovery_sequence(mu_seq: Sequence, mu_limit, u) -> list:
    """Explicit recovery sequence x_n -> u for a family of product measures:
    x_n = m_n + S_n S^+ (u - m), read from the product forms, where
    S = B diag(scale) B^T is the square root of a Gaussian's covariance.

    S^+ (u - m) is the minimum-norm preimage v of u - m, whose whitened
    coordinates are the limit's, so F_n(x_n) = F(u) for members of full
    rank (a Besov-1 member rescales u by gamma_n / gamma); members with a
    pinned coordinate drop it and stay below.  Off the limit's domain the
    constant sequence is returned (nothing to prove there).
    """
    if not isinstance(mu_limit, ProductMeasure):
        raise InputError(f"no recovery sequence for measure type {type(mu_limit).__name__}")
    u = _as_vector(u, mu_limit.dim)
    c = mu_limit.to_eigen(u - mu_limit.mean)
    pinned = mu_limit.pinned
    if not _in_range(c, pinned):
        return [u.copy() for _ in mu_seq]
    free = ~pinned
    w = np.zeros_like(c)
    w[free] = c[free] / mu_limit.scale[free]
    v = w if mu_limit.basis is None else mu_limit.basis @ w
    # in place in the stacked copies: full-size temporaries fault afresh
    # once glibc has trimmed the heap; matmul's batch of B y_n keeps the
    # bits of the one-member product B @ y_n, where y @ B.T would not
    means = np.array([m.mean for m in mu_seq])
    scales = np.array([m.scale for m in mu_seq])
    for (basis,), rows in _shared_forms([m.basis for m in mu_seq]):
        y = scales[rows]  # a view of one group's rows, a copy of several
        y *= v if basis is None else basis.T @ v
        means[rows] += y if basis is None else np.matmul(basis, y[:, :, None])[:, :, 0]
    return list(means)


gaussian_recovery_sequence = besov_recovery_sequence = recovery_sequence


def recovery_gap(seq: FunctionalSequence, u) -> Optional[float]:
    """max(0, max_n F_n(x_n) - F(u)) along the recovery sequence x_n of u,
    or None where F(u) is +inf (there is nothing to recover)."""
    if seq.limit_measure is None or not seq.measures:
        raise InputError("recovery gap needs a non-empty family built from measures")
    target = seq.limit.eval(u)
    if math.isinf(target):
        return None
    rec = recovery_sequence(seq.measures, seq.limit_measure, u)
    worst = max(seq.members[i].eval(rec[i]) - target for i in range(len(rec)))
    return max(0.0, float(worst))


# ---------------------------------------------------------------------------
# equicoercivity probe
# ---------------------------------------------------------------------------

_EQUI_WINDOW_FRAC = 0.5  # trailing share of the family whose sublevel sets are read
_EQUI_RATIO_BOUND = 2.0  # a window member's half-widths, or ambient tail, over the limit's
_EQUI_SLOPE_BOUND = 0.25  # log-log growth rate of the largest half-width that is an escape


@dataclass(frozen=True)
class EquicoercivityEntry:
    t: float
    n_members: int
    violations: int
    bound: str
    verdict: str
    first_index_checked: Optional[int] = None
    witness_index: Optional[int] = None
    ratio: Optional[float] = None
    tail_ratio: Optional[float] = None
    slope: Optional[float] = None
    note: str = ""


def equicoercivity_probe(seq: FunctionalSequence, t: float, samples=None,
                         seed=None) -> EquicoercivityEntry:
    """Exact envelopes of the sublevel sets {F_n <= t} of a measure family.

    ``measures.sublevel_halfwidth`` gives each member's coordinate
    half-widths H_n: every point of {F_n <= t} lies in the box
    |u_k| <= H_n,k, and each face of the box is attained.  The family's
    trailing window (the last ``_EQUI_WINDOW_FRAC`` of it; the theorems
    allow finitely many members to be dropped, and only members before
    the window are) is read three ways against the limit's half-widths H,
    with K = ceil(dim / 2):

    * ratio: max_k H_n,k / H_k over the leading coordinates k < K where
      H_k > 0;
    * tail_ratio: the norm of H_n beyond coordinate K in the limit's
      ambient space (its ``default_space``) over that of H: the uniform
      decay that compactness in the ambient space needs (Part II);
    * slope: the log-log slope of max_k H_n,k against n.

    A window member whose ratio or tail ratio exceeds
    ``_EQUI_RATIO_BOUND`` is a violation, and a slope above
    ``_EQUI_SLOPE_BOUND`` fails the family when the window's largest
    half-width also exceeds the limit's (sublevel sets that keep growing
    past it); the witness is the worst member.  A negative t has an empty
    sublevel set, and passes with a note that says so.  The probe draws
    nothing: ``samples`` and ``seed`` are ignored, kept only for
    ``perfbench``'s positional call until it drops them.
    """
    if t < 0:
        return EquicoercivityEntry(t, 0, 0, "empty sublevel", "pass",
                                   note="t < 0: the sublevel set is empty")
    lim = seq.limit_measure
    if lim is None or not seq.measures:
        raise InputError("equicoercivity probe needs a non-empty family built from measures")
    h_lim = sublevel_halfwidth(lim, t)
    start = int(len(seq.measures) * (1.0 - _EQUI_WINDOW_FRAC))
    window, idx = seq.measures[start:], seq.indices[start:]
    for mu in window:
        if not isinstance(mu, ProductMeasure):
            raise InputError(f"no sublevel half-width for measure type {type(mu).__name__}")
        if mu.dim != lim.dim:
            raise InputError("family members and limit differ in dimension")
    h = _halfwidths(window, t)

    k_tail = (lim.dim + 1) // 2
    scaled = np.flatnonzero(h_lim[:k_tail] > 0)
    ratios = (h[:, scaled] / h_lim[scaled]).max(axis=1, initial=0.0)
    tails, score = None, ratios
    if k_tail < lim.dim:
        space = default_space(lim)
        tail_space = WeightedSeqSpace(space.p, space.weights[k_tail:])
        tail_lim = row_norms(h_lim[None, k_tail:], tail_space)[0]
        if tail_lim > 0:
            tails = row_norms(h[:, k_tail:], tail_space) / tail_lim
            score = np.maximum(ratios, tails)
    widest = h.max(axis=1)
    grows = widest > 0
    slope = None
    if grows.sum() >= 2:
        x = np.log(np.asarray(idx, dtype=float)[grows])
        y = np.log(widest[grows])
        x -= x.mean()
        slope = float(x @ (y - y.mean()) / (x @ x))

    over = score > _EQUI_RATIO_BOUND
    # a short family approaching the limit from below also has a positive
    # slope; growth escapes only once it carries past the limit's extent
    escaped = slope is not None and slope > _EQUI_SLOPE_BOUND and widest.max() > h_lim.max()
    violations = int(np.sum(over))
    witness, note = None, ""
    if over.any():
        witness, note = idx[int(np.argmax(score))], "half-widths beyond the bound"
    elif escaped:
        witness, note = idx[int(np.argmax(widest))], "the largest half-width keeps growing"
    if witness is not None:
        note = f"member {witness}: {note}"
    return EquicoercivityEntry(
        t, len(window), violations,
        f"H_n <= {_EQUI_RATIO_BOUND:g} H on the first {k_tail} coordinates and in the "
        f"ambient norm beyond them; log-log slope of max_k H_n,k <= {_EQUI_SLOPE_BOUND:g}",
        "fail" if violations or escaped else "pass", first_index_checked=idx[0],
        witness_index=witness, ratio=float(ratios.max()),
        tail_ratio=None if tails is None else float(tails.max()), slope=slope, note=note)


def _halfwidths(measures: Sequence, t: float) -> np.ndarray:
    """``sublevel_halfwidth`` of each of ``measures``, bit for bit, as one
    (measures, dim) array: one ``sublevel_reach`` call per group of
    measures that share a factor and a basis object (``_shared_forms``)."""
    means, scales, spreads = (np.array([getattr(mu, a) for mu in measures])
                              for a in ("mean", "scale", "spread"))
    h = np.abs(means)
    for (factor, basis), rows in _shared_forms([mu.factor for mu in measures],
                                               [mu.basis for mu in measures]):
        h[rows] += factor.sublevel_reach(basis, scales[rows], spreads[rows], t)
    return h


# ---------------------------------------------------------------------------
# mode convergence
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModeConvOpts:
    cluster_tol: float = 1e-3
    value_tol: float = 1e-6
    min_tol: float = 1e-6
    limit_min: Optional[float] = None


_MODE_WINDOW_FRAC = 0.25  # trailing share of the minimisers that is clustered
_MAX_CLUSTER_POINTS = 4000  # a longer window is thinned by a stride
_MAX_CLUSTERS = 8  # more clusters than this -> no convergent subsequence found


@dataclass(frozen=True)
class ModeConvReport:
    cluster_points: list            # representative (largest-index) member per cluster
    cluster_sizes: list
    limit_min: float
    value_errors: list              # F_limit(rep) - limit_min per cluster
    min_gap: float                  # worst |F_n(x_n) - limit_min| over the window tail
    verdict: str
    note: str = ""


def _single_linkage(points: np.ndarray, tol: float) -> np.ndarray:
    """Component labels of the graph that joins points within ``tol``,
    numbered in order of their first point.  A popped point is measured
    against the unlabelled points only, and none is popped once every
    point has a label."""
    n = len(points)
    labels = np.full(n, -1, dtype=int)
    cid = 0
    for i in range(n):
        if labels[i] >= 0:
            continue
        stack = [i]
        labels[i] = cid
        while stack and (rest := np.flatnonzero(labels < 0)).size:
            diff = points[rest] - points[stack.pop()]
            # np.linalg.norm's own ufuncs, without its wrapper
            nbrs = rest[np.sqrt(np.add.reduce(diff * diff, axis=1)) <= tol]
            labels[nbrs] = cid
            stack.extend(nbrs.tolist())
        cid += 1
    return labels


def mode_convergence_check(seq: FunctionalSequence, minimizers: Sequence,
                           opts: Optional[ModeConvOpts] = None) -> ModeConvReport:
    """Cluster the tail of a minimiser sequence and compare to the limit.

    The trailing window (the last ``_MODE_WINDOW_FRAC`` of indices) is
    clustered by single linkage; each cluster is represented by its
    largest-index member, the best available estimate of a
    subsequential limit.  Each representative must minimise the limit
    functional within tolerance, and the minimal values along the
    sequence must approach the limit minimum.
    """
    opts = opts or ModeConvOpts()
    if not seq.indices:
        raise InputError("mode convergence needs a non-empty family")
    if len(minimizers) != len(seq.indices):
        raise InputError("need one minimiser per family member")
    pts = np.asarray(minimizers, dtype=float)
    if pts.ndim == 1:  # scalar minimisers, one coordinate each
        pts = pts[:, None]
    start = int(math.floor(len(pts) * (1.0 - _MODE_WINDOW_FRAC)))
    window = pts[start:]
    if len(window) > _MAX_CLUSTER_POINTS:
        stride = int(math.ceil(len(window) / _MAX_CLUSTER_POINTS))
        keep = np.unique(np.concatenate([np.arange(0, len(window), stride),
                                         [len(window) - 1]]))
        window = window[keep]
    labels = _single_linkage(window, opts.cluster_tol)
    reps, sizes = [], []
    for c in range(labels.max() + 1):
        members = np.where(labels == c)[0]
        reps.append(window[members[-1]])
        sizes.append(int(members.size))

    rep_values = [seq.limit.eval(r) for r in reps]
    if opts.limit_min is not None:
        limit_min = float(opts.limit_min)
    else:
        limit_min = float(min(rep_values + [seq.limit.eval(seq.limit.anchor)]))

    value_errors = [float(v - limit_min) for v in rep_values]
    tail = range(max(start, len(pts) - max(3, len(pts) // 20)), len(pts))
    min_gap = max(abs(seq.members[i].eval(pts[i]) - limit_min) for i in tail)

    verdict, note = "fail", ""
    if len(reps) > _MAX_CLUSTERS:
        verdict = "inconclusive"
        note = f"no convergent subsequence found at this N ({len(reps)} clusters)"
    elif all(e <= opts.value_tol for e in value_errors) and min_gap <= opts.min_tol:
        verdict = "pass"
    return ModeConvReport(reps, sizes, limit_min, value_errors, float(min_gap),
                          verdict, note)


# ---------------------------------------------------------------------------
# continuous convergence
# ---------------------------------------------------------------------------

_CC_RHO0 = 1.0  # neighbourhood radius at n = 1
_CC_SAMPLES = 200  # sampled points per neighbourhood
_CC_ABS_TOL = 1e-9
_CC_DECAY = 0.5  # final block mean must drop below this times the first


@dataclass(frozen=True)
class ContinuousConvEntry:
    point: np.ndarray
    suprema: np.ndarray
    trend_decreasing: bool
    final_sup: float
    verdict: str


def continuous_convergence_probe(phi_seq: Sequence, phi_limit, points: Sequence,
                                 indices: Optional[Sequence[int]] = None,
                                 seed: int = 0) -> list:
    """Sampled check of locally-uniform convergence of potentials.

    ``phi_seq`` and ``phi_limit`` are potentials (``bip.Potential``).  For
    each test point x the probe records
    sup_{x' in U_n} |phi_n(x') - phi_limit(x)| over shrinking sampled
    neighbourhoods U_n of radius ``_CC_RHO0`` * n^(-1/2), and requires
    the recorded suprema to trend down to zero.  U_n is ``_CC_SAMPLES``
    uniform draws from the ball and x itself, with 51 grid points of the
    interval in 1-d, and each member reads it in one call of its kernel.
    """
    idx = list(indices) if indices is not None else list(range(1, len(phi_seq) + 1))
    if len(idx) != len(phi_seq):
        raise InputError("indices and phi_seq must have equal length")
    if not idx:
        raise InputError("phi_seq is empty: a trend needs at least one potential")
    if any(n < 1 for n in idx):
        raise InputError(f"indices must be >= 1 (neighbourhood radius n^(-1/2)), got {min(idx)}")
    entries = []
    for pi, x in enumerate(points):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        dim = x.size
        target = phi_limit.eval(x)
        sups = np.empty(len(idx))
        for j, (n, phi) in enumerate(zip(idx, phi_seq)):
            rho = _CC_RHO0 * n ** -0.5
            rng = child_rng(seed, "cont-conv", pi, j)
            pts = x[None, :] + rho * _uniform_pball(rng, _CC_SAMPLES, dim, 2.0)
            pts = np.vstack([pts, x[None, :]])
            if dim == 1:
                grid = np.linspace(x[0] - rho, x[0] + rho, 51)[:, None]
                pts = np.vstack([pts, grid])
            sups[j] = np.max(np.abs(phi.values(pts) - target))
        blocks = np.array_split(sups, min(4, len(sups)))
        means = np.array([b.mean() for b in blocks])
        # +inf -> +inf does not decrease, +inf -> finite does, finite -> +inf
        # increases: a step is never taken as inf - inf
        rise = 0.05 * means[0] + _CC_ABS_TOL
        trend = all(math.isfinite(b) and (math.isinf(a) or b - a <= rise)
                    for a, b in zip(means, means[1:]))
        final = float(sups[-1])
        ok = final <= _CC_ABS_TOL or (trend and means[-1] <= _CC_DECAY * means[0])
        entries.append(ContinuousConvEntry(x, sups, trend, final, "pass" if ok else "fail"))
    return entries


# ---------------------------------------------------------------------------
# sum rule
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SumRuleReport:
    liminf: list
    recovery_gaps: list            # {"x": point, "gap": value}, as GammaReport's
    verdict: str


def sum_rule_check(f_seq: FunctionalSequence, g_seq: Sequence, g_limit,
                   points: Sequence, recovery_fn: Callable,
                   opts: Optional[LiminfOpts] = None,
                   recovery_tol: float = 1e-8) -> SumRuleReport:
    """Probe the summed family F_n + G_n against F + G.

    G_n and G are potentials (``bip.Potential``), added to F_n and F by
    ``posterior_om``.  G_n is assumed continuously convergent (verify
    separately with ``continuous_convergence_probe``); the recovery
    sequence for F is reused for the sum, and its trailing values must not
    exceed F(x) + G(x) beyond the tolerance.
    """
    opts = opts or LiminfOpts()
    limit = posterior_om(f_seq.limit, g_limit)
    summed = FunctionalSequence(f_seq.indices, [posterior_om(f, g) for f, g in
                                                zip(f_seq.members, g_seq)], limit)
    liminf_reports = [gamma_liminf_probe(summed, x, opts=opts) for x in points]

    gaps = []
    start = len(summed.indices) // 2
    for x in points:
        target = limit.eval(np.atleast_1d(np.asarray(x, dtype=float)))
        if math.isinf(target):
            continue
        rec = recovery_fn(x)
        vals = [summed.members[i].eval(rec[i]) for i in range(start, len(rec))]
        gaps.append({"x": np.atleast_1d(x), "gap": max(0.0, max(vals) - target)})
    verdict = fold_verdicts([r.verdict for r in liminf_reports] +
                            ["pass" if g["gap"] <= recovery_tol else "fail" for g in gaps])
    return SumRuleReport(liminf_reports, gaps, verdict)


@dataclass(frozen=True)
class GammaReport:
    """Bundle of probe outcomes for one functional family.  Its verdict
    folds the liminf, equicoercivity and mode-convergence verdicts; the
    recovery gaps are reported, not folded."""

    liminf: list = field(default_factory=list)
    recovery_gaps: list = field(default_factory=list)  # {"x": point, "gap": value}
    equicoercivity: list = field(default_factory=list)
    mode_convergence: Optional[ModeConvReport] = None
    verdict: str = field(init=False)

    def __post_init__(self):
        parts = [*self.liminf, *self.equicoercivity, self.mode_convergence]
        object.__setattr__(self, "verdict", fold_verdicts(p.verdict for p in parts if p))
