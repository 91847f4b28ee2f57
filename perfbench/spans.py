"""In-memory span recorder for the traced benchmark run.

The tracer wraps ommap's public functions at the names where the
calling module looks them up (``ommap.gamma.sqrt_pinv_apply``,
``ommap.cli.ball_ratio_curve``, ...), so that every call that crosses
a layer boundary opens a span with its parent span id.  Nothing in the
library is edited; ``restore`` puts every original object back.

Spans are kept in flat arrays while the run lasts and written out once
at the end.  A layer's self time is the duration of its spans minus
the durations of their direct children.
"""

from __future__ import annotations

import functools
import time
from array import array
from pathlib import Path

import numpy as np

import ommap
import ommap.bip
import ommap.cli
import ommap.counterexamples
import ommap.gamma
import ommap.measures
import ommap.om

LAYERS = ("bench", "spaces", "measures", "om", "gamma", "bip", "counterexamples", "cli")

_SPACES_FNS = ("sqrt_pinv_apply", "in_range_sqrt", "pinv_apply", "weighted_norm")
_MEASURES_FNS = ("ball_ratio_curve", "ball_mass", "measure_from_json")
#: constructors whose returned functional gets its ``eval`` wrapped as well
_OM_CTORS = ("gaussian_om", "besov_om", "density_om")
_OM_FNS = ("classify_mode", "m_property_probe", "posterior_om")
_GAMMA_FNS = ("gamma_liminf_probe", "gaussian_recovery_sequence", "besov_recovery_sequence",
              "equicoercivity_probe", "mode_convergence_check", "continuous_convergence_probe",
              "gaussian_om_family", "besov_om_family")
_BIP_FNS = ("map_solve_besov_linear", "map_solve_gaussian_linear",
            "perturbation_experiment", "small_noise_experiment")
_CX_FNS = ("kl_gaussians", "kl_gaussians_quadrature", "mixture_modes", "mixture_kl",
           "mixture_kl_exponent", "spike_mode", "spike_kl", "liminf_only_ratios",
           "om_not_strong_suite", "crosses_ball_masses", "crosses_om_difference")
_CX_METHODS = (("MixtureFamily", "density"), ("SpikeFamily", "density"),
               ("LiminfOnlyMeasure", "intervals"), ("OmNotStrongMeasure", "density"),
               ("OmNotStrongMeasure", "om_functional"))


def _import_sites():
    """(layer, owner, attribute) for every name to wrap.

    Each layer is wrapped in the modules above it that may import it, and
    in the package namespace the benchmark itself calls through.  ``cli``
    imports ``gaussian_om`` from ``ommap.om`` inside a function, so the
    constructors are wrapped in ``ommap.om`` too.  Names a module does not
    have are skipped and listed in the run record.
    """
    pkg, om, gamma, bip, cli, cx = (ommap, ommap.om, ommap.gamma, ommap.bip,
                                    ommap.cli, ommap.counterexamples)
    sites = []
    for owner in (ommap.measures, om, gamma, bip):
        sites += [("spaces", owner, f) for f in _SPACES_FNS]
    for owner in (om, gamma, bip, cli, pkg):
        sites += [("measures", owner, f) for f in _MEASURES_FNS]
    for owner in (gamma, bip, cli):
        sites += [("om", owner, f) for f in _OM_FNS + _OM_CTORS]
    sites += [("om", om, f) for f in _OM_CTORS]
    for owner in (bip, cli, pkg):
        sites += [("gamma", owner, f) for f in _GAMMA_FNS]
    for owner in (cli, pkg):
        sites += [("bip", owner, f) for f in _BIP_FNS]
    sites += [("counterexamples", cx, f) for f in _CX_FNS]
    sites += [("counterexamples", getattr(cx, c), m) for c, m in _CX_METHODS]
    sites += [("cli", cli, "main"), ("cli", cli, "validate_config")]
    return sites


class Tracer:
    """Span recorder; install wrappers with ``install`` and undo with ``restore``."""

    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[int] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.name = array("i")
        self._stack = [-1]
        self._patches: list = []
        self.missing: list[str] = []

    # -- spans -------------------------------------------------------------
    def name_id(self, layer: str, label: str) -> int:
        key = f"{layer}:{label}"
        nid = self._ids.get(key)
        if nid is None:
            nid = self._ids[key] = len(self.names)
            self.names.append(key)
            self.layer_of.append(LAYERS.index(layer))
        return nid

    def call(self, nid: int, fn, *args, **kwargs):
        """Run ``fn`` inside a span named by ``nid``."""
        idx = len(self.start)
        self.parent.append(self._stack[-1])
        self.name.append(nid)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()

    def _wrapped(self, layer: str, label: str, fn):
        nid = self.name_id(layer, label)
        call = self.call

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return call(nid, fn, *args, **kwargs)

        return wrapper

    # -- wrappers ----------------------------------------------------------
    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def wrap_eval(self, functional) -> None:
        """Wrap the ``eval`` of a functional built before tracing started."""
        self._patch(functional, "eval",
                    self._wrapped("om", "OmFunctional.eval", functional.eval))

    def install(self) -> None:
        """Wrap every import site that exists; record the ones that do not."""
        for layer, owner, attr in _import_sites():
            if attr not in owner.__dict__:
                self.missing.append(f"{owner.__name__}.{attr}")
                continue
            fn = owner.__dict__[attr]
            if attr in _OM_CTORS:
                fn = self._om_ctor(fn)
            self._patch(owner, attr, self._wrapped(layer, f"{owner.__name__}.{attr}", fn))

    def _om_ctor(self, ctor):
        """Constructor whose functionals open an ``om`` span on every eval."""
        nid = self.name_id("om", "OmFunctional.eval")
        call = self.call

        @functools.wraps(ctor)
        def build(*args, **kwargs):
            fn = ctor(*args, **kwargs)
            inner = fn.eval
            fn.eval = lambda u: call(nid, inner, u)
            return fn

        return build

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------
    def arrays(self):
        return (np.array(self.start, dtype=float), np.array(self.end, dtype=float),
                np.array(self.parent, dtype=np.int64), np.array(self.name, dtype=np.int64))

    def summary(self) -> dict:
        """Self time and span count per layer, and count per span name."""
        start, end, parent, name = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_t = dur - child
        layer = np.asarray(self.layer_of, dtype=np.int64)[name]
        self_s = np.bincount(layer, weights=self_t, minlength=len(LAYERS))
        calls = np.bincount(layer, minlength=len(LAYERS))
        incl = np.bincount(name, weights=dur, minlength=len(self.names))
        counts = np.bincount(name, minlength=len(self.names))
        return {
            "self_s": {lay: float(self_s[i]) for i, lay in enumerate(LAYERS)},
            "calls": {lay: int(calls[i]) for i, lay in enumerate(LAYERS)},
            "by_name": {n: {"calls": int(counts[i]), "incl_s": float(incl[i])}
                        for i, n in enumerate(self.names)},
        }

    def write(self, path: Path) -> None:
        start, end, parent, name = self.arrays()
        t0 = float(start[0]) if len(start) else 0.0
        np.savez_compressed(path, names=np.array(self.names), start=start - t0,
                            end=end - t0, parent=parent, name=name)
