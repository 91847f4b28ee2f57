"""Config-driven experiment runner.

Subcommands: ``run <config.json>`` executes an experiment described by
a schema-validated JSON file, ``validate <config.json>`` only checks
the schema, and ``reproduce <figure_id>`` emits plot-ready density
grids for the standard example figures.

Results are written as results.json plus one CSV per table.  Identical
config and seed give byte-identical results.json.  Exit codes: 0 for a
completed run (verdicts live in the report), 2 for a configuration/schema
violation or a config file that cannot be read, 3 for numerical blow-up.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import sys
import warnings
from importlib import resources
from pathlib import Path

import numpy as np

from . import counterexamples as cx
from .bip import (LinearObservation, ProxOpts, map_solve, perturbation_experiment,
                  small_noise_experiment)
from .errors import ConfigError, NumericsError, OmmapError
from .gamma import (GammaReport, ModeConvOpts, equicoercivity_probe, gamma_liminf_probe,
                    mode_convergence_check, om_family, recovery_gap)
from .measures import (BesovMeasure, GaussianMeasure, RatioOpts, WeightedSeqSpace,
                       ball_ratio_curve, measure_from_json, radius_schedule)
from .om import classify_mode, m_property_probe, prior_om
from .spaces import SpectralOperator


def _schema() -> dict:
    return json.loads((resources.files("ommap") / "schema.json").read_text())


_NUMBER = {"type": "number"}  # the items of $defs/vector


@functools.cache
def _validator_class():
    """Draft 2020-12 with the ``items`` of ``$defs/vector`` checked in one
    pass: a list of ints and floats (no bools) passes ``{"type": "number"}``
    items at once.  Any other list goes to jsonschema's own ``items``, so
    every message stays the same.  Built on first use, so that importing
    the CLI loads no jsonschema."""
    import jsonschema

    base = jsonschema.Draft202012Validator
    items = base.VALIDATORS["items"]

    def number_items(validator, schema_items, instance, schema):
        if schema_items == _NUMBER and type(instance) is list and \
                set(map(type, instance)) <= {int, float}:
            return ()
        return items(validator, schema_items, instance, schema)

    return jsonschema.validators.extend(base, {"items": number_items})


def _resolved(node, defs: dict):
    """``node`` with every ``{"$ref": "#/$defs/<name>"}`` replaced by that
    definition, itself resolved; the definitions refer to no cycle."""
    if isinstance(node, list):
        return [_resolved(item, defs) for item in node]
    if not isinstance(node, dict):
        return node
    if "$ref" in node:
        return _resolved(defs[node["$ref"].removeprefix("#/$defs/")], defs)
    return {key: _resolved(value, defs) for key, value in node.items()}


@functools.cache
def _validator(kind: str | None):
    """The validator of a known kind's branch of the schema, or of the
    whole schema for ``kind`` None, with every reference resolved, so that
    validation looks none up; built once per process."""
    schema = _schema()
    defs = schema.pop("$defs")
    for branch in schema["oneOf"]:
        if branch["properties"]["kind"]["const"] == kind:
            schema = branch
            break
    return _validator_class()(_resolved(schema, defs))


def validate_config(cfg: dict) -> None:
    # a config of a known kind passes the top-level oneOf exactly when it
    # passes its own kind's branch, and is reported by that branch's first
    # error, which names its field
    kind = cfg.get("kind") if isinstance(cfg, dict) else None
    validator = _validator(kind if isinstance(kind, str) and kind in _RUNNERS else None)
    errors = sorted(validator.iter_errors(cfg), key=lambda e: list(e.absolute_path))
    if errors:
        err = errors[0]
        loc = "/".join(str(p) for p in err.absolute_path) or "<root>"
        raise ConfigError(f"config field {loc}: {err.message}")


def _read_config(path: str):
    """The parsed JSON of a config file; one that cannot be read, or holds
    NaN or +-Infinity, is a ConfigError naming the path and the reason."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: "
                          f"{getattr(exc, 'strerror', None) or exc}") from None

    def refuse(name):
        raise ConfigError(f"config {path} holds {name}, which is not a JSON number")

    return json.loads(text, parse_constant=refuse)


def _json_default(obj):
    """The JSON form of what ``json`` cannot write itself: a numpy array or
    scalar as its Python value, a record (any dataclass) as its fields,
    each under its ``json`` metadata key if it has one, else its name."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    if dataclasses.is_dataclass(obj):
        return {f.metadata.get("json", f.name): getattr(obj, f.name)
                for f in dataclasses.fields(obj)}
    raise TypeError(f"results.json cannot hold a {type(obj).__name__}")


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2, default=_json_default) + "\n")


def _write_csv(path: Path, header, rows) -> None:
    """One CSV table: a header row, then comma-separated rows, each ended
    by ``\\r\\n``.  A float ndarray is formatted in one ``%`` call over its
    flat ``tolist()``, each float as its ``repr``, which is what
    ``csv.writer`` writes for floats; other rows, which may hold strings,
    go through ``csv.writer``."""
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        if isinstance(rows, np.ndarray):
            n, k = rows.shape
            fh.write(((",".join(["%r"] * k) + "\r\n") * n) % tuple(rows.ravel().tolist()))
        else:
            w.writerows(rows)


def _radii_from(cfg: dict) -> np.ndarray:
    if "radii" in cfg:
        return np.asarray(cfg["radii"], dtype=float)
    return radius_schedule(**cfg.get("schedule", {}))


def _norm_from(cfg: dict, dim: int):
    if "norm" not in cfg:
        return None
    spec = cfg["norm"]
    p = math.inf if spec["p"] in ("inf", "Infinity") else float(spec["p"])
    w = np.asarray(spec.get("weights", np.ones(dim)), dtype=float)
    return WeightedSeqSpace(p, w)


def _ratio_opts(cfg: dict, seed: int) -> RatioOpts:
    return RatioOpts(**cfg.get("mc", {}), seed=seed)


def _observation_from(cfg: dict) -> LinearObservation:
    return LinearObservation(np.asarray(cfg["matrix"], dtype=float),
                             SpectralOperator(np.asarray(cfg["noise_cov"], dtype=float)),
                             np.asarray(cfg["data"], dtype=float))


# ---------------------------------------------------------------------------
# kind runners: each returns (results record or dict, {csv name: (header, rows)})
# ---------------------------------------------------------------------------

def _run_ball_ratio(cfg, seed):
    measure = measure_from_json(cfg["measure"])
    radii = _radii_from(cfg)
    space = _norm_from(cfg, len(cfg["x1"]))
    curve = ball_ratio_curve(measure, np.asarray(cfg["x1"], dtype=float),
                             np.asarray(cfg["x2"], dtype=float), radii, space,
                             _ratio_opts(cfg, seed))
    rows = [(float(r), float(q), float(s))
            for r, q, s in zip(curve.radii, curve.ratios, curve.stderr)]
    return curve, {"ratio_curve": (["radius", "ratio", "stderr"], rows)}


def _run_classify_mode(cfg, seed):
    measure = measure_from_json(cfg["measure"])
    radii = _radii_from(cfg)
    space = _norm_from(cfg, len(cfg["candidate"]))
    result = classify_mode(measure, np.asarray(cfg["candidate"], dtype=float),
                           [np.asarray(wp, dtype=float) for wp in cfg["competitors"]],
                           radii, space, _ratio_opts(cfg, seed))
    rows = [(float(r), float(q), float(s)) for r, q, s in
            zip(result.radii, result.strong_ratio_curve, result.strong_ratio_stderr)]
    return result, {
        "strong_ratio_curve": (["radius", "candidate_mass_over_sup_mass", "stderr"], rows)}


def _run_m_property(cfg, seed):
    measure = measure_from_json(cfg["measure"])
    radii = _radii_from(cfg)
    pts = [np.asarray(x, dtype=float) for x in cfg["outside_points"]]
    space = _norm_from(cfg, pts[0].size)
    report = m_property_probe(measure, prior_om(measure), pts, radii, space,
                              _ratio_opts(cfg, seed))
    rows = []
    for i, entry in enumerate(report.entries):
        for r, q in zip(radii, entry.ratios):
            rows.append((i, float(r), float(q)))
    return report, {
        "m_property_ratios": (["point_index", "radius", "ratio_vs_anchor"], rows)}


def _besov_member(limit: BesovMeasure, n: int, amp: float, alternating: bool) -> BesovMeasure:
    """Member n of a Besov-1 family: smoothness s + (+-1)^n amp / n, or
    s + amp / n when not alternating, the rest as the limit's."""
    return BesovMeasure(limit.s + ((-1) ** n if alternating else 1.0) * amp / n,
                        limit.d, limit.eta, limit.dim)


def _shift(value, shifted: np.ndarray, loc: str) -> np.ndarray:
    """A config vector that shifts ``shifted``, as floats, or a ConfigError
    at ``loc`` unless the two have the same length."""
    v = np.asarray(value, dtype=float)
    if v.shape != shifted.shape:
        raise ConfigError(f"config field {loc}: {v.size} entries for a vector of {shifted.size}")
    return v


def _build_family(cfg, indices):
    fam = cfg["family"]
    if fam["type"] == "gaussian":
        mean = np.asarray(fam["mean"], dtype=float)
        eig = np.asarray(fam["eigenvalues"], dtype=float)
        mshift = _shift(fam.get("mean_shift", np.zeros_like(mean)), mean, "family/mean_shift")
        eshift = _shift(fam.get("eigenvalue_shift", np.zeros_like(eig)), eig,
                        "family/eigenvalue_shift")
        limit = GaussianMeasure(mean, SpectralOperator(eig))
        members = [GaussianMeasure(mean + mshift / n, SpectralOperator(eig + eshift / n))
                   for n in indices]
    else:
        limit = BesovMeasure(fam["s"], fam["d"], fam["eta"], fam["dim"])
        members = [_besov_member(limit, n, fam.get("s_amplitude", 1.0),
                                 fam.get("alternating", True)) for n in indices]
    return om_family(members, limit, indices)


#: a recovery gap above this times max(1, |F(x)|) is a fail, so that the
#: round-off of a large F(x) is not
_RECOVERY_TOL = 1e-10


def _run_gamma_check(cfg, seed):
    indices = cfg.get("indices", list(range(1, 33)))
    seq = _build_family(cfg, indices)
    liminf_points = [np.asarray(x, dtype=float) for x in cfg.get("liminf_points", [])]
    liminf = [gamma_liminf_probe(seq, x) for x in liminf_points]

    gaps, recovery_rows = [], []
    for x in (np.asarray(v, dtype=float) for v in cfg.get("recovery_points", [])):
        gap = recovery_gap(seq, x)
        if gap is not None:
            gaps.append({"x": x, "gap": gap})
            tol = _RECOVERY_TOL * max(1.0, abs(seq.limit.eval(x)))
            recovery_rows.append(("recovery", "pass" if gap <= tol else "fail", gap))

    equi = [equicoercivity_probe(seq, float(t)) for t in cfg.get("t_values", [0.5, 2.0])]

    mode_rep = None
    if cfg.get("check_modes", True):
        minimizers = [m.anchor for m in seq.members]
        mode_rep = mode_convergence_check(seq, minimizers,
                                          ModeConvOpts(**cfg.get("tolerances", {})))

    report = GammaReport(liminf=liminf, recovery_gaps=gaps, equicoercivity=equi,
                         mode_convergence=mode_rep)
    rows = [("liminf", r.verdict, len(r.violations)) for r in liminf]
    rows += recovery_rows
    rows += [("equicoercivity", e.verdict, e.violations) for e in equi]
    if mode_rep is not None:
        rows.append(("mode_convergence", mode_rep.verdict, mode_rep.min_gap))
    return report, {"gamma_summary": (["probe", "verdict", "detail"], rows)}


def _run_map_solve(cfg, seed):
    prior = measure_from_json(cfg["prior"])
    obs = _observation_from(cfg["observation"])
    sol = map_solve(prior, obs, ProxOpts(**cfg.get("solver", {})))
    header = [f"u{k}" for k in range(len(sol.point))] + ["objective", "residual"]
    row = [float(v) for v in sol.point] + [sol.objective, sol.optimality_residual]
    return {"map": sol}, {"map_solution": (header, [row])}


def _run_perturbation(cfg, seed):
    prior = measure_from_json(cfg["prior"])
    obs = _observation_from(cfg["observation"])
    kind = cfg["perturb"]
    indices = cfg["indices"]
    if kind == "data":
        direction = _shift(cfg.get("data_direction", np.eye(1, obs.n_obs, 0).ravel()),
                           obs.data, "data_direction")
        schedule = lambda n: obs.data + direction / n
    elif kind == "potential_projection":
        schedule = lambda n: min(n, obs.n_unknown)
    else:
        if not isinstance(prior, BesovMeasure):
            raise ConfigError("prior perturbation runs expect a besov1 prior")
        schedule = lambda n: _besov_member(prior, n, cfg.get("prior_s_amplitude", 1.0),
                                           cfg.get("prior_alternating", True))
    report = perturbation_experiment(kind, prior, obs, schedule, indices)
    header = ["n"] + [f"u{k}" for k in range(obs.n_unknown)] + \
        ["objective", "residual", "distance_to_limit"]
    rows = [[e.index] + [float(v) for v in e.point] +
            [e.objective, e.residual, e.distance_to_limit] for e in report.entries]
    return report, {"perturbation_trajectory": (header, rows)}


def _run_small_noise(cfg, seed):
    prior = measure_from_json(cfg["prior"])
    obs = _observation_from(cfg["observation"])
    report = small_noise_experiment(prior, obs, cfg["n_list"])
    header = ["n"] + [f"u{k}" for k in range(obs.n_unknown)] + ["distance_to_constrained"]
    rows = [[n] + [float(v) for v in p] + [d]
            for n, p, d in zip(report.n_values, report.points, report.distances)]
    return report, {"small_noise_trajectory": (header, rows)}


#: the params each counterexample config accepts, with their defaults
_COUNTEREXAMPLE_PARAMS = {
    "kl_gaussians": {"sigmas": (0.1, 0.5, 2.0, 10.0)},
    "mixture": {"r": 5.0, "t_values": (-0.05, 0.05),
                "kl_t_values": (1e-3, 3e-3, 1e-2, 3e-2, 1e-1)},
    "spike": {"n_values": (10, 50, 100)},
    "liminf_only": {"depth": 40, "n_max": 10},
    "om_not_strong": {"levels": 30, "ks": (2, 3, 5), "n_dip": 10},
    "crosses": {"r": 0.1},
}


def _counterexample_param(key: str, default, value):
    """``value`` checked against the type of its default: a number, an
    integer, or a list of either."""
    if not isinstance(default, tuple):
        return cx._number(key, value, integer=isinstance(default, int))
    if not isinstance(value, list):
        raise ConfigError(f"config field params/{key}: must be a list, got {value!r}")
    integer = all(isinstance(d, int) for d in default)
    return tuple(cx._number(key, v, integer=integer) for v in value)


def _run_counterexample(cfg, seed):
    name = cfg["name"]
    if name not in _COUNTEREXAMPLE_PARAMS:
        raise ConfigError(f"unknown counterexample name {name!r}")
    defaults, given = _COUNTEREXAMPLE_PARAMS[name], cfg.get("params", {})
    for key in given:
        if key not in defaults:
            raise ConfigError(f"config field params/{key}: not a parameter of counterexample "
                              f"{name!r}; allowed: {', '.join(defaults)}")
    params = {**defaults, **{key: _counterexample_param(key, defaults[key], value)
                             for key, value in given.items()}}
    if name == "kl_gaussians":
        sigmas = params["sigmas"]
        rows = [(float(s), cx.kl_gaussians(s), cx.kl_gaussians_quadrature(s))
                for s in sigmas]
        return ({"kl": [{"sigma": r[0], "closed_form": r[1], "quadrature": r[2]}
                        for r in rows]},
                {"kl_gaussians": (["sigma_variance", "closed_form", "quadrature"], rows)})
    if name == "mixture":
        r = params["r"]
        ts = params["t_values"]
        rows = []
        for t in ts:
            found = cx.mixture_modes(t, r)
            rows.append((float(t), found.mode) + found.local_maxima)
        kl_ts = params["kl_t_values"]
        slope, kls = cx.mixture_kl_exponent(kl_ts, r)
        kl_rows = list(zip(map(float, kl_ts), map(float, kls)))
        return ({"modes": [{"t": rw[0], "mode": rw[1]} for rw in rows],
                 "kl_exponent": slope},
                {"mixture_modes": (["t", "mode", "local_max_1", "local_max_2"], rows),
                 "mixture_kl": (["t", "kl"], kl_rows)})
    if name == "spike":
        ns = params["n_values"]
        rows = [(int(n), cx.spike_mode(int(n)), cx.spike_kl(int(n))) for n in ns]
        rows.append(("inf", cx.spike_mode(math.inf), 0.0))
        return ({"modes": [{"n": str(r[0]), "mode": float(r[1])} for r in rows]},
                {"spike_modes": (["n", "mode", "kl_limit_vs_member"], rows)})
    if name == "liminf_only":
        depth = params["depth"]
        n_max = params["n_max"]
        m = cx.LiminfOnlyMeasure(depth=depth)
        eps, delta = cx.liminf_only_ratios(m, n_max)
        rows = [(n + 1, float(eps[n]), float(delta[n])) for n in range(n_max)]
        return ({"eps_ratios": eps, "delta_ratios": delta},
                {"liminf_only_ratios": (["n", "ratio_at_2alpha_n", "ratio_at_alpha_n"], rows)})
    if name == "om_not_strong":
        m = cx.OmNotStrongMeasure(levels=params["levels"])
        rep = cx.om_not_strong_suite(m, ks=params["ks"], n_dip=params["n_dip"])
        rows = [(k, float(v), float(rep.ratio_rel_errors[k]))
                for k, v in rep.ratio_limits.items()]
        return rep, {
            "om_not_strong_ratios": (["k", "extrapolated_ratio", "rel_error_vs_k_squared"],
                                     rows)}
    if name == "crosses":
        r = params["r"]
        rows = []
        for norm in ("1", "inf"):
            m = cx.CrossesMeasure(norm)
            rows.append((norm, "e1", float(cx.crosses_ball_masses(m, cx.E1, r))))
            rows.append((norm, "-e1", float(cx.crosses_ball_masses(m, -cx.E1, r))))
        return ({"masses": [{"norm": a, "center": b, "mass": c} for a, b, c in rows],
                 "om_difference_1": cx.crosses_om_difference("1"),
                 "om_difference_inf": cx.crosses_om_difference("inf")},
                {"crosses_masses": (["norm", "center", "unnormalised_mass"], rows)})


_RUNNERS = {
    "ball_ratio": _run_ball_ratio,
    "classify_mode": _run_classify_mode,
    "m_property": _run_m_property,
    "gamma_check": _run_gamma_check,
    "map_solve": _run_map_solve,
    "perturbation": _run_perturbation,
    "small_noise": _run_small_noise,
    "counterexample": _run_counterexample,
}


# ---------------------------------------------------------------------------
# figure grids
# ---------------------------------------------------------------------------

def _reproduce(figure_id: str, out: Path) -> dict:
    if figure_id == "fig1a":
        r = 2.0
        ts = [-0.2, -0.05, 0.0, 0.05, 0.2]
        xs = np.linspace(-6.0, 6.0, 1201)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # r = 2 is the figure's own geometry
            cols = {f"t={t}": cx.MixtureFamily(t, r).density(xs) for t in ts}
        rows = np.column_stack([xs, *cols.values()])
        _write_csv(out / "fig1a_density_grid.csv", ["x"] + list(cols), rows)
        return {"figure": figure_id, "r": r, "t_values": ts,
                "files": ["fig1a_density_grid.csv"]}
    if figure_id == "fig1b":
        ns = [1, 2, 10, 100, math.inf]
        xs = np.linspace(-1.0, 4.0, 2001)
        cols = {f"n={'inf' if n == math.inf else int(n)}": cx.SpikeFamily(n).density(xs)
                for n in ns}
        rows = np.column_stack([xs, *cols.values()])
        _write_csv(out / "fig1b_density_grid.csv", ["x"] + list(cols), rows)
        return {"figure": figure_id, "n_values": ["1", "2", "10", "100", "inf"],
                "files": ["fig1b_density_grid.csv"]}
    if figure_id == "figB1":
        m = cx.LiminfOnlyMeasure(depth=20)
        rows = [(lvl, side, float(lo), float(hi), float(h))
                for lvl, side, lo, hi, h in m.intervals()]
        _write_csv(out / "figB1_intervals.csv",
                   ["level", "anchor_sign", "offset_lo", "offset_hi", "height"], rows)
        marks = [(n, m.delta_radius(n)) for n in range(1, 11)]
        _write_csv(out / "figB1_markers.csv", ["n", "alpha_n"], marks)
        return {"figure": figure_id,
                "files": ["figB1_intervals.csv", "figB1_markers.csv"],
                "note": "offsets measured rightward from -1 / leftward from +1"}
    if figure_id == "figB3":
        m = cx.OmNotStrongMeasure(levels=6)
        xs = np.linspace(0.5, 5.5, 4001)
        xs = xs[np.abs(xs - np.round(xs)) > 1e-6]  # avoid the singular points
        rows = np.column_stack([xs, m.density(xs)])
        _write_csv(out / "figB3_density_grid.csv", ["x", "density"], rows)
        marks = [(k, float(k), float(k - 0.5 / k ** 4), float(k + 0.5 / k ** 4))
                 for k in range(1, 6)]
        _write_csv(out / "figB3_markers.csv",
                   ["k", "spike_location", "plateau_lo", "plateau_hi"], marks)
        return {"figure": figure_id,
                "files": ["figB3_density_grid.csv", "figB3_markers.csv"]}
    raise ConfigError(f"unknown figure id {figure_id!r}")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    ap = argparse.ArgumentParser(prog="ommap",
                                 description="small-ball mode analysis experiment runner")
    ap.add_argument("--seed", type=int, default=None,
                    help="root seed, a non-negative integer; overrides the config seed")
    ap.add_argument("--out", type=str, default="ommap-out", help="output directory")
    sub = ap.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="execute an experiment config")
    run.add_argument("config", type=str)
    val = sub.add_parser("validate", help="schema-check an experiment config")
    val.add_argument("config", type=str)
    rep = sub.add_parser("reproduce", help="emit plot-ready grids for a figure")
    rep.add_argument("figure_id", type=str,
                     choices=["fig1a", "fig1b", "figB1", "figB3"])
    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.seed is not None and args.seed < 0:
        _parser().error(f"argument --seed: must be a non-negative integer, not {args.seed}")
    try:
        if args.command == "validate":
            validate_config(_read_config(args.config))
            print("config ok")
            return 0
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        if args.command == "reproduce":
            meta = _reproduce(args.figure_id, out)
            _write_json(out / "results.json", meta)
            print(f"wrote {out / 'results.json'}")
            return 0
        cfg = _read_config(args.config)
        validate_config(cfg)
        seed = args.seed if args.seed is not None else cfg.get("seed", 0)
        if cfg.get("output"):
            out = out / cfg["output"]
            out.mkdir(parents=True, exist_ok=True)
        results, tables = _RUNNERS[cfg["kind"]](cfg, seed)
        payload = {"kind": cfg["kind"], "seed": seed, "results": results}
        _write_json(out / "results.json", payload)
        for name, (header, rows) in tables.items():
            _write_csv(out / f"{name}.csv", header, rows)
        print(f"wrote {out / 'results.json'}")
        return 0
    except json.JSONDecodeError as exc:
        print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"error: numerical blow-up: {exc}", file=sys.stderr)
        return 3
    except OmmapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
