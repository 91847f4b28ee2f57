"""CLI runner: schema validation, outputs, determinism, exit codes."""

import contextlib
import csv
import dataclasses
import importlib.util
import inspect
import json
import math
import pkgutil
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import ommap
import ommap.cli as cli
from ommap import (ClassifyOpts, MixtureFamily, ModeConvOpts, OmNotStrongMeasure, ProxOpts,
                   RatioOpts, SpikeFamily, radius_schedule)
from ommap.cli import _json_default, _schema, _write_csv, main, validate_config
from ommap.errors import ConfigError


_GAUSS_RATIO = {"kind": "ball_ratio", "x1": [0.5], "x2": [0.0],
                "measure": {"type": "gaussian", "mean": [0.0], "eigenvalues": [1.0]}}


def run_cli(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    return main(["--out", str(out), "run", str(path)]), out


class TestValidation:
    def test_missing_kind_rejected(self):
        with pytest.raises(ConfigError, match="kind"):
            validate_config({"name": "liminf_only"})

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            validate_config({"kind": "counterexample", "name": "crosses",
                             "bogus_field": 1})

    def test_valid_config_passes(self):
        validate_config({"kind": "counterexample", "name": "crosses", "seed": 1})

    def test_validate_subcommand_exit_codes(self, tmp_path):
        good = tmp_path / "good.json"
        good.write_text(json.dumps({"kind": "counterexample", "name": "spike"}))
        assert main(["validate", str(good)]) == 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"kind": "nope"}))
        assert main(["validate", str(bad)]) == 2
        notjson = tmp_path / "broken.json"
        notjson.write_text("{")
        assert main(["validate", str(notjson)]) == 2

    def test_schema_is_the_packaged_file(self):
        packaged = Path(ommap.__file__).resolve().parent / "schema.json"
        schema = _schema()
        assert schema == json.loads(packaged.read_text())
        jsonschema.Draft202012Validator.check_schema(schema)

    def test_option_blocks_list_only_fields_of_their_record(self):
        # a key the record lacks would pass validation and end in a TypeError
        schema = _schema()

        def keys(block):
            if "$ref" in block:
                block = schema["$defs"][block["$ref"].rsplit("/", 1)[1]]
            return set(block["properties"])

        def fields(record):
            return {f.name for f in dataclasses.fields(record)}

        records = {"mc": fields(RatioOpts),
                   "schedule": set(inspect.signature(radius_schedule).parameters),
                   ("classify_mode", "tolerances"): fields(ClassifyOpts),
                   ("gamma_check", "tolerances"): fields(ModeConvOpts),
                   ("map_solve", "solver"): fields(ProxOpts)}
        seen = set()
        for branch in schema["oneOf"]:
            props = branch["properties"]
            kind = props["kind"]["const"]
            for block in ("mc", "schedule", "tolerances", "solver"):
                if block in props:
                    key = block if block in records else (kind, block)
                    assert keys(props[block]) <= records[key], (kind, block)
                    seen.add(key)
        assert seen == set(records)


_GAUSS_1D = {"type": "gaussian", "mean": [0.0], "eigenvalues": [1.0]}
_OBS_1D = {"matrix": [[1.0]], "noise_cov": [1.0], "data": [1.0]}

#: one schema-valid config of each kind
VALID_CONFIGS = {
    "ball_ratio": {"kind": "ball_ratio", "seed": 1, "measure": _GAUSS_1D, "x1": [0.5],
                   "x2": [0.0], "norm": {"p": 2}, "schedule": {"r0": 0.2, "levels": 4}},
    "classify_mode": {"kind": "classify_mode", "measure": _GAUSS_1D, "candidate": [0.0],
                      "competitors": [[0.5]], "norm": {"p": "inf"}},
    "m_property": {"kind": "m_property", "outside_points": [[0.0, 1.0]],
                   "measure": {"type": "gaussian", "mean": [0.0, 0.0],
                               "eigenvalues": [1.0, 0.0]},
                   "norm": {"p": 2, "weights": [1.0, 1.0]}},
    "gamma_check": {"kind": "gamma_check", "indices": [1, 2, 3],
                    "family": {"type": "besov1", "s": 1.0, "d": 1, "eta": 1.0, "dim": 2}},
    "map_solve": {"kind": "map_solve", "prior": _GAUSS_1D, "observation": _OBS_1D},
    "perturbation": {"kind": "perturbation", "perturb": "data", "prior": _GAUSS_1D,
                     "observation": _OBS_1D, "indices": [1, 2], "data_direction": [1.0]},
    "small_noise": {"kind": "small_noise", "prior": _GAUSS_1D, "observation": _OBS_1D,
                    "n_list": [1, 10]},
    "counterexample": {"kind": "counterexample", "name": "crosses", "params": {"r": 1.0}},
}

#: per kind, the (field, value) pairs that break its valid config
_BREAKS = {
    "ball_ratio": [("measure", {"type": "gaussian", "mean": "x", "eigenvalues": [1.0]}),
                   ("norm", {"p": "two"}), ("x2", None)],
    "classify_mode": [("measure", {"type": "besov1", "s": 1.0}), ("norm", {"p": 0}),
                      ("competitors", [0.5])],
    "m_property": [("measure", 3), ("norm", {"p": 2, "weights": "w"}),
                   ("outside_points", None)],
    "gamma_check": [("family", {"type": "laplace"}), ("family", None), ("indices", "x")],
    "map_solve": [("prior", {"type": "density1d"}), ("observation", {"matrix": [[1.0]]}),
                  ("solver", []), ("solver", {"check_uniqueness": True})],
    "perturbation": [("perturb", "noise"), ("prior", None), ("data_direction", ["a"])],
    "small_noise": [("prior", {**_GAUSS_1D, "basis": 1}), ("n_list", None), ("seed", 1.5),
                    ("n_list", [])],
    "counterexample": [("name", "nope"), ("params", 3), ("name", None)],
}


def _broken(kind, field, value):
    cfg = {k: v for k, v in VALID_CONFIGS[kind].items() if k != field}
    if value is not None:
        cfg[field] = value
    return cfg


INVALID_CONFIGS = [
    *(pytest.param(_broken(kind, field, value), id=f"{kind}-{field}-{i}")
      for kind, breaks in _BREAKS.items() for i, (field, value) in enumerate(breaks)),
    *(pytest.param({**cfg, "bogus": 1}, id=f"{kind}-extra-property")
      for kind, cfg in VALID_CONFIGS.items()),
    pytest.param({**_broken("ball_ratio", "norm", {"p": "two"}), "x1": "x", "bogus": 1},
                 id="ball_ratio-three-errors"),
    # $defs/vector items: only a list of ints and floats skips jsonschema's own check
    pytest.param(_broken("ball_ratio", "x1", [0.5, "a"]), id="vector-item-string"),
    pytest.param(_broken("ball_ratio", "x2", [True]), id="vector-item-true"),
    pytest.param(_broken("classify_mode", "candidate", [None]), id="vector-item-null"),
    pytest.param(_broken("m_property", "outside_points", [[0.0, [1.0]]]),
                 id="vector-item-nested-list"),
    pytest.param(_broken("ball_ratio", "measure", {**_GAUSS_1D, "mean": []}),
                 id="vector-empty-mean"),
    pytest.param({"name": "crosses"}, id="no-kind"),
    pytest.param({"kind": "nope", "name": "crosses"}, id="unknown-kind"),
    pytest.param({"kind": ["ball_ratio"]}, id="list-kind"),
    pytest.param(["ball_ratio"], id="not-an-object-list"),
    pytest.param("ball_ratio", id="not-an-object-str"),
    pytest.param(3, id="not-an-object-int"),
]


def whole_schema_message(cfg):
    """The error of a check against the whole schema, where a config of a
    known kind is reported by the first error of that kind's oneOf branch;
    None for a valid config."""
    schema = _schema()
    validator = jsonschema.Draft202012Validator(schema)
    errors = sorted(validator.iter_errors(cfg), key=lambda e: list(e.absolute_path))
    if not errors:
        return None
    err = errors[0]
    kinds = [b["properties"]["kind"]["const"] for b in schema["oneOf"]]
    if (err.validator == "oneOf" and not err.absolute_path and isinstance(cfg, dict)
            and cfg.get("kind") in kinds):
        branch = kinds.index(cfg["kind"])
        err = min((e for e in err.context if e.relative_schema_path[0] == branch),
                  key=lambda e: list(e.absolute_path))
    loc = "/".join(str(p) for p in err.absolute_path) or "<root>"
    return f"config field {loc}: {err.message}"


class TestBranchValidation:
    """A config of a known kind is checked against its own branch only, with
    the same verdict and message as the whole schema gives."""

    @pytest.mark.parametrize("kind", list(VALID_CONFIGS))
    def test_valid_config_of_each_kind_passes(self, kind):
        assert whole_schema_message(VALID_CONFIGS[kind]) is None
        validate_config(VALID_CONFIGS[kind])

    def test_every_kind_has_a_config(self):
        assert set(VALID_CONFIGS) == {b["properties"]["kind"]["const"]
                                      for b in _schema()["oneOf"]}

    @pytest.mark.parametrize("cfg", INVALID_CONFIGS)
    def test_same_message_as_the_whole_schema(self, cfg):
        want = whole_schema_message(cfg)
        assert want is not None
        with pytest.raises(ConfigError) as err:
            validate_config(cfg)
        assert str(err.value) == want

    def test_schema_read_once_per_kind(self, monkeypatch):
        reads = []
        monkeypatch.setattr(cli, "_schema", lambda: reads.append(1) or _schema())
        cli._validator.cache_clear()
        try:
            for _ in range(3):
                for cfg in [*VALID_CONFIGS.values(), {"kind": "nope"}, {"kind": ["ball_ratio"]}]:
                    with contextlib.suppress(ConfigError):
                        validate_config(cfg)
        finally:
            cli._validator.cache_clear()
        # one read per kind, and one for every config of no known kind
        assert len(reads) == len(VALID_CONFIGS) + 1


def message_with_references(cfg):
    """The first error of a validator built on the kind's branch with the
    schema's $defs beside it, every $ref looked up as validation goes (the
    reference for the resolved validators); None for a valid config."""
    schema = _schema()
    kind = cfg.get("kind") if isinstance(cfg, dict) else None
    for branch in schema["oneOf"]:
        if branch["properties"]["kind"]["const"] == kind:
            schema = {"$defs": schema["$defs"], **branch}
            break
    validator = cli._validator_class()(schema)
    errors = sorted(validator.iter_errors(cfg), key=lambda e: list(e.absolute_path))
    if not errors:
        return None
    loc = "/".join(str(p) for p in errors[0].absolute_path) or "<root>"
    return f"config field {loc}: {errors[0].message}"


def _digest_corpus():
    """The invalid configs of tools/output_digests.py."""
    tool = Path(__file__).resolve().parents[1] / "tools" / "output_digests.py"
    spec = importlib.util.spec_from_file_location("output_digests", tool)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [pytest.param(cfg, id=f"digest-{label}") for label, cfg in module.INVALID_CONFIGS]


class TestOncePerProcess:
    """The parser and each kind's validator are built once per process; the
    validators look no reference up and give the messages of a validator
    that looks its references up."""

    def test_parser_built_once(self, tmp_path):
        cli._parser.cache_clear()
        for i, cfg in enumerate(VALID_CONFIGS.values()):
            path = tmp_path / f"{i}.json"
            path.write_text(json.dumps(cfg))
            assert main(["validate", str(path)]) == 0
        assert main(["--out", str(tmp_path / "out"), "reproduce", "figB1"]) == 0
        map_solve = tmp_path / f"{list(VALID_CONFIGS).index('map_solve')}.json"
        assert main(["--out", str(tmp_path / "out"), "run", str(map_solve)]) == 0
        assert cli._parser.cache_info().misses == 1

    @pytest.mark.parametrize("kind", [*VALID_CONFIGS, None])
    def test_resolved_validator_has_no_ref(self, kind):
        assert "$ref" not in json.dumps(cli._validator(kind).schema)

    @pytest.mark.parametrize("cfg", [*INVALID_CONFIGS, *_digest_corpus()])
    def test_same_first_message_as_with_references(self, cfg):
        want = message_with_references(cfg)
        if want is None:  # a NaN passes the schema; reading the file refuses it
            validate_config(cfg)
            return
        with pytest.raises(ConfigError) as err:
            validate_config(cfg)
        assert str(err.value) == want


class TestNegativeSeeds:
    def test_schema_refuses_a_negative_seed(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**VALID_CONFIGS["counterexample"], "seed": -3}))
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err == \
            "error: config field seed: -3 is less than the minimum of 0\n"

    @pytest.mark.parametrize("cfg", [
        {**VALID_CONFIGS["m_property"], "mc": {"method": "mc", "n_samples": 200}},
        {**VALID_CONFIGS["ball_ratio"], "mc": {"method": "mc", "n_samples": 200}}],
        ids=["m_property-mc", "ball_ratio-mc"])
    def test_run_that_draws_refuses_a_negative_seed(self, tmp_path, capsys, cfg):
        code, out = run_cli(tmp_path, {**cfg, "seed": -3})
        assert code == 2
        assert "seed" in capsys.readouterr().err
        assert not (out / "results.json").exists()

    def test_seed_option_refuses_a_negative_value(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**VALID_CONFIGS["ball_ratio"], "mc": {"method": "mc"}}))
        with pytest.raises(SystemExit) as exit_:
            main(["--seed", "-2", "--out", str(tmp_path / "out"), "run", str(path)])
        assert exit_.value.code == 2
        assert "argument --seed: must be a non-negative integer, not -2" in \
            capsys.readouterr().err


def _csv_rows(path: Path) -> tuple:
    with path.open() as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestCounterexampleRuns:
    """The result branches of the ``counterexample`` kind, read against the
    library's closed forms, and the header of each CSV they write."""

    def test_kl_gaussians(self, tmp_path):
        code, out = run_cli(tmp_path, {"kind": "counterexample", "name": "kl_gaussians",
                                       "params": {"sigmas": [0.5, 2.0]}})
        assert code == 0
        kl = json.loads((out / "results.json").read_text())["results"]["kl"]
        assert [r["sigma"] for r in kl] == [0.5, 2.0]
        for r in kl:
            assert r["closed_form"] == ommap.kl_gaussians(r["sigma"])
            assert r["quadrature"] == pytest.approx(r["closed_form"], rel=1e-8)
        header, rows = _csv_rows(out / "kl_gaussians.csv")
        assert header == ["sigma_variance", "closed_form", "quadrature"]
        assert [float(r[1]) for r in rows] == [r["closed_form"] for r in kl]

    def test_mixture(self, tmp_path):
        ts = [-0.1, -0.02, 0.02, 0.1]
        code, out = run_cli(tmp_path, {"kind": "counterexample", "name": "mixture",
                                       "params": {"t_values": ts}})
        assert code == 0
        results = json.loads((out / "results.json").read_text())["results"]
        assert [m["t"] for m in results["modes"]] == ts
        assert [math.copysign(1.0, m["mode"]) for m in results["modes"]] == \
            [math.copysign(1.0, t) for t in ts]
        assert results["kl_exponent"] == pytest.approx(2.0, abs=0.01)
        header, rows = _csv_rows(out / "mixture_modes.csv")
        assert (header, len(rows)) == (["t", "mode", "local_max_1", "local_max_2"], len(ts))
        header, rows = _csv_rows(out / "mixture_kl.csv")
        assert (header, len(rows)) == (["t", "kl"], 5)

    def test_spike(self, tmp_path):
        code, out = run_cli(tmp_path, {"kind": "counterexample", "name": "spike",
                                       "params": {"n_values": [10, 100, 1000]}})
        assert code == 0
        modes = json.loads((out / "results.json").read_text())["results"]["modes"]
        assert [m["n"] for m in modes] == ["10", "100", "1000", "inf"]
        for m in modes[:-1]:
            assert m["mode"] == ommap.spike_mode(int(m["n"]))
            assert m["mode"] == pytest.approx(1.0 / int(m["n"]), rel=0.02)
        assert modes[-1]["mode"] == ommap.spike_mode(math.inf)
        header, rows = _csv_rows(out / "spike_modes.csv")
        assert header == ["n", "mode", "kl_limit_vs_member"]
        assert [r[0] for r in rows] == ["10", "100", "1000", "inf"]

    def test_om_not_strong(self, tmp_path):
        code, out = run_cli(tmp_path, {"kind": "counterexample", "name": "om_not_strong",
                                       "params": {"ks": [2, 3]}})
        assert code == 0
        results = json.loads((out / "results.json").read_text())["results"]
        assert (results["weak"], results["strong"]) == ("yes", "no")
        for k in (2, 3):
            limit = results["ratio_limits"][str(k)]
            assert limit == pytest.approx(k * k, rel=1e-5)
            assert results["ratio_rel_errors"][str(k)] == pytest.approx(
                abs(limit - k * k) / (k * k), rel=1e-6)
        header, rows = _csv_rows(out / "om_not_strong_ratios.csv")
        assert header == ["k", "extrapolated_ratio", "rel_error_vs_k_squared"]
        assert [r[0] for r in rows] == ["2", "3"]


_GAMMA_CHECK = {"kind": "gamma_check", "seed": 0,
                "family": {"type": "gaussian", "mean": [0.0, 0.0],
                           "eigenvalues": [2.0, 1.0], "mean_shift": [1.0, 0.0],
                           "eigenvalue_shift": [0.5, 0.5]},
                "indices": list(range(1, 25)),
                "liminf_points": [[0.0, 0.0], [0.5, -0.5]],
                "recovery_points": [[0.3, 0.3]],
                "t_values": [0.5, 2.0],
                "tolerances": {"value_tol": 0.01, "min_tol": 0.01, "cluster_tol": 0.01}}


class TestRun:
    def test_liminf_only_csv(self, tmp_path):
        code, out = run_cli(tmp_path, {"kind": "counterexample", "name": "liminf_only",
                                       "params": {"n_max": 10}})
        assert code == 0
        with (out / "liminf_only_ratios.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 10
        assert all(float(r["ratio_at_2alpha_n"]) == 2.0 for r in rows)
        assert float(rows[2]["ratio_at_alpha_n"]) == 0.03125

    def test_map_solve_scalar(self, tmp_path):
        cfg = {"kind": "map_solve",
               "prior": {"type": "gaussian", "mean": [0.0], "eigenvalues": [1.0]},
               "observation": {"matrix": [[1.0]], "noise_cov": [1.0], "data": [2.0]}}
        code, out = run_cli(tmp_path, cfg)
        assert code == 0
        results = json.loads((out / "results.json").read_text())
        assert results["results"]["map"]["point"] == [1.0]

    def test_invalid_config_exit_2(self, tmp_path):
        code, _ = run_cli(tmp_path, {"kind": "map_solve"})
        assert code == 2

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize("name", ["missing.json", "a-directory"])
    def test_unreadable_config_exit_2(self, tmp_path, capsys, command, name):
        (tmp_path / "a-directory").mkdir()
        path = tmp_path / name
        code = main(["--out", str(tmp_path / "out"), command, str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read config {path}: ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize("cfg,constant", [
        ({"kind": "map_solve",
          "prior": {"type": "gaussian", "mean": [math.nan, 0.0], "eigenvalues": [1.0, 1.0]},
          "observation": {"matrix": [[1.0, 0.5]], "noise_cov": [1.0], "data": [2.0]}}, "NaN"),
        ({"kind": "map_solve",
          "prior": {"type": "gaussian", "mean": [0.0], "eigenvalues": [1.0]},
          "observation": {"matrix": [[1.0]], "noise_cov": [1.0], "data": [-math.inf]}},
         "-Infinity"),
        ({**_GAUSS_RATIO, "radii": [0.2, 0.1, math.nan, 0.01]}, "NaN"),
        ({**_GAUSS_RATIO, "radii": [math.inf, 0.1]}, "Infinity"),
        ({**_GAUSS_RATIO, "schedule": {"r0": math.nan}}, "NaN"),
    ], ids=["nan-mean", "minus-infinity-data", "nan-radius", "infinite-radius", "nan-r0"])
    def test_non_standard_json_constants_exit_2(self, tmp_path, capsys, command, cfg, constant):
        # Python's json reads NaN and +-Infinity, which JSON does not have
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert constant in path.read_text()
        code = main(["--out", str(tmp_path / "out"), command, str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: config {path} holds {constant}, which is not a JSON number\n"
        assert not (tmp_path / "out" / "results.json").exists()

    @pytest.mark.parametrize("cfg,field", [
        ({"kind": "ball_ratio", "x1": [0.5], "x2": [1.0],
          "measure": {"type": "density1d", "name": "spike", "params": {"m": 3}}}, "'m'"),
        ({"kind": "ball_ratio", "x1": [0.5], "x2": [1.0],
          "measure": {"type": "density1d", "name": "spike"}}, "'n'"),
        ({"kind": "counterexample", "name": "spike", "params": {"n_value": [10]}},
         "n_value"),
        ({"kind": "ball_ratio", "x1": [0.5], "x2": [1.0],
          "measure": {"type": "density1d", "name": "spike", "params": {"n": "x"}}}, "'n'"),
        ({"kind": "ball_ratio", "x1": [0.5], "x2": [1.0],
          "measure": {"type": "density1d", "name": "mixture", "params": {"t": [1]}}}, "'t'"),
        ({"kind": "ball_ratio", "x1": [0.5], "x2": [1.0], "norm": {"p": "two"},
          "measure": {"type": "gaussian", "mean": [0.0], "eigenvalues": [1.0]}}, "norm/p"),
        ({"kind": "counterexample", "name": "kl_gaussians", "params": {"sigmas": "x"}},
         "sigmas"),
        ({"kind": "counterexample", "name": "spike", "params": {"n_values": ["a"]}},
         "'n_values'"),
        ({"kind": "counterexample", "name": "om_not_strong", "params": {"levels": "x"}},
         "'levels'"),
        ({"kind": "counterexample", "name": "crosses", "params": {"r": "x"}}, "'r'"),
        ({"kind": "perturbation", "perturb": "data",
          "prior": {"type": "gaussian", "mean": [0.0], "eigenvalues": [1.0]},
          "observation": {"matrix": [[1.0]], "noise_cov": [1.0], "data": [1.0]},
          "indices": [], "data_direction": [1.0]}, "indices"),
        ({"kind": "gamma_check",
          "family": {"type": "gaussian", "mean": [0.0], "eigenvalues": [1.0]},
          "indices": []}, "indices"),
        ({"kind": "counterexample", "name": "om_not_strong", "params": {"n_dip": 0}}, "n_dip"),
        ({"kind": "counterexample", "name": "om_not_strong", "params": {"n_dip": 40}},
         "n_dip"),
        ({"kind": "counterexample", "name": "mixture", "params": {"kl_t_values": [0, 0.1]}},
         "kl_t_values"),
        ({"kind": "counterexample", "name": "mixture", "params": {"kl_t_values": [0.1]}},
         "kl_t_values"),
        ({"kind": "ball_ratio", "x1": [0.5], "x2": [0.0], "mc": {"n_boot": 100},
          "measure": {"type": "gaussian", "mean": [0.0], "eigenvalues": [1.0]}}, "n_boot"),
        ({"kind": "ball_ratio", "x1": [0.5, 0.0], "x2": [1.0], "radii": [0.1, 0.05],
          "measure": {"type": "density1d", "name": "mixture", "params": {"t": 0.05}}},
         "centre in R^1"),
        ({"kind": "ball_ratio", "x1": [-1.0], "x2": [1.0], "radii": [0.1, 0.05],
          "norm": {"p": 2, "weights": [3]},
          "measure": {"type": "density1d", "name": "liminf_only"}}, "own norm"),
        ({"kind": "classify_mode", "candidate": [0.0], "competitors": [[0.5]],
          "tolerances": {"refine": False},
          "measure": {"type": "gaussian", "mean": [0.0], "eigenvalues": [1.0]}}, "refine"),
        ({"kind": "perturbation", "perturb": "data",
          "prior": {"type": "gaussian", "mean": [0.0, 0.0], "eigenvalues": [1.0, 1.0]},
          "observation": {"matrix": [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
                          "noise_cov": [1.0, 1.0, 1.0], "data": [1.0, -1.0, 0.0]},
          "indices": [1, 2], "data_direction": [1.0, 0.0]}, "config field data_direction"),
        ({"kind": "gamma_check", "indices": [1, 2, 3],
          "family": {"type": "gaussian", "mean": [0.0, 0.0], "eigenvalues": [2.0, 1.0],
                     "mean_shift": [1.0, 0.0, 0.0]}}, "config field family/mean_shift"),
        ({"kind": "gamma_check", "indices": [1, 2, 3],
          "family": {"type": "gaussian", "mean": [0.0, 0.0], "eigenvalues": [2.0, 1.0],
                     "eigenvalue_shift": [1.0]}}, "config field family/eigenvalue_shift"),
    ], ids=["unknown-measure-param", "missing-measure-param", "unknown-counterexample-param",
            "wrong-type-spike-n", "wrong-type-mixture-t", "wrong-type-norm-p",
            "wrong-type-kl-sigmas", "wrong-type-spike-n-values", "wrong-type-om-not-strong-levels",
            "wrong-type-crosses-r", "empty-perturbation-indices", "empty-gamma-check-indices",
            "zero-n-dip", "n-dip-beyond-levels", "zero-kl-tilt", "one-kl-tilt",
            "removed-mc-n-boot", "density1d-centre-of-another-dimension",
            "density1d-weighted-norm", "removed-classify-refine", "short-data-direction",
            "long-mean-shift", "short-eigenvalue-shift"])
    def test_bad_registered_params_exit_2(self, tmp_path, capsys, cfg, field):
        code, _ = run_cli(tmp_path, cfg)
        assert code == 2
        assert field in capsys.readouterr().err

    def test_ratio_interval_past_the_largest_float(self, tmp_path):
        cfg = {"kind": "ball_ratio", "measure": {"type": "gaussian", "mean": [0.0],
                                                 "eigenvalues": [1.0]},
               "x1": [0.0], "x2": [37.67], "schedule": {"r0": 0.2, "levels": 6},
               "norm": {"p": "inf"}}
        code, out = run_cli(tmp_path, cfg)
        assert code == 0
        results = json.loads((out / "results.json").read_text())["results"]
        assert results["diagnostic"] == "ci-upper-overflow"
        assert results["ci"][1] == math.inf and math.isfinite(results["limit"])

    def test_every_csv_has_header(self, tmp_path):
        cfg = {"kind": "counterexample", "name": "crosses"}
        code, out = run_cli(tmp_path, cfg)
        assert code == 0
        for f in out.glob("*.csv"):
            header = f.read_text().splitlines()[0]
            assert header and not header[0].isdigit()

    def test_determinism_byte_identical(self, tmp_path):
        cfg = {"kind": "ball_ratio", "seed": 5,
               "measure": {"type": "gaussian", "mean": [0.0, 0.0],
                           "eigenvalues": [1.0, 2.0]},
               "x1": [0.5, 0.0], "x2": [0.0, 0.0],
               "schedule": {"r0": 0.2, "levels": 6},
               "norm": {"p": 2, "weights": [1.0, 1.0]},
               "mc": {"n_samples": 20000}}
        _, out1 = run_cli(tmp_path, cfg, name="a.json")
        first = (out1 / "results.json").read_bytes()
        (out1 / "results.json").unlink()
        code, out2 = run_cli(tmp_path, cfg, name="b.json")
        assert code == 0
        assert (out2 / "results.json").read_bytes() == first

    def test_gamma_check_summary(self, tmp_path):
        code, out = run_cli(tmp_path, _GAMMA_CHECK)
        assert code == 0
        results = json.loads((out / "results.json").read_text())
        assert results["results"]["verdict"] == "pass"

    def test_gamma_check_ignores_sublevel_samples(self, tmp_path):
        # the field stays valid, but the equicoercivity probe draws nothing
        _, out1 = run_cli(tmp_path, {**_GAMMA_CHECK, "sublevel_samples": 50}, name="a.json")
        first = (out1 / "results.json").read_bytes()
        (out1 / "results.json").unlink()
        code, out2 = run_cli(tmp_path, _GAMMA_CHECK, name="b.json")
        assert code == 0
        assert (out2 / "results.json").read_bytes() == first

    def test_gamma_check_reads_no_seed(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(_GAMMA_CHECK))
        results = []
        for seed in (1, 2):
            out = tmp_path / f"seed{seed}"
            assert main(["--seed", str(seed), "--out", str(out), "run", str(path)]) == 0
            results.append(json.loads((out / "results.json").read_text()))
        assert [r.pop("seed") for r in results] == [1, 2]
        assert results[0] == results[1]

    def test_gamma_check_with_an_undecided_liminf_is_inconclusive(self, tmp_path):
        # F(0, 1) is +inf on the degenerate family, so the only liminf probe
        # cannot run; every other part passes, and the bundle is not a pass
        cfg = {"kind": "gamma_check",
               "family": {"type": "gaussian", "mean": [0.0, 0.0], "eigenvalues": [1.0, 0.0]},
               "liminf_points": [[0.0, 1.0]]}
        code, out = run_cli(tmp_path, cfg)
        assert code == 0
        results = json.loads((out / "results.json").read_text())["results"]
        assert results["verdict"] == "inconclusive"
        assert results["liminf"][0]["verdict"] == "inconclusive"
        assert results["liminf"][0]["note"] == \
            "limit value is +inf; a finite probe cannot certify it"
        with (out / "gamma_summary.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[1] == ["liminf", "inconclusive", "0"]
        assert {r[1] for r in rows[2:]} == {"pass"}

    def test_gamma_check_recovery_gap_at_round_off_passes(self, tmp_path):
        # F(x) = 6.5e6 here, and the recovery gap of 2.8e-9 is about 4e-16
        # of it: round-off, judged against 1e-10 * max(1, |F(x)|)
        cfg = {"kind": "gamma_check",
               "family": {"type": "gaussian", "mean": [0.1, -0.2, 0.3],
                          "eigenvalues": [1.0, 0.5, 0.25], "eigenvalue_shift": [0.5, 0.2, 0.1]},
               "recovery_points": [[1e3, 2e3, -1e3]], "check_modes": False}
        code, out = run_cli(tmp_path, cfg)
        assert code == 0
        with (out / "gamma_summary.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[1][:2] == ["recovery", "pass"]
        assert 1e-10 < float(rows[1][2]) < 1e-15 * 6.5e6

    def test_small_noise_run(self, tmp_path):
        cfg = {"kind": "small_noise",
               "prior": {"type": "gaussian", "mean": [0.0, 0.0],
                         "eigenvalues": [1.0, 1.0]},
               "observation": {"matrix": [[1.0, 1.0]], "noise_cov": [1.0],
                               "data": [1.0]},
               "n_list": [1, 10, 100, 1000]}
        code, out = run_cli(tmp_path, cfg)
        assert code == 0
        results = json.loads((out / "results.json").read_text())
        assert results["results"]["constrained_point"] == pytest.approx([0.5, 0.5],
                                                                        abs=1e-10)

    def test_m_property_run(self, tmp_path):
        cfg = {"kind": "m_property",
               "measure": {"type": "gaussian", "mean": [0.0, 0.0],
                           "eigenvalues": [1.0, 0.0]},
               "outside_points": [[0.0, 1.0]],
               "schedule": {"r0": 0.4, "levels": 6},
               "norm": {"p": 2, "weights": [1.0, 1.0]},
               "mc": {"n_samples": 2000}}
        code, out = run_cli(tmp_path, cfg)
        assert code == 0
        results = json.loads((out / "results.json").read_text())
        assert results["results"]["all_pass"] is True


    def test_m_property_besov_has_no_off_domain_points(self, tmp_path, capsys):
        cfg = {"kind": "m_property",
               "measure": {"type": "besov1", "s": 1.0, "d": 1, "eta": 1.0, "dim": 3},
               "outside_points": [[1.0, 0.0, 0.0]],
               "schedule": {"r0": 0.4, "levels": 4},
               "mc": {"n_samples": 2000}}
        code, _ = run_cli(tmp_path, cfg)
        assert code == 2
        err = capsys.readouterr().err
        assert "finite on all of R^3 (every truncated vector is summable)" in err
        assert "no off-domain points to probe" in err
        assert "passes the domain test" not in err


class TestMoreKinds:
    def test_classify_mode_crosses(self, tmp_path):
        cfg = {"kind": "classify_mode",
               "measure": {"type": "density1d", "name": "crosses",
                           "params": {"norm_choice": "1"}},
               "candidate": [1.0, 0.0],
               "competitors": [[-1.0, 0.0], [1.5, 0.0]],
               "schedule": {"r0": 0.2, "levels": 4},
               "norm": {"p": 1, "weights": [1.0, 1.0]}}
        code, out = run_cli(tmp_path, cfg)
        assert code == 0
        results = json.loads((out / "results.json").read_text())
        assert results["results"]["strong"] == "yes"
        assert results["results"]["global_weak"] == "yes"
        assert results["results"]["caveat"] == \
            "sup mass exact: the largest over the measure's heaviest centres"

    def test_classify_mode_ball_masses_follow_mc_block_and_seed(self, tmp_path):
        # the mc block forces Monte Carlo masses for these l2 balls of a
        # 2-d Gaussian, so their standard error depends on the seed
        cfg = {"kind": "classify_mode",
               "measure": {"type": "gaussian", "mean": [0.0, 0.0], "eigenvalues": [1.0, 0.5]},
               "candidate": [0.0, 0.0], "competitors": [[0.5, 0.0]],
               "schedule": {"r0": 0.4, "levels": 3}, "norm": {"p": 2},
               "mc": {"n_samples": 2000, "n_batches": 4, "method": "mc"}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        stderr = []
        for seed in (1, 2):
            out = tmp_path / f"out{seed}"
            assert main(["--seed", str(seed), "--out", str(out), "run", str(path)]) == 0
            stderr.append(json.loads((out / "results.json").read_text())
                          ["results"]["strong_ratio_stderr"])
        assert stderr[0] != stderr[1]

    def test_perturbation_data_kind(self, tmp_path):
        cfg = {"kind": "perturbation", "perturb": "data",
               "prior": {"type": "gaussian", "mean": [0.0, 0.0],
                         "eigenvalues": [1.0, 1.0]},
               "observation": {"matrix": [[1.0, 0.0], [0.0, 1.0]],
                               "noise_cov": [1.0, 1.0], "data": [1.0, -1.0]},
               "indices": [1, 2, 4, 8, 16, 32],
               "data_direction": [1.0, 0.0]}
        code, out = run_cli(tmp_path, cfg)
        assert code == 0
        results = json.loads((out / "results.json").read_text())
        d = [e["distance_to_limit"] for e in results["results"]["entries"]]
        assert d == sorted(d, reverse=True)

    @pytest.mark.parametrize("perturb, probes", [
        ("prior", {"prior_recovery_max_gap": None,
                   "prior_liminf": {"x", "n_paths", "violations", "verdict", "note"},
                   "prior_equicoercivity": {
                       "t", "n_members", "violations", "bound",
                       "verdict", "first_index_checked", "witness_index", "ratio",
                       "tail_ratio", "slope", "note"}}),
        ("potential_projection", {"potential_continuous_convergence": {
            "point", "suprema", "trend_decreasing", "final_sup", "verdict"}})])
    def test_perturbation_probe_records(self, tmp_path, perturb, probes):
        # prerequisite_probes holds records, which results.json writes as
        # their fields; the recovery gap is a number
        prior = ({"type": "besov1", "s": 1.0, "d": 1, "eta": 1.0, "dim": 3}
                 if perturb == "prior" else
                 {"type": "gaussian", "mean": [0.0, 0.0, 0.0], "eigenvalues": [2.0, 1.0, 0.5]})
        cfg = {"kind": "perturbation", "perturb": perturb, "prior": prior,
               "observation": {"matrix": [[1.0, 0.4, -0.3], [0.0, 1.0, 0.5]],
                               "noise_cov": [0.5, 1.0], "data": [3.0, -2.0]},
               "indices": [4, 8, 16, 32] if perturb == "prior" else [1, 2, 3]}
        code, out = run_cli(tmp_path, cfg)
        assert code == 0
        written = json.loads((out / "results.json").read_text())["results"]
        assert set(written["prerequisite_probes"]) == set(probes)
        for name, keys in probes.items():
            value = written["prerequisite_probes"][name]
            if keys is None:
                assert isinstance(value, float)
                continue
            for record in value if isinstance(value, list) else [value]:
                assert set(record) == keys
        assert set(written["limit"]) == {"point", "objective", "optimality_residual",
                                         "iterations", "solver", "flags"}
        assert {"n", "map"} <= set(written["entries"][0])

    def test_m_property_liminf_only(self, tmp_path):
        m_probe = __import__("ommap").LiminfOnlyMeasure(depth=40)
        radii = [m_probe.delta_radius(n) for n in range(1, 9)]
        cfg = {"kind": "m_property",
               "measure": {"type": "density1d", "name": "liminf_only",
                           "params": {"depth": 40}},
               "outside_points": [[-1.0]],
               "radii": radii}
        code, out = run_cli(tmp_path, cfg)
        assert code == 0
        results = json.loads((out / "results.json").read_text())
        assert results["results"]["all_pass"] is True


class TestJsonDefault:
    def test_numpy_values_become_python_values(self):
        for value, kind, expected in [(np.int64(3), int, 3), (np.bool_(True), bool, True),
                                      (np.float64(0.1), float, 0.1),
                                      (np.array([[1.0, 2.5]]), list, [[1.0, 2.5]])]:
            written = _json_default(value)
            assert type(written) is kind
            assert written == expected

    def test_unknown_type_is_named(self):
        class Widget:
            pass

        with pytest.raises(TypeError, match="Widget"):
            _json_default(Widget())
        with pytest.raises(TypeError, match="Widget"):
            json.dumps({"a": [Widget()]}, default=_json_default)

    def test_record_is_written_as_its_fields(self):
        @dataclasses.dataclass(frozen=True)
        class Stub:
            long_name: float = dataclasses.field(metadata={"json": "short"})
            parts: list
            total: float = dataclasses.field(init=False)

            def __post_init__(self):
                object.__setattr__(self, "total", float(sum(self.parts)))

        assert _json_default(Stub(0.5, [1, 2])) == {"short": 0.5, "parts": [1, 2], "total": 3.0}

    def test_every_record_has_one_writer(self):
        # records write no JSON of their own, and no two fields share a key:
        # the encoder's dict would keep only the last of them
        modules = [importlib.import_module(f"ommap.{m.name}")
                   for m in pkgutil.iter_modules(ommap.__path__) if not m.name.startswith("__")]
        records = [cls for mod in modules for cls in vars(mod).values()
                   if inspect.isclass(cls) and dataclasses.is_dataclass(cls)
                   and cls.__module__ == mod.__name__]
        assert len(records) > 20
        for cls in records:
            assert not hasattr(cls, "to_dict") and not hasattr(cls, "to_json"), cls.__name__
            keys = [f.metadata.get("json", f.name) for f in dataclasses.fields(cls)]
            assert len(set(keys)) == len(keys), cls.__name__


class TestReproduce:
    @pytest.mark.parametrize("fig,files", [
        ("fig1a", ["fig1a_density_grid.csv"]),
        ("fig1b", ["fig1b_density_grid.csv"]),
        ("figB1", ["figB1_intervals.csv", "figB1_markers.csv"]),
        ("figB3", ["figB3_density_grid.csv", "figB3_markers.csv"]),
    ])
    def test_figures(self, tmp_path, fig, files):
        out = tmp_path / "figs"
        assert main(["--out", str(out), "reproduce", fig]) == 0
        for f in files:
            assert (out / f).exists()
        meta = json.loads((out / "results.json").read_text())
        assert meta["figure"] == fig

    def test_fig1b_columns(self, tmp_path):
        out = tmp_path / "f"
        main(["--out", str(out), "reproduce", "fig1b"])
        header = (out / "fig1b_density_grid.csv").read_text().splitlines()[0]
        assert header.split(",") == ["x", "n=1", "n=2", "n=10", "n=100", "n=inf"]

    def test_figB3_grid_matches_scalar_density(self, tmp_path):
        out = tmp_path / "f"
        main(["--out", str(out), "reproduce", "figB3"])
        with (out / "figB3_density_grid.csv").open() as fh:
            rows = list(csv.reader(fh))[1:]
        xs = np.linspace(0.5, 5.5, 4001)
        xs = xs[np.abs(xs - np.round(xs)) > 1e-6]
        assert len(rows) == 3996
        assert [float(r[0]) for r in rows] == xs.tolist()
        m = OmNotStrongMeasure(levels=6)
        for x, (_, d) in zip(xs, rows):
            scalar = float(m.density(x))
            assert abs(float(d) - scalar) <= 4 * np.spacing(scalar)

    @pytest.mark.parametrize("fig", ["fig1a", "fig1b", "figB3"])
    def test_density_grid_bytes(self, tmp_path, fig):
        if fig == "figB3":
            xs = np.linspace(0.5, 5.5, 4001)
            xs = xs[np.abs(xs - np.round(xs)) > 1e-6]
            cols = [OmNotStrongMeasure(levels=6).density(xs)]
            header = ["x", "density"]
        elif fig == "fig1a":
            xs = np.linspace(-6.0, 6.0, 1201)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                cols = [MixtureFamily(t, 2.0).density(xs)
                        for t in [-0.2, -0.05, 0.0, 0.05, 0.2]]
            header = ["x", "t=-0.2", "t=-0.05", "t=0.0", "t=0.05", "t=0.2"]
        else:
            xs = np.linspace(-1.0, 4.0, 2001)
            cols = [SpikeFamily(n).density(xs) for n in [1, 2, 10, 100, math.inf]]
            header = ["x", "n=1", "n=2", "n=10", "n=100", "n=inf"]
        rows = [[float(x)] + [float(c[i]) for c in cols] for i, x in enumerate(xs)]
        expected = tmp_path / "expected.csv"
        with expected.open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(rows)
        out = tmp_path / "f"
        main(["--out", str(out), "reproduce", fig])
        got = (out / f"{fig}_density_grid.csv").read_bytes()
        assert got == expected.read_bytes()

    @staticmethod
    def _assert_csv_writer_bytes(tmp_path, rows):
        """``_write_csv`` of a float array writes what ``csv.writer`` writes."""
        header = [f"c{j}" for j in range(rows.shape[1])]
        expected = tmp_path / "expected.csv"
        with expected.open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(rows.tolist())
        _write_csv(tmp_path / "got.csv", header, rows)
        assert (tmp_path / "got.csv").read_bytes() == expected.read_bytes()

    def test_float_array_csv_is_what_csv_writer_writes(self, tmp_path):
        values = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 1e-5, 0.1 + 0.2]
        self._assert_csv_writer_bytes(tmp_path, np.array([values, values[::-1]]))

    @pytest.mark.parametrize("shape", [(0, 3), (4, 1), (1, 5)])
    def test_float_array_csv_edge_shapes(self, tmp_path, shape):
        rows = np.arange(math.prod(shape), dtype=float).reshape(shape) / 7.0
        self._assert_csv_writer_bytes(tmp_path, rows)
        if shape[0] == 0:
            assert (tmp_path / "got.csv").read_bytes() == b"c0,c1,c2\r\n"

    def test_float_array_csv_over_the_whole_float_range(self, tmp_path):
        rng = np.random.default_rng(2024)
        shape = (500, 7)
        # finite magnitudes from the smallest subnormal to near the largest
        # double, with random signs
        wide = np.ldexp(rng.uniform(1.0, 2.0, shape), rng.integers(-1074, 1024, shape))
        wide *= rng.choice([-1.0, 1.0], shape)
        special = rng.choice([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
                              1e308, -1e308, 2.2250738585072014e-308, 2.0 ** 53], shape)
        integral = rng.integers(-10 ** 6, 10 ** 6, shape).astype(float)
        pick = rng.integers(0, 3, shape)
        rows = np.choose(pick, [wide, special, integral])
        assert np.isnan(rows).any() and np.isinf(rows).any() and (rows == 5e-324).any()
        assert (np.signbit(rows) & (rows == 0.0)).any()
        self._assert_csv_writer_bytes(tmp_path, rows)
