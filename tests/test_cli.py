"""CLI runner: schema validation, outputs, determinism, exit codes."""

import csv
import json
import math
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import ommap
from ommap import MixtureFamily, OmNotStrongMeasure, SpikeFamily
from ommap.cli import _schema, main, validate_config
from ommap.errors import ConfigError


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
    ], ids=["unknown-measure-param", "missing-measure-param", "unknown-counterexample-param",
            "wrong-type-spike-n", "wrong-type-mixture-t", "wrong-type-norm-p",
            "wrong-type-kl-sigmas", "wrong-type-spike-n-values", "wrong-type-om-not-strong-levels",
            "wrong-type-crosses-r", "empty-perturbation-indices", "empty-gamma-check-indices",
            "zero-n-dip", "n-dip-beyond-levels", "zero-kl-tilt", "one-kl-tilt",
            "removed-mc-n-boot"])
    def test_bad_registered_params_exit_2(self, tmp_path, capsys, cfg, field):
        code, _ = run_cli(tmp_path, cfg)
        assert code == 2
        assert field in capsys.readouterr().err

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
        cfg = {"kind": "gamma_check", "seed": 0,
               "family": {"type": "gaussian", "mean": [0.0, 0.0],
                          "eigenvalues": [2.0, 1.0], "mean_shift": [1.0, 0.0],
                          "eigenvalue_shift": [0.5, 0.5]},
               "indices": list(range(1, 25)),
               "liminf_points": [[0.0, 0.0], [0.5, -0.5]],
               "recovery_points": [[0.3, 0.3]],
               "t_values": [0.5, 2.0], "sublevel_samples": 500,
               "tolerances": {"value_tol": 0.01, "min_tol": 0.01,
                              "cluster_tol": 0.01}}
        code, out = run_cli(tmp_path, cfg)
        assert code == 0
        results = json.loads((out / "results.json").read_text())
        assert results["results"]["verdict"] == "pass"

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
               "norm": {"p": 1, "weights": [1.0, 1.0]},
               "tolerances": {"refine": False}}
        code, out = run_cli(tmp_path, cfg)
        assert code == 0
        results = json.loads((out / "results.json").read_text())
        assert results["results"]["strong"] == "yes"
        assert results["results"]["global_weak"] == "yes"
        assert results["results"]["caveat"] == "sup over competitor set only, not over all of X"

    def test_classify_mode_ball_masses_follow_mc_block_and_seed(self, tmp_path):
        # l2 balls of a 2-d Gaussian have no closed form: every mass is
        # Monte Carlo, so its standard error depends on the seed
        cfg = {"kind": "classify_mode",
               "measure": {"type": "gaussian", "mean": [0.0, 0.0], "eigenvalues": [1.0, 0.5]},
               "candidate": [0.0, 0.0], "competitors": [[0.5, 0.0]],
               "schedule": {"r0": 0.4, "levels": 3}, "norm": {"p": 2},
               "mc": {"n_samples": 2000, "n_batches": 4}}
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

    @pytest.mark.parametrize("fig", ["fig1a", "fig1b"])
    def test_density_grid_bytes(self, tmp_path, fig):
        if fig == "fig1a":
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
