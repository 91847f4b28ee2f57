"""tools/check_bench_json.py on hand-made benchmark records, and the line formats of
tools/reach.py and of the invalid-config lines of tools/output_digests.py."""

import importlib.util
import inspect
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

import ommap
import ommap.cli

TOOL = Path(__file__).resolve().parents[1] / "tools" / "check_bench_json.py"


def _entry(parent, change):
    side = lambda median: {"median": median, "q1": median, "q3": median, "n": 10}
    return {"parent": side(parent), "change": side(change)}


def _record(metric, parent, change):
    return {"claimed": {"workload": "cli_kinds", "metric": metric},
            "workloads": {"cli_kinds": {"metrics": {metric: _entry(parent, change)}}}}


def _check(tmp_path, records):
    paths = []
    for name, record in records.items():
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(record))
    done = subprocess.run([sys.executable, str(TOOL), *map(str, paths)],
                          capture_output=True, text=True, timeout=60)
    return done.returncode, done.stdout.splitlines()


def test_claimed_metric_must_move_in_its_better_direction(tmp_path):
    code, lines = _check(tmp_path, {
        "good.json": _record("setup_s", 0.8, 0.25),
        "wrong_way.json": _record("setup_s", 0.25, 0.8),
        "flat.json": _record("ref_ops_per_s", 60.0, 60.0),
        "higher.json": _record("ref_ops_per_s", 60.0, 70.0)})
    assert code == 1
    assert lines[0] == "good.json: ok"
    assert lines[1].startswith("wrong_way.json: cli_kinds/setup_s change median 0.8 "
                               "is not lower than parent median 0.25")
    assert lines[2].startswith("flat.json: cli_kinds/ref_ops_per_s change median 60.0 "
                               "is not higher")
    assert lines[3] == "higher.json: ok"



def test_no_end_to_end_metric_worse_than_its_bound(tmp_path):
    # setup_s is claimed; the other metrics ride along on two workloads
    record = _record("setup_s", 0.8, 0.25)
    record["workloads"]["cli_kinds"]["metrics"]["peak_rss_mb"] = _entry(100.0, 109.0)
    record["workloads"]["mc_ratio"] = {"metrics": {"ref_ops_per_s": _entry(60.0, 40.0),
                                                   "ref_wall_s": _entry(0.1, 0.126),
                                                   "trace.op_s": _entry(1.0, 9.0)}}
    within = json.loads(json.dumps(record))
    within["workloads"]["mc_ratio"]["metrics"].update(ref_ops_per_s=_entry(60.0, 46.0),
                                                      ref_wall_s=_entry(0.1, 0.124))
    code, lines = _check(tmp_path, {"beyond.json": record, "within.json": within})
    assert code == 1
    # peak_rss_mb +9% is inside its bound 0.1; trace.op_s is not end to end
    assert lines == [
        "beyond.json: mc_ratio/ref_wall_s change median 0.126 is +26.0% worse than "
        "parent median 0.1, beyond its bound 0.25",
        "beyond.json: mc_ratio/ref_ops_per_s change median 40.0 is +33.3% worse than "
        "parent median 60.0, beyond its bound 0.25",
        "within.json: ok"]


def test_record_claiming_no_gain_gets_the_bound_check_only(tmp_path):
    # "claimed": null names no metric that must improve; the bounds still hold
    flat = {"claimed": None,
            "workloads": {"cli_kinds": {"metrics": {"ref_wall_s": _entry(0.15, 0.15),
                                                    "setup_s": _entry(0.2, 0.24)}}}}
    beyond = json.loads(json.dumps(flat))
    beyond["workloads"]["cli_kinds"]["metrics"]["ref_wall_s"] = _entry(0.1, 0.126)
    unclaimed = {key: value for key, value in flat.items() if key != "claimed"}
    code, lines = _check(tmp_path, {"flat.json": flat, "beyond.json": beyond,
                                    "unclaimed.json": unclaimed})
    assert code == 1
    assert lines == [
        "flat.json: ok",
        "beyond.json: cli_kinds/ref_wall_s change median 0.126 is +26.0% worse than "
        "parent median 0.1, beyond its bound 0.25",
        "unclaimed.json: cannot read a claimed workload and metric: KeyError('claimed')"]


def _reach_module():
    spec = importlib.util.spec_from_file_location("reach", TOOL.parent / "reach.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reach_lists_unreached_functions_then_the_total():
    reach = _reach_module()
    funcs = reach.functions()
    keys, out = reach.reached(lambda: ommap.project([1.0, 2.0], 1))
    np.testing.assert_array_equal(out, [1.0, 0.0])
    lines = reach.report(funcs, keys)
    for line in lines[:-1]:
        assert re.fullmatch(r"ommap\.\w+ \d+ \w+(\.\w+)* \d+", line), line
    assert lines[-1] == (f"reached {len(funcs) - len(lines) + 1}/{len(funcs)} functions, "
                         f"{sum(int(line.split()[-1]) for line in lines[:-1])} unreached lines")
    # module, first line, dotted name, line count; nested functions count on their own
    body, first = inspect.getsourcelines(ommap.weighted_norm)
    assert f"ommap.spaces {first} weighted_norm {len(body)}" in lines
    assert any(line.split()[2] == "SpectralOperator.zero_mask" for line in lines)
    assert any(line.split()[2] == "projected_potential.grad" for line in lines)
    assert not any(line.split()[2] == "project" for line in lines)


def test_output_digests_lists_each_invalid_config_with_exit_code_2():
    # the invalid-config corpus alone, in a process of its own: the tool
    # sets its BLAS threads and import path when it loads
    script = ("import sys; sys.path.insert(0, 'tools'); import output_digests as od; "
              "print(*(label for label, _ in od.INVALID_CONFIGS), file=sys.stderr); "
              "sys.exit(od._invalid_digests())")
    done = subprocess.run([sys.executable, "-c", script], cwd=TOOL.parents[1],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    labels = done.stderr.split()
    lines = done.stdout.splitlines()
    assert len(lines) == len(labels)
    for line, label in zip(lines, labels):
        assert re.fullmatch(rf"cli_invalid {re.escape(label)} 2 [0-9a-f]{{16}}", line), line
    # a bad value inside every $defs entry that a branch refers to
    defs = json.loads((TOOL.parents[1] / "src" / "ommap" / "schema.json").read_text())["$defs"]
    assert set(defs) <= {label.split(".")[0] for label in labels}


def test_output_digests_liminf_config_reads_the_oscillating_ratios(tmp_path):
    # the config as the tool builds it, from a process of its own (the tool
    # sets its BLAS threads and import path when it loads)
    script = ("import json, sys; sys.path.insert(0, 'tools'); import output_digests as od; "
              "print(json.dumps(dict(od.EXTRA_CONFIGS)['ball_ratio.liminf_only']))")
    done = subprocess.run([sys.executable, "-c", script], cwd=TOOL.parents[1],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    path = tmp_path / "cfg.json"
    path.write_text(done.stdout)
    assert ommap.cli.main(["--out", str(tmp_path / "out"), "run", str(path)]) == 0
    ratios = json.loads((tmp_path / "out" / "results.json").read_text())["results"]["ratios"]
    want = [q for n in range(1, 9) for q in (2.0, 2.0 ** -(n + 2))]
    np.testing.assert_allclose(ratios, want, rtol=1e-12, atol=0)


def test_output_digests_flags_words_outside_the_verdict_vocabularies():
    # the walker alone, in a process of its own (the tool sets its BLAS
    # threads and import path when it loads)
    results = {"results": {"verdict": "mixed", "strong": "yes", "global_weak": "maybe",
                           "liminf": [{"verdict": "pass"}, {"verdict": "skipped"}],
                           "equicoercivity": [{"verdict": "vacuous-pass"}],
                           "mode_convergence": {"verdict": "inconclusive", "note": "x"},
                           "report": {"weak": "no", "strong": "inconclusive"}},
               "verdict": "fail"}
    script = ("import json, sys; sys.path.insert(0, 'tools'); import output_digests as od; "
              "print(json.dumps(od.off_vocabulary(json.loads(sys.stdin.read()))))")
    done = subprocess.run([sys.executable, "-c", script], cwd=TOOL.parents[1],
                          input=json.dumps(results), capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == ["/results/verdict: 'mixed'",
                                       "/results/global_weak: 'maybe'",
                                       "/results/liminf/1/verdict: 'skipped'",
                                       "/results/equicoercivity/0/verdict: 'vacuous-pass'"]
