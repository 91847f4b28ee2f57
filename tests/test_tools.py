"""tools/check_bench_json.py on hand-made benchmark records."""

import json
import subprocess
import sys
from pathlib import Path

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
