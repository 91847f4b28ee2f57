"""tools/check_bench_json.py on hand-made benchmark records."""

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "check_bench_json.py"


def _record(metric, parent, change):
    side = lambda median: {"median": median, "q1": median, "q3": median, "n": 10}
    return {"claimed": {"workload": "cli_kinds", "metric": metric},
            "workloads": {"cli_kinds": {"metrics": {metric: {"parent": side(parent),
                                                             "change": side(change)}}}}}


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

