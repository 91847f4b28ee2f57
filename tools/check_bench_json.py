"""Check the committed BENCH_*.json records against BENCHMARK.json.

Each record must name a ``claimed`` workload listed in BENCHMARK.json and
a claimed metric listed there as end to end, and that metric must carry a
numeric parent and change median, the change's better than the parent's
in the metric's ``better`` direction.

    python3 tools/check_bench_json.py            # every BENCH_*.json at the repo root
    python3 tools/check_bench_json.py FILE ...   # the given records

Exits 1 and names each problem when a record fails, else 0.
"""

import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def problems(path: Path, workloads: set, metrics: dict) -> list:
    """The problems of one record; ``metrics`` maps each end-to-end metric
    to its ``better`` direction, "lower" or "higher"."""
    try:
        record = json.loads(path.read_text())
        workload, metric = record["claimed"]["workload"], record["claimed"]["metric"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"cannot read a claimed workload and metric: {exc!r}"]
    out = []
    if workload not in workloads:
        out.append(f"claimed workload {workload!r} is not listed in BENCHMARK.json")
    if metric not in metrics:
        out.append(f"claimed metric {metric!r} is not an end-to-end metric of BENCHMARK.json")
    entry = record.get("workloads", {}).get(workload, {}).get("metrics", {}).get(metric, {})
    medians = {}
    for side in ("parent", "change"):
        median = entry.get(side, {}).get("median") if isinstance(entry, dict) else None
        numeric = isinstance(median, (int, float)) and not isinstance(median, bool)
        if numeric and math.isfinite(median):
            medians[side] = median
        else:
            out.append(f"{workload}/{metric} has no numeric {side} median")
    if len(medians) == 2 and metric in metrics:
        fall = medians["parent"] - medians["change"]
        if not (fall > 0 if metrics[metric] == "lower" else fall < 0):
            out.append(f"{workload}/{metric} change median {medians['change']!r} is not "
                       f"{metrics[metric]} than parent median {medians['parent']!r}")
    return out


def main(argv: list) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in bench["workloads"]}
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}
    paths = [Path(a) for a in argv] or sorted(ROOT.glob("BENCH_*.json"))
    failed = False
    for path in paths:
        found = problems(path, workloads, metrics)
        failed = failed or bool(found)
        for msg in found:
            print(f"{path.name}: {msg}")
        if not found:
            print(f"{path.name}: ok")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
