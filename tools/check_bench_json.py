"""Check the committed BENCH_*.json records against BENCHMARK.json.

Each record must have a ``claimed`` key.  A record that claims a gain
names there a workload listed in BENCHMARK.json and a metric listed there
as end to end, and that metric must carry a numeric parent and change
median, the change's better than the parent's in the metric's ``better``
direction.  A record of a change that claims no gain has ``"claimed":
null``.  No end-to-end metric, on any workload of the record, may have a
change median worse than the parent's by more than the metric's
``bound``, a fraction of the parent median.

    python3 tools/check_bench_json.py            # every BENCH_*.json at the repo root
    python3 tools/check_bench_json.py FILE ...   # the given records

Exits 1 and names each problem when a record fails, else 0.
"""

import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _median(entry, side: str):
    """The numeric median of one side of a metric entry, else None."""
    median = entry.get(side, {}).get("median") if isinstance(entry, dict) else None
    numeric = isinstance(median, (int, float)) and not isinstance(median, bool)
    return median if numeric and math.isfinite(median) else None


def problems(path: Path, workloads: set, metrics: dict) -> list:
    """The problems of one record; ``metrics`` maps each end-to-end metric
    to its BENCHMARK.json entry, whose ``better`` is "lower" or "higher"."""
    try:
        record = json.loads(path.read_text())
        claimed = record["claimed"]
        workload, metric = (None, None) if claimed is None else (claimed["workload"],
                                                                 claimed["metric"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"cannot read a claimed workload and metric: {exc!r}"]
    out = []
    if claimed is not None:  # a claimed gain: listed, and the change better
        if workload not in workloads:
            out.append(f"claimed workload {workload!r} is not listed in BENCHMARK.json")
        if metric not in metrics:
            out.append(f"claimed metric {metric!r} is not an end-to-end metric of BENCHMARK.json")
        entry = record.get("workloads", {}).get(workload, {}).get("metrics", {}).get(metric, {})
        medians = {}
        for side in ("parent", "change"):
            medians[side] = _median(entry, side)
            if medians[side] is None:
                out.append(f"{workload}/{metric} has no numeric {side} median")
        if None not in medians.values() and metric in metrics:
            fall = medians["parent"] - medians["change"]
            better = metrics[metric]["better"]
            if not (fall > 0 if better == "lower" else fall < 0):
                out.append(f"{workload}/{metric} change median {medians['change']!r} is not "
                           f"{better} than parent median {medians['parent']!r}")
    for name, block in sorted(record.get("workloads", {}).items()):
        entries = block.get("metrics", {}) if isinstance(block, dict) else {}
        for m, spec in metrics.items():
            if (name, m) == (workload, metric):
                continue  # the claimed metric must improve, checked above
            parent, change = _median(entries.get(m), "parent"), _median(entries.get(m), "change")
            if parent is None or change is None or parent == 0:
                continue
            worse = (change - parent if spec["better"] == "lower" else parent - change) / parent
            if worse > spec["bound"]:
                out.append(f"{name}/{m} change median {change!r} is {worse:+.1%} worse than "
                           f"parent median {parent!r}, beyond its bound {spec['bound']!r}")
    return out


def main(argv: list) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in bench["workloads"]}
    metrics = {m["name"]: m for m in bench["end_to_end"]}
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
