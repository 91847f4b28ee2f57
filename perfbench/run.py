"""ommap benchmark: one workload per run, end-to-end or per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload mc_ratio --seed 1 --seconds 25 --trace 0

``--trace 0`` times several passes over the workload's op list with
nothing instrumented and prints the end-to-end metrics.  Times are in
reference seconds (see ``probe.py``): each measured interval is scaled
by the speed of the machine around it, as a fixed reference job gives
it, so that the shared machine's drift cancels out.  ``--trace 1``
runs the op list once plain and once with every layer boundary wrapped
in a span, and prints the per-layer metrics.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are a readable report.
A full record of the run goes to ``perfbench-out/``.
"""

import os
import time

# one BLAS thread: the ops are small and single-client, and on a shared
# box extra threads only add noise
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
OUT = ROOT / "perfbench-out"
SETUP_REPEATS = 3

_IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                 "t = time.perf_counter(); import ommap; print(time.perf_counter() - t)")


def _import_seconds(first: float, speed) -> list:
    """Import times in reference seconds: this process's first import
    plus fresh interpreters, each against the probe taken after it."""
    samples = [speed.to_reference(first, speed())]
    for _ in range(SETUP_REPEATS - 1):
        done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
                              capture_output=True, text=True, check=True, timeout=60)
        measured = float(done.stdout.strip().splitlines()[-1])
        samples.append(speed.to_reference(measured, speed()))
    return samples


def _tree_hash(root: Path) -> str:
    """sha256 over the names and bytes of the files under root."""
    h = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(root).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def _environment() -> dict:
    import numpy
    import scipy

    commit = None
    try:  # the checkout need not be a git repository
        lines = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                               capture_output=True, text=True, timeout=10).stdout.split()
        if len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "blas_threads": {v: os.environ.get(v) for v in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
            "git_commit": commit, "src_sha256": _tree_hash(SRC),
            "bench_sha256": _tree_hash(BENCH),
            "machine": platform.machine()}


# ---------------------------------------------------------------------------
# timed passes
# ---------------------------------------------------------------------------

#: seconds between speed probes inside a timed pass
PROBE_EVERY_S = 0.25


def run_ops(ops, tracer=None, speed=None):
    """Run ops back to back (closed loop, one client); return results,
    per-op latencies, the wall time of the whole list and, given a
    ``SpeedProbe``, each op's probe time: the mean of the probes taken
    just before and just after it, at most PROBE_EVERY_S apart beside the
    op itself.  Probes fall between ops and outside their latencies."""
    results, lat, before = [], [], []
    probes = [speed()] if speed else []
    last = t0 = time.perf_counter()
    for op in ops:
        t = time.perf_counter()
        try:
            if tracer is None:
                res = op.call()
            else:
                res = tracer.call(tracer.name_id("bench", f"op.{op.kind}"), op.call)
        except Exception as exc:  # an op that raises is a failed op, not a harness error
            res = exc
        now = time.perf_counter()
        lat.append(now - t)
        results.append(res)
        if speed:
            before.append(len(probes) - 1)
            if now - last >= PROBE_EVERY_S:
                probes.append(speed())
                last = time.perf_counter()
    wall = time.perf_counter() - t0
    if speed:
        probes.append(speed())
    return results, lat, wall, [0.5 * (probes[i] + probes[i + 1]) for i in before]


def judge(workloads, ops, results):
    """Run every oracle check; return outcomes (exceptions are failures)."""
    out = []
    for op, res in zip(ops, results):
        if isinstance(res, Exception):
            out.append(workloads.Outcome(failed=f"raised {type(res).__name__}: {res}"))
        else:
            out.append(op.check(res))
    return out


def totals(outcomes) -> dict:
    acc: dict = {}
    for o in outcomes:
        for k, v in o.counters.items():
            acc[k] = max(acc.get(k, 0.0), v) if k == "bip.kkt_max" else acc.get(k, 0) + v
    return acc


def tail(lat_ms):
    """Latency at the highest percentile with ten ops beyond it, that
    percentile, and the number of ops beyond it.  With fewer than 20 ops
    that percentile would not lie above the median, and the maximum is
    reported instead."""
    s = sorted(lat_ms)
    n = len(s)
    if n < 20:
        return s[-1], 100.0, 0
    return s[n - 11], 100.0 * (n - 10) / n, 10


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["mc_ratio", "gamma_probe", "cli_kinds", "map_besov"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (SRC / "ommap" / "__init__.py").is_file():
        print(f"error: no ommap sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t = time.perf_counter()
    import ommap
    first_import = time.perf_counter() - t
    if not Path(ommap.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported ommap from {ommap.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import probe
    import workloads

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        return _run(args, workloads, probe, work, first_import)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, workloads, probe, work: Path, first_import: float) -> int:
    name, seed = args.workload, args.seed
    n_blocks = workloads.BLOCKS[name]
    n_passes = 1 if args.trace else workloads.passes_for(name, args.seconds)
    speed = probe.SpeedProbe(workloads.PROBE_ARRAY[name])

    # set-up: imports, then input generation plus one untimed warm-up op,
    # each repeated and converted to reference seconds
    import_s = _import_seconds(first_import, speed)
    setups = []
    for _ in range(SETUP_REPEATS):
        before = speed()
        t = time.perf_counter()
        wl = workloads.build(name, seed, n_blocks, work)
        try:
            wl.blocks[0][0].call()
        except Exception:
            pass  # the same op is timed and judged in the run proper
        measured = time.perf_counter() - t
        setups.append(speed.to_reference(measured, 0.5 * (before + speed())))
    setup_s = statistics.median(import_s) + statistics.median(setups)

    ops = wl.ops
    passes = []
    for _ in range(n_passes):
        results, lat, wall, ref = run_ops(ops, speed=None if args.trace else speed)
        passes.append((results, lat, wall, judge(workloads, ops, results), ref))
    record = {"workload": name, "seed": seed, "seconds": args.seconds, "trace": args.trace,
              "blocks": n_blocks, "ops": len(ops), "passes": len(passes),
              "env": _environment(),
              "setup": {"import_ref_s": import_s, "build_and_warmup_ref_s": setups}}

    results, _, _, outcomes, _ = passes[0]
    wrong = [f"{op.kind}: {o.wrong}" for op, o in zip(ops, outcomes) if o.wrong]
    failures = [f"{op.kind}: {o.failed}" for op, o in zip(ops, outcomes) if o.failed]
    attempted, failed = len(ops), len(failures)
    counters = totals(outcomes)
    for _, _, _, again, _ in passes[1:]:
        wrong += _repeat_errors(ops, outcomes, again)

    if args.trace:
        metrics, extra_wrong = _traced(wl, workloads, ops, passes[0], counters, record)
        wrong += extra_wrong
    else:
        # each op's latency in reference seconds, median over the passes
        lat_ms = [1e3 * statistics.median(speed.to_reference(p[1][i], p[4][i]) for p in passes)
                  for i in range(len(ops))]
        tail_ms, tail_pct, beyond = tail(lat_ms)
        wall = sum(lat_ms) / 1e3
        completed = sum(not isinstance(r, Exception) for r in results)
        metrics = {
            "setup_s": (setup_s, "s"),
            "ref_wall_s": (wall, "s"),
            "ref_ops_per_s": (completed / wall, "1/s"),
            "ref_op_p50_ms": (statistics.median(lat_ms), "ms"),
            "ref_op_tail_ms": (tail_ms, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        probes = [x for p in passes for x in p[4]]
        record["tail"] = {"percentile": tail_pct, "ops_beyond": beyond, "ops": len(ops)}
        record["measured"] = {
            "pass_op_s": [sum(p[1]) for p in passes],
            "op_min_sum_s": sum(min(p[1][i] for p in passes) for i in range(len(ops))),
            "probe_s": {"min": min(probes), "median": statistics.median(probes),
                        "max": max(probes), "reference": speed.reference_s,
                        "array_part": speed.array}}
        record["ref_latency_ms_by_kind"] = _by_kind(ops, lat_ms)

    counts = dict(counters)
    if args.trace:
        counts.update({k: metrics[k][0] for k in ("om.evals", "spaces.calls")})
    wrong += _cross_run_errors(record, counts)

    record.update({"counters": counts, "failures": failures, "wrong": wrong,
                   "metrics": {k: v for k, (v, _) in metrics.items()}})
    stem = f"{name}-seed{seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    _report(record, metrics, attempted, failed)
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


def _repeat_errors(ops, first, again) -> list:
    """Counters and results of a re-run of the same ops must repeat exactly."""
    errors = []
    if totals(again) != totals(first):
        errors.append(f"counters differ between passes: {totals(first)} vs {totals(again)}")
    for op, a, b in zip(ops, first, again):
        if a.digest != b.digest or bool(a.failed) != bool(b.failed):
            errors.append(f"{op.kind}: result differs between passes")
            break
    return errors


def _cross_run_errors(record, counts) -> list:
    """The counts of an earlier run of the same op list, program and
    benchmark must repeat exactly; the first run of a key records them."""
    key = (f"{record['workload']}-seed{record['seed']}-blocks{record['blocks']}"
           f"-trace{record['trace']}")
    path = OUT / "counters" / f"{key}.json"
    env = record["env"]
    entry = json.loads(json.dumps({"sources": [env["src_sha256"], env["bench_sha256"]],
                                   "counts": counts}, sort_keys=True))
    if path.is_file():
        earlier = json.loads(path.read_text())
        if earlier.get("sources") == entry["sources"]:
            if earlier["counts"] != entry["counts"]:
                return [f"counters differ from an earlier run: {earlier['counts']} "
                        f"vs {entry['counts']}"]
            return []
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(entry, sort_keys=True) + "\n")
    return []


def _by_kind(ops, lat_ms) -> dict:
    acc: dict = {}
    for op, x in zip(ops, lat_ms):
        acc.setdefault(op.kind, []).append(x)
    return {k: {"count": len(v), "p50_ms": statistics.median(v)} for k, v in acc.items()}


#: cli_kinds op groups whose share of the traced op time is reported
CLI_KINDS = ("ball_ratio", "classify_mode", "m_property", "gamma_check", "map_solve",
             "perturbation", "small_noise", "counterexample", "reproduce.fig1a",
             "reproduce.fig1b", "reproduce.figB1", "reproduce.figB3")


def _traced(wl, workloads, ops, plain, counters, record):
    """Re-run the same ops with spans; derive the per-layer metrics."""
    from spans import LAYERS, Tracer

    _, _, plain_wall, outcomes, _ = plain
    tracer = Tracer()
    tracer.install()
    for fn in wl.functionals:
        tracer.wrap_eval(fn)
    try:
        results, lat, wall, _ = run_ops(ops, tracer)
    finally:
        tracer.restore()
    wrong = _repeat_errors(ops, outcomes, judge(workloads, ops, results))

    summ = tracer.summary()
    by_name = summ["by_name"]
    evals = by_name.get("om:OmFunctional.eval", {"calls": 0, "incl_s": 0.0})
    measures_incl = sum(v["incl_s"] for k, v in by_name.items()
                        if k.startswith("measures:"))
    op_s = sum(lat)
    self_s = summ["self_s"]
    kind_s: dict = {}
    for op, x in zip(ops, lat):
        key = op.kind.split(".")[0] if not op.kind.startswith("reproduce.") else op.kind
        kind_s[key] = kind_s.get(key, 0.0) + x

    metrics = {"trace.op_s": (op_s, "s"),
               "trace.overhead_frac": (wall / plain_wall - 1.0, "ratio"),
               "ops.fail_frac": (sum(bool(o.failed) for o in outcomes) / len(ops), "ratio")}
    for layer in LAYERS[1:]:
        metrics[f"{layer}.self_frac"] = (self_s[layer] / op_s, "ratio")
    metrics["spaces.calls"] = (summ["calls"]["spaces"], "count")
    metrics["om.evals"] = (evals["calls"], "count")
    metrics["om.evals_per_s"] = (evals["calls"] / evals["incl_s"] if evals["calls"] else 0.0,
                                 "1/s")
    metrics["gamma.liminf.paths"] = (counters.get("gamma.liminf.paths", 0), "count")
    draws = counters.get("measures.mc_draws", 0)
    metrics["measures.mc_draws"] = (draws, "count")
    metrics["measures.mc_draws_per_s"] = (draws / measures_incl if draws else 0.0, "1/s")
    metrics["measures.mc_bytes_computed"] = (counters.get("measures.mc_bytes_computed", 0), "B")
    for key in ("measures.curves.exact", "measures.curves.mc", "measures.diagnostics",
                "measures.oracle_miss_3se", "bip.fista_iters", "bip.max_iter_hits",
                "bip.polish_rescues"):
        metrics[key] = (counters.get(key, 0), "count")
    metrics["bip.kkt_max"] = (counters.get("bip.kkt_max", 0.0), "1")
    validate = sum(v["incl_s"] for k, v in by_name.items() if k.endswith(".validate_config"))
    metrics["cli.validate_frac"] = (validate / op_s, "ratio")
    for kind in CLI_KINDS:
        metrics[f"cli.kind.{kind}.frac"] = (kind_s.get(kind, 0.0) / op_s, "ratio")

    stem = f"{wl.name}-seed{record['seed']}-spans"
    tracer.write(OUT / f"{stem}.npz")
    record["layers"] = {"self_s": self_s, "calls": summ["calls"], "by_name": by_name,
                       "missing_sites": tracer.missing, "plain_wall_s": plain_wall,
                       "traced_wall_s": wall, "spans_file": f"{stem}.npz",
                       "latency_ms_by_kind": _by_kind(ops, [x * 1e3 for x in lat])}
    return metrics, wrong



def _report(record, metrics, attempted, failed) -> None:
    env = record["env"]
    print(f"# ommap benchmark: workload={record['workload']} seed={record['seed']} "
          f"trace={record['trace']} blocks={record['blocks']} ops={record['ops']}")
    print(f"# env: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"nproc {env['nproc']}, BLAS threads {env['blas_threads']['OPENBLAS_NUM_THREADS']}, "
          f"commit {env['git_commit']}, src {env['src_sha256'][:12]}")
    for key, (value, unit) in metrics.items():
        print(f"#   {key:34s} {value:14.6g} {unit}")
    if "measured" in record:
        m = record["measured"]
        print(f"#   measured op time of the passes: {', '.join(f'{x:.2f}' for x in m['pass_op_s'])} s; "
              f"probe median {m['probe_s']['median'] * 1e3:.2f} ms against "
              f"{m['probe_s']['reference'] * 1e3:.2f} ms reference")
    if "tail" in record:
        t = record["tail"]
        print(f"#   ref_op_tail_ms is p{t['percentile']:.2f}: {t['ops_beyond']} of {t['ops']} ops "
              "lie beyond it")
    if "layers" in record:
        for layer, s in record["layers"]["self_s"].items():
            print(f"#   self time {layer:16s} {s:10.4f} s")
    print(f"# ops: {attempted} attempted, {failed} failed")
    for msg in sorted(set(record["failures"]))[:8]:
        print(f"#   failed: {msg}")
    for msg in record["wrong"][:8]:
        print(f"#   WRONG: {msg}")


if __name__ == "__main__":
    sys.exit(main())
