"""Print a digest of every benchmark op's output, to diff two commits.

Builds one block of the ``mc_ratio``, ``gamma_probe`` and ``cli_kinds``
workloads for seeds 1, 2 and 3 through ``perfbench.workloads.build``,
runs each op and its oracle check, and prints one line per op:

    workload seed kind digest

Run it from the repository root of each commit and diff the outputs:

    python3 tools/output_digests.py > digests.txt

An op whose check fails or finds a quiet wrong answer is also reported
on standard error, and the exit code is then 1.
"""

import os

# one BLAS thread, as in the benchmark: reductions then sum in one order
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.workloads import build  # noqa: E402

WORKLOADS = ("mc_ratio", "gamma_probe", "cli_kinds")
SEEDS = (1, 2, 3)


def main() -> int:
    bad = 0
    for name in WORKLOADS:
        for seed in SEEDS:
            with tempfile.TemporaryDirectory() as work:
                for op in build(name, seed, 1, Path(work)).ops:
                    out = op.check(op.call())
                    print(f"{name} {seed} {op.kind} {out.digest}", flush=True)
                    if out.failed or out.wrong:
                        bad += 1
                        print(f"{name} {seed} {op.kind}: {out.failed or out.wrong}",
                              file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
