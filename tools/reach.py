"""List the functions of ``src/ommap`` that the output digests never call.

Runs the work of ``tools/output_digests.py`` (one block of each listed
benchmark workload for seeds 1-3, the extra CLI configs and the four
figures) under ``sys.setprofile``, with its digest lines discarded, and
prints one line per function of ``src/ommap`` that no call reached:

    module line name lines

``name`` is dotted through enclosing classes and functions, so nested
functions and methods count on their own, and ``lines`` runs from the
function's first decorator to its last line.  A last line gives the
total, ``reached <n>/<total> functions, <k> unreached lines``.  Lambdas
are not counted.

Run it from the repository root:

    python3 tools/reach.py

The exit code is that of the digest work: 1 if an op, config or figure
failed, so that a trace of broken work does not pass for a clean one.
"""

import ast
import contextlib
import io
import sys
from pathlib import Path
from typing import Callable, NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ommap"


class Function(NamedTuple):
    module: str
    line: int  # first line, the first decorator's if any: a code object's co_firstlineno
    name: str
    n_lines: int
    path: str


def functions() -> list:
    """Every ``def`` in the package's modules, nested ones included."""
    out = []

    def visit(node, module, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out.append(Function(module, first, prefix + child.name,
                                    child.end_lineno - first + 1, path))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, module, path, prefix + child.name + ".")
            else:
                visit(child, module, path, prefix)

    for file in sorted(PACKAGE.glob("*.py")):
        path = str(file.resolve())
        visit(ast.parse(file.read_text(), path), f"ommap.{file.stem}", path, "")
    return out


def reached(work: Callable[[], object]) -> tuple:
    """``(keys, result)``: the (file, first line) of every Python function
    called while ``work()`` runs, and what it returned."""
    keys = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            keys.add((code.co_filename, code.co_firstlineno))

    outer = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = work()
    finally:
        sys.setprofile(outer)
    return keys, result


def report(funcs: list, keys: set) -> list:
    """One line per unreached function, then the total line."""
    missed = [f for f in funcs if (f.path, f.line) not in keys]
    lines = [f"{f.module} {f.line} {f.name} {f.n_lines}" for f in missed]
    lines.append(f"reached {len(funcs) - len(missed)}/{len(funcs)} functions, "
                 f"{sum(f.n_lines for f in missed)} unreached lines")
    return lines


def main() -> int:
    sys.path.insert(0, str(ROOT / "tools"))
    import output_digests  # sets one BLAS thread before numpy loads

    with contextlib.redirect_stdout(io.StringIO()):
        keys, code = reached(output_digests.main)
    for line in report(functions(), keys):
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
