"""What importing the package loads: numpy and the standard library only.

scipy's submodules and jsonschema are imported inside the functions that
call them, so a short CLI run does not pay for them before it needs them.
"""

import subprocess
import sys
from pathlib import Path

import ommap

LAZY = ("scipy.integrate", "scipy.optimize", "scipy.special", "jsonschema")

_PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); import ommap, ommap.cli; "
          "print(' '.join(sorted(sys.modules)))")


def test_import_leaves_scipy_submodules_and_jsonschema_unloaded():
    src = str(Path(ommap.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", _PROBE, src], capture_output=True,
                          text=True, check=True, timeout=60)
    loaded = set(done.stdout.split())
    assert "ommap.cli" in loaded
    assert sorted(loaded.intersection(LAZY)) == []
