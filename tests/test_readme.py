"""The README's Python examples run against the package's public names,
and the package names it cites exist."""

import dataclasses
import importlib.util
import pkgutil
import re
from pathlib import Path

import ommap

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out


_MODULES = {m.name for m in pkgutil.iter_modules(ommap.__path__)}


def _ours(name: str) -> bool:
    """Whether a dotted name is meant as a package name: not a file name
    and not rooted at another importable module."""
    root, *_, last = name.split(".")
    if last in ("json", "csv", "md", "py", "toml"):
        return False
    return root == "ommap" or root in _MODULES or importlib.util.find_spec(root) is None


def _resolves(name: str) -> bool:
    """Whether a dotted name rooted at ``ommap``, one of its modules or one
    of its exports names an attribute or a dataclass field."""
    parts = name.split(".")
    if parts[0] == "ommap":
        parts = parts[1:]
    obj = ommap
    for i, part in enumerate(parts):
        if hasattr(obj, part):
            obj = getattr(obj, part)
        elif obj is ommap and part in _MODULES:
            obj = importlib.import_module(f"ommap.{part}")
        else:
            fields = {f.name for f in dataclasses.fields(obj)} \
                if dataclasses.is_dataclass(obj) else set()
            return i == len(parts) - 1 and part in fields
    return True


def test_readme_names_resolve():
    tokens = set(re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`", README.read_text()))
    ours = sorted(filter(_ours, tokens))
    assert len(ours) >= 20
    assert [t for t in ours if not _resolves(t)] == []
