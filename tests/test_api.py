"""The public surface: derivparse exports what its callers use, no more."""

import ast
import re
import types

import derivparse
from conftest import ROOT


def _callers() -> dict:
    """Each demo, benchmark file and README code block: the names it
    imports `from derivparse`, submodules left out."""
    found = {}
    for path in sorted([*ROOT.glob("demos/*.py"),
                        *ROOT.glob("benchmarks/*.py")]):
        names = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.ImportFrom) and node.level == 0
                    and node.module == "derivparse"):
                names |= {a.name for a in node.names}
        found[str(path.relative_to(ROOT))] = names
    readme = (ROOT / "README.md").read_text()
    for i, block in enumerate(re.findall(r"```python\n(.*?)```", readme,
                                         re.S)):
        names = set()
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom) and node.module == "derivparse":
                names |= {a.name for a in node.names}
        found[f"README.md block {i}"] = names
    for names in found.values():
        names -= {n for n in names
                  if isinstance(getattr(derivparse, n, None),
                                types.ModuleType)}
    return found


def test_every_export_resolves_and_has_a_caller():
    readme = (ROOT / "README.md").read_text()
    imported = set().union(*_callers().values())
    for name in derivparse.__all__:
        assert hasattr(derivparse, name), name
        assert name in imported or re.search(rf"\b{name}\b", readme), name
    assert len(set(derivparse.__all__)) == len(derivparse.__all__)


def test_every_name_a_caller_imports_is_exported():
    exported = set(derivparse.__all__)
    for where, names in _callers().items():
        assert names <= exported, (where, sorted(names - exported))
