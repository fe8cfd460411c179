"""Every name a module of the package or of its tests imports is used in that
module.

No linter is a test dependency, so this walks each module's syntax tree: a
name bound by an import must be read somewhere else in the module, as a
plain name, as the root of an attribute chain, inside a quoted annotation,
or by being listed in ``__all__``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "nslocc").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def imported_names(tree: ast.Module) -> dict[str, int]:
    """{bound name: line} for every import outside ``from __future__``."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _quoted(node) -> list[str]:
    """The string constants of an annotation or an ``__all__`` value."""
    if node is None:
        return []
    return [c.value for c in ast.walk(node)
            if isinstance(c, ast.Constant) and isinstance(c.value, str)]


def used_names(tree: ast.Module) -> set[str]:
    used, quoted = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.arg):
            quoted += _quoted(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            quoted += _quoted(node.returns)
        elif isinstance(node, ast.AnnAssign):
            quoted += _quoted(node.annotation)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(_quoted(node.value))
    for text in quoted:
        expr = ast.parse(text, mode="eval")
        used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    unused = [f"{path.name}:{line} {name}"
              for name, line in sorted(imported_names(tree).items(), key=lambda kv: kv[1])
              if name not in used]
    assert not unused, "unused imports: " + ", ".join(unused)


def test_checker_flags_an_unused_import():
    tree = ast.parse("import os.path\nimport numpy as np\n"
                     "from math import e, pi, sqrt, tau\nfrom .m import Op\n"
                     "__all__ = ['tau']\nLABEL = 'e'\n"
                     "def f(x: 'Op') -> float:\n    return sqrt(np.abs(x))\n")
    assert sorted(set(imported_names(tree)) - used_names(tree)) == ["e", "os", "pi"]
