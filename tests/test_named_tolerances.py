"""Every tolerance of the package is a named module constant (ROADMAP item 13).

A tolerance written as a literal inside a function hides which check it
feeds, and two checks of one meaning can drift apart unseen.  This reads each
module's syntax tree: no function body holds a float constant below 1e-3.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "nslocc"


def tolerance_literals(source: str) -> list[tuple[str, int]]:
    """(function, line) of every float constant 0 < |c| < 1e-3 in a function body."""
    found = set()
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.update((fn.name, c.lineno) for c in ast.walk(fn)
                         if isinstance(c, ast.Constant) and type(c.value) is float
                         and 0 < abs(c.value) < 1e-3)
    return sorted(found, key=lambda hit: hit[1])


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_names_its_tolerances(path):
    found = tolerance_literals(path.read_text())
    assert not found, f"{path.name}: tolerance literals at " + ", ".join(
        f"{name}:{line}" for name, line in found)


def test_checker_flags_a_literal_in_a_function_body():
    source = ("TOL = 1e-9\n"
              "def f(x, tol=TOL):\n    return abs(x) < 1e-12 or x > 0.5\n"
              "class C:\n    def g(self):\n        return self.x < -2e-8\n")
    assert tolerance_literals(source) == [("f", 3), ("g", 6)]
