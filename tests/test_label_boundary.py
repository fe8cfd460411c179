"""Labels stay at the I/O boundary.

The reduction (symmetrize, purify, grid, extract, repair, assemble, risk)
computes on arrays and their (dims + dims) views.  Labelled operators enter
and leave only through the channel layer, the CLI and `tensor_core` itself,
where a user or the benchmark hands the package an `Operator` or reads one
back.  This reads the pipeline modules by their syntax tree: none of them
imports a name of the labelled-operator calculus or reads one as an
attribute of another module.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "nslocc"
PIPELINE = ("definetti.py", "locc.py", "risk.py", "classical.py")
LABELLED = {"Operator", "Factorization", "op", "partial_trace", "embed"}


def labelled_names(path: Path) -> set[str]:
    """The labelled-operator names a module imports or reads as attributes."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names & LABELLED


@pytest.mark.parametrize("module", PIPELINE)
def test_pipeline_module_uses_no_labelled_operator(module):
    found = sorted(labelled_names(SRC / module))
    assert not found, (f"{module} uses {', '.join(found)}: the pipeline keeps to "
                       "arrays, and labels stay in channels, cli and tensor_core")
