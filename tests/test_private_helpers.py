"""Every module-level private function or class of the package is used.

A private helper (a name with one leading underscore) that no code refers to
is dead weight left behind by a deletion.  This walks the syntax tree of each
module of the package: every such helper must be read somewhere in the
package outside its own definition, as a plain name, as an attribute, or by
being imported into another module.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "nslocc"


def private_helpers(tree: ast.Module) -> dict[str, ast.AST]:
    """{name: definition} of the module-level private functions and classes."""
    return {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")}


def references(tree: ast.Module, skip: ast.AST | None = None) -> set[str]:
    """Names the tree reads or imports, outside the subtree `skip`."""
    out, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))
    return out


def orphans(trees: dict[str, ast.Module]) -> list[str]:
    found = []
    for module, tree in trees.items():
        for name, node in private_helpers(tree).items():
            used = references(tree, skip=node)
            for other, other_tree in trees.items():
                if other != module:
                    used |= references(other_tree)
            if name not in used:
                found.append(f"{module}:{node.lineno} {name}")
    return found


def test_package_has_no_orphaned_private_helpers():
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    assert sum(len(private_helpers(t)) for t in trees.values()) > 0
    unused = orphans(trees)
    assert not unused, "private helpers nothing refers to: " + ", ".join(unused)


@pytest.mark.parametrize("source, want", [
    ("def _dead():\n    return _dead()\n", ["a.py:1 _dead"]),
    ("def _used():\n    pass\nX = _used\n", []),
    ("class _Kept:\n    pass\n", []),   # referenced from b.py
    ("def __dunder__():\n    pass\n", []),
])
def test_checker_flags_an_orphaned_helper(source, want):
    trees = {"a.py": ast.parse(source),
             "b.py": ast.parse("from .a import _Kept\n")}
    assert orphans(trees) == want
