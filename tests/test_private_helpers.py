"""Every module-level function or class of the package is used.

A private helper (a name with one leading underscore) that no code refers to
is dead weight left behind by a deletion.  This walks the syntax tree of each
module of the package: every such helper must be read somewhere in the
package outside its own definition, as a plain name, as an attribute, or by
being imported into another module.

A public name is library surface, and it must have a caller that is not a
test: it is read in the package outside its own definition, in the
benchmark (`bench/`, including the layers `bench/run.py` traces by name) or
in `scripts/`.  Tests alone do not keep a public name alive; a helper only
they use belongs in `tests/conftest.py`.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "nslocc"
# public names kept without a caller, with the reason
UNCALLED_PUBLIC = {
    # ROADMAP item 2 gives it its first caller: the cloner's gap is scored on
    # a mixture of one-concept tomography tasks
    "tomography_task",
}


def definitions(tree: ast.Module, private: bool = True) -> dict[str, ast.AST]:
    """{name: definition} of the module-level private (or public) functions
    and classes."""
    return {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("__") and node.name.startswith("_") == private}


def references(tree: ast.AST) -> set[str]:
    """Names the tree reads or imports."""
    out, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))
    return out


def traced_layers(tree: ast.Module) -> set[str]:
    """The function names listed in the module's `LAYERS` literal, a dict of
    {module: names} such as `bench/run.py` traces."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets):
            return {name for names in ast.literal_eval(node.value).values()
                    for name in names}
    return set()


def orphans(trees: dict[str, ast.Module], private: bool = True,
            outside: set[str] = frozenset()) -> list[str]:
    """The definitions nothing refers to: neither another module of `trees`,
    nor a statement of their own module other than the definition itself,
    nor the names in `outside`."""
    per_statement = {module: {node: references(node) for node in tree.body}
                     for module, tree in trees.items()}
    whole = {module: set().union(*refs.values()) for module, refs in per_statement.items()}
    found = []
    for module, tree in trees.items():
        elsewhere = set(outside).union(*(whole[o] for o in trees if o != module))
        for name, node in definitions(tree, private).items():
            used = elsewhere.union(*(refs for other, refs in per_statement[module].items()
                                     if other is not node))
            if name not in used:
                found.append(f"{module}:{node.lineno} {name}")
    return found


def parse(paths, base: Path) -> dict[str, ast.Module]:
    """{path relative to base: syntax tree} of the files."""
    return {str(path.relative_to(base)): ast.parse(path.read_text(), filename=str(path))
            for path in sorted(paths)}


def test_package_has_no_orphaned_private_helpers():
    trees = parse(SRC.glob("*.py"), SRC)
    assert sum(len(definitions(t)) for t in trees.values()) > 0
    unused = orphans(trees)
    assert not unused, "private helpers nothing refers to: " + ", ".join(unused)


def test_every_public_name_has_a_caller_outside_the_tests():
    trees = parse(SRC.glob("*.py"), SRC)
    callers = parse([*(ROOT / "bench").glob("*.py"), *(ROOT / "scripts").glob("*.py")], ROOT)
    layers = traced_layers(callers["bench/run.py"])
    assert layers, "bench/run.py traces no layers"
    outside = set().union(layers, UNCALLED_PUBLIC, *map(references, callers.values()))
    unused = orphans(trees, private=False, outside=outside)
    assert not unused, "public names with no caller but tests: " + ", ".join(unused)
    defined = set().union(*(definitions(t, private=False) for t in trees.values()))
    assert UNCALLED_PUBLIC <= defined, "an allowlisted name no longer exists"


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


@pytest.mark.parametrize("source, outside, want", [
    ("def dead():\n    return dead()\n", set(), ["a.py:1 dead"]),
    ("def used():\n    pass\nX = used\n", set(), []),
    ("class Kept:\n    pass\n", set(), []),         # imported by b.py
    ("def traced():\n    pass\n", {"traced"}, []),  # read outside the package
    ("def _private():\n    pass\n", set(), []),     # the other guard's concern
], ids=["self-call-only", "read-in-module", "imported", "read-outside", "private"])
def test_checker_flags_an_uncalled_public_name(source, outside, want):
    trees = {"a.py": ast.parse(source),
             "b.py": ast.parse("from .a import Kept\n")}
    assert orphans(trees, private=False, outside=outside) == want


def test_traced_layers_reads_the_literal():
    tree = ast.parse('LAYERS = {"m": ("f", "g"), "n": ("h",)}\nOTHER = {"x": ("y",)}\n')
    assert traced_layers(tree) == {"f", "g", "h"}
