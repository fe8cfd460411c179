"""Every module-level function or class of the package is used.

A private helper (a name with one leading underscore) that no code refers to
is dead weight left behind by a deletion.  This walks the syntax tree of each
module of the package: every such helper must be read somewhere in the
package outside its own definition, as a plain name, as an attribute, or by
being imported into another module.

A public name is library surface, and it must have a caller that is not a
test: it is read in the package outside its own definition or in the
benchmark (`bench/`, including the layers `bench/run.py` traces by name).
Tests alone do not keep a public name alive; a helper only they use belongs
in `tests/conftest.py`.

Every UPPER_CASE module-level constant of the package is read in the
package outside its own assignment: a constant nothing reads is a knob
that turns nothing.

Likewise every defaulted parameter of a public function must be set, by
position or by keyword, by some call outside `tests/`: in the package or in
`bench/`.  A default only tests override is a knob no user turns.

Every parameter of every function of the package, `self` and `cls` aside,
is read in that function's body: a parameter nothing reads is an input that
changes nothing.

Every named method or property of a package class (one that is not a
dunder) is read outside its own definition: in the package, or in
`bench/`.  The check matches attribute names, not the types that own them.
Dunders (`__add__`, `__mul__`, ...) are reached through operators and
protocols rather than by name, so their callers are beyond an AST check.
"""

import ast
from collections import Counter
from functools import partial
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
# defaulted parameters kept although only tests set them, with the reason
UNSET_DEFAULTS: set[str] = set()


def definitions(tree: ast.Module, private: bool = True) -> dict[str, ast.AST]:
    """{name: definition} of the module-level private (or public) functions
    and classes."""
    return {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("__") and node.name.startswith("_") == private}


public = partial(definitions, private=False)


def constants(tree: ast.Module) -> dict[str, ast.AST]:
    """{name: assignment} of the module-level UPPER_CASE constants."""
    out = {}
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        out.update((t.id, node) for t in targets if isinstance(t, ast.Name) and t.id.isupper())
    return out


def read_names(tree: ast.AST):
    """Yield every name the tree reads or imports, once per occurrence."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def references(tree: ast.AST) -> set[str]:
    """Names the tree reads or imports."""
    return set(read_names(tree))


def methods(tree: ast.Module) -> dict[str, ast.AST]:
    """{Class.name: definition} of the methods and properties, dunders
    aside, of the module-level classes."""
    return {f"{cls.name}.{node.name}": node for cls in tree.body
            if isinstance(cls, ast.ClassDef) for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))}


def unread_methods(trees: dict[str, ast.Module], outside: set[str] = frozenset()) -> list[str]:
    """The methods of `trees` whose name is read nowhere but inside their
    own definition: neither elsewhere in `trees` nor in `outside`."""
    counts = Counter(name for tree in trees.values() for name in read_names(tree))
    found = []
    for module, tree in trees.items():
        for qualified, node in methods(tree).items():
            own = sum(name == node.name for name in read_names(node))
            if counts[node.name] == own and node.name not in outside:
                found.append(f"{module}:{node.lineno} {qualified}")
    return found


def traced_layers(tree: ast.Module) -> set[str]:
    """The function names listed in the module's `LAYERS` literal, a dict of
    {module: names} such as `bench/run.py` traces."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets):
            return {name for names in ast.literal_eval(node.value).values()
                    for name in names}
    return set()


def orphans(trees: dict[str, ast.Module], named=definitions,
            outside: set[str] = frozenset()) -> list[str]:
    """The names `named` finds in a module's tree ({name: definition}) that
    nothing refers to: neither another module of `trees`, nor a statement of
    their own module other than the definition itself, nor the names in
    `outside`."""
    per_statement = {module: {node: references(node) for node in tree.body}
                     for module, tree in trees.items()}
    whole = {module: set().union(*refs.values()) for module, refs in per_statement.items()}
    found = []
    for module, tree in trees.items():
        elsewhere = set(outside).union(*(whole[o] for o in trees if o != module))
        for name, node in named(tree).items():
            used = elsewhere.union(*(refs for other, refs in per_statement[module].items()
                                     if other is not node))
            if name not in used:
                found.append(f"{module}:{node.lineno} {name}")
    return found


def defaulted(node: ast.FunctionDef) -> list[tuple[int | None, str]]:
    """(position, name) of the function's defaulted parameters; a
    keyword-only parameter has no position."""
    args = node.args
    params = args.posonlyargs + args.args
    first = len(params) - len(args.defaults)
    return ([(i, a.arg) for i, a in enumerate(params) if i >= first]
            + [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
               if d is not None])


def set_arguments(tree: ast.AST) -> set[tuple[str, int | str]]:
    """(callee, position) and (callee, keyword) of every argument a call in
    the tree passes, the callee named by its last name; a `*args` passes
    position "*" and a `**kwargs` keyword "**"."""
    out = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        callee = getattr(node.func, "id", getattr(node.func, "attr", None))
        for i, arg in enumerate(node.args):
            out.add((callee, "*" if isinstance(arg, ast.Starred) else i))
        out.update((callee, kw.arg or "**") for kw in node.keywords)
    return out


def unset_defaults(trees: dict[str, ast.Module], callers: dict[str, ast.Module],
                   allowed: set[str] = frozenset()) -> list[str]:
    """The defaulted parameters of the public functions of `trees` that no
    call in `trees` or `callers` sets, calls under `tests/` not counting,
    and that `allowed` does not name as function.parameter."""
    given = set().union(*(set_arguments(tree) for path, tree in {**trees, **callers}.items()
                          if not path.startswith("tests/")))
    found = []
    for module, tree in trees.items():
        for name, node in public(tree).items():
            if not isinstance(node, ast.FunctionDef):
                continue
            for pos, param in defaulted(node):
                ways = {(name, param), (name, "**")}
                if pos is not None:
                    ways |= {(name, pos), (name, "*")}
                if not ways & given and f"{name}.{param}" not in allowed:
                    found.append(f"{module}:{node.lineno} {name}.{param}")
    return found


def unread_parameters(trees: dict[str, ast.Module]) -> list[str]:
    """The parameters, `self` and `cls` aside, of every function of `trees`
    (methods and nested functions included) that the function's body never
    reads."""
    found = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            params = [a.arg for a in (args.posonlyargs + args.args + args.kwonlyargs
                                      + [args.vararg, args.kwarg]) if a is not None]
            read = {sub.id for stmt in node.body for sub in ast.walk(stmt)
                    if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store)}
            found += [f"{module}:{node.lineno} {node.name}.{p}" for p in params
                      if p not in read and p not in ("self", "cls")]
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
    callers = parse((ROOT / "bench").glob("*.py"), ROOT)
    layers = traced_layers(callers["bench/run.py"])
    assert layers, "bench/run.py traces no layers"
    outside = set().union(layers, UNCALLED_PUBLIC, *map(references, callers.values()))
    unused = orphans(trees, public, outside)
    assert not unused, "public names with no caller but tests: " + ", ".join(unused)
    defined = set().union(*map(public, trees.values()))
    assert UNCALLED_PUBLIC <= defined, "an allowlisted name no longer exists"


def test_every_method_is_read_outside_its_definition():
    trees = parse(SRC.glob("*.py"), SRC)
    callers = parse((ROOT / "bench").glob("*.py"), ROOT)
    assert sum(len(methods(t)) for t in trees.values()) > 0
    unread = unread_methods(trees, set().union(*map(references, callers.values())))
    assert not unread, "methods nothing reads: " + ", ".join(unread)


def test_every_constant_is_read_in_the_package():
    trees = parse(SRC.glob("*.py"), SRC)
    assert sum(len(constants(t)) for t in trees.values()) > 0
    unread = orphans(trees, constants)
    assert not unread, "constants nothing reads: " + ", ".join(unread)


def test_every_default_is_set_outside_the_tests():
    trees = parse(SRC.glob("*.py"), SRC)
    callers = parse([*(ROOT / "bench").glob("*.py"), *(ROOT / "tests").glob("*.py")], ROOT)
    unset = unset_defaults(trees, callers, UNSET_DEFAULTS)
    assert not unset, "defaulted parameters only tests set: " + ", ".join(unset)
    params = {f"{name}.{param}" for tree in trees.values()
              for name, node in public(tree).items()
              if isinstance(node, ast.FunctionDef) for _, param in defaulted(node)}
    assert UNSET_DEFAULTS <= params, "an allowlisted default no longer exists"


def test_every_parameter_is_read():
    trees = parse(SRC.glob("*.py"), SRC)
    unread = unread_parameters(trees)
    assert not unread, "parameters nothing reads: " + ", ".join(unread)


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
    assert orphans(trees, public, outside) == want


def test_checker_flags_an_unread_method():
    source = """
class C:
    def dead(self):
        return self.dead()

    def used(self):
        pass

    @property
    def read_elsewhere(self):
        pass

    def read_outside(self):
        pass

    def __add__(self, other):
        pass
"""
    trees = {"a.py": ast.parse(source),
             "b.py": ast.parse("C().used()\nx = C().read_elsewhere\n")}
    assert unread_methods(trees, {"read_outside"}) == ["a.py:3 C.dead"]


def test_checker_flags_an_unread_constant():
    trees = {"a.py": ast.parse("READ = 1\nDEAD: int = READ\nKEPT = 2\nlower = 3\n"),
             "b.py": ast.parse("from .a import KEPT\n")}
    assert orphans(trees, constants) == ["a.py:2 DEAD"]


@pytest.mark.parametrize("path, call, allowed, want", [
    ("bench/x.py", "m.f(1, b=2)\n", set(), []),
    ("bench/x.py", "f(1, 2)\n", set(), []),
    ("bench/x.py", "f(*args)\n", set(), []),
    ("bench/x.py", "f(1)\n", set(), ["a.py:1 f.b"]),
    ("tests/test_x.py", "f(1, b=2)\n", set(), ["a.py:1 f.b"]),
    ("tests/test_x.py", "f(1, b=2)\n", {"f.b"}, []),
], ids=["keyword", "position", "starred", "unset", "test-only", "allowlisted"])
def test_checker_flags_a_default_only_tests_set(path, call, allowed, want):
    trees = {"a.py": ast.parse("def f(a, b=0):\n    return a + b\n")}
    assert unset_defaults(trees, {path: ast.parse(call)}, allowed) == want


def test_checker_flags_an_unread_parameter():
    source = """
class C:
    def method(self, used, unused, *args, key, **kwargs):
        def inner(x):
            return used + key + len(args)
        return inner

    @classmethod
    def make(cls):
        return kwargs
"""
    assert unread_parameters({"a.py": ast.parse(source)}) == [
        "a.py:3 method.unused", "a.py:3 method.kwargs", "a.py:4 inner.x"]


def test_traced_layers_reads_the_literal():
    tree = ast.parse('LAYERS = {"m": ("f", "g"), "n": ("h",)}\nOTHER = {"x": ("y",)}\n')
    assert traced_layers(tree) == {"f", "g", "h"}
