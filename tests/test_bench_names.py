"""Every name of the package the benchmark needs still exists.

`bench/run.py` traces the functions its `LAYERS` table names, and the bench
modules import names from the package, also inside the code strings they
hand to child interpreters.  A deletion of one of them otherwise surfaces
only as an error inside the benchmark's subprocess (`test_bench_smoke.py`).
This reads `bench/` by its syntax tree and resolves each name in-process.
The benchmark's files change only in a benchmark revision (ROADMAP item 5),
so a name it needs stays in the package until that revision drops it.
"""

import ast
import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _trees(path: Path) -> list[ast.Module]:
    """The module's tree and the trees of its string constants that parse as
    code which imports something."""
    tree = ast.parse(path.read_text())
    out = [tree]
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and "import" in node.value:
            try:
                out.append(ast.parse(node.value))
            except SyntaxError:
                pass
    return out


def needed_names() -> set[str]:
    """Dotted names `nslocc.<module>[.<name>]` that `bench/` uses."""
    names = set()
    run = ast.parse((BENCH / "run.py").read_text())
    layers, = [node.value for node in run.body if isinstance(node, ast.Assign)
               and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["LAYERS"]]
    for module, functions in ast.literal_eval(layers).items():
        names.update(f"nslocc.{module}.{fn}" for fn in functions)
    for path in sorted(BENCH.glob("*.py")):
        for tree in _trees(path):
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("nslocc"):
                    names.update(f"{node.module}.{alias.name}" for alias in node.names)
                elif isinstance(node, ast.Import):
                    names.update(alias.name for alias in node.names
                                 if alias.name.startswith("nslocc"))
    return names


def resolves(dotted: str) -> bool:
    """The name is a module of the package or an attribute of one."""
    parent, _, attr = dotted.rpartition(".")
    try:
        return hasattr(importlib.import_module(parent), attr) or \
            importlib.import_module(dotted) is not None
    except ImportError:
        return False


def test_bench_reads_the_names_this_guard_checks():
    names = needed_names()
    assert "nslocc.locc.build_locc_protocol" in names     # from LAYERS
    assert "nslocc.tensor_core.operator_from_json" in names  # from an import
    assert "nslocc.cli.main" in names                     # from a child's code


def test_every_name_the_benchmark_needs_exists():
    missing = sorted(name for name in needed_names() if not resolves(name))
    assert not missing, (
        f"bench/ needs {', '.join(missing)}, which the package no longer has; "
        "keep them until the benchmark revision (ROADMAP item 5) drops them "
        "from bench/")
