"""Source hygiene: no unused imports in the package, and every third-party
import declared in pyproject.toml.

Both checks read the source with ast; nothing is imported or run.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "coarselab"


def _modules(root):
    return sorted(root.rglob("*.py"))


def _bound_names(node):
    """The names an import statement binds, with the module each comes from."""
    for a in node.names:
        if isinstance(node, ast.Import):
            yield (a.asname or a.name.split(".")[0]), a.name
        elif node.module != "__future__":
            yield (a.asname or a.name), f"{'.' * node.level}{node.module or ''}.{a.name}"


def _used_names(tree):
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # quoted annotations, e.g. -> "Window", name what they use too
    annotations = [a for n in ast.walk(tree)
                   for a in (getattr(n, "annotation", None), getattr(n, "returns", None))
                   if a is not None]
    for a in annotations:
        for n in ast.walk(a):
            if isinstance(n, ast.Constant) and isinstance(n.value, str):
                expr = ast.parse(n.value, mode="eval")
                used |= {m.id for m in ast.walk(expr) if isinstance(m, ast.Name)}
    return used


@pytest.mark.parametrize("path", [p for p in _modules(PACKAGE) if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_package_modules_use_every_import(path):
    tree = ast.parse(path.read_text())
    used = _used_names(tree)
    unused = [f"{name} (from {source}, line {node.lineno})"
              for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
              for name, source in _bound_names(node) if name not in used]
    assert unused == []


def _third_party(root):
    """Top-level names of the absolute imports under root that are neither
    the standard library nor coarselab itself."""
    tops = set()
    for path in _modules(root):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                tops |= {a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                tops.add(node.module.split(".")[0])
    return tops - set(sys.stdlib_module_names) - {"__future__", "coarselab"}


def _requirement_names(reqs):
    return {re.match(r"[A-Za-z0-9_.-]+", r).group(0).lower().replace("-", "_")
            for r in reqs}


def test_third_party_imports_are_declared():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    runtime = _requirement_names(project["dependencies"])
    test = runtime | _requirement_names(project["optional-dependencies"]["test"])
    assert sorted(_third_party(ROOT / "src") - runtime) == []
    assert sorted(_third_party(ROOT / "tests") - test) == []
