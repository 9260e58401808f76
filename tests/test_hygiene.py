"""Source hygiene: no unused imports in the package, every third-party
import declared in pyproject.toml, no defaulted parameter of the
package's public API that no call passes, no private definition that
only the tests use, and no public one beyond a pinned few.

The checks read the source with ast; nothing is imported or run.
"""

import ast
import re
import sys
from collections import Counter
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


def _defaulted_parameters(tree):
    """(callee name, parameter, positional index or None) for every defaulted
    parameter of the module-level public functions and of the public methods
    and __init__ of the module-level classes; an __init__ is called by its
    class's name.  A method's index does not count self."""
    defs = [(f, f.name, False) for f in tree.body if isinstance(f, ast.FunctionDef)]
    for cls in (c for c in tree.body if isinstance(c, ast.ClassDef)):
        defs += [(f, cls.name if f.name == "__init__" else f.name,
                  not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                          for d in f.decorator_list))
                 for f in cls.body if isinstance(f, ast.FunctionDef)]
    for f, name, bound in defs:
        if name.startswith("_"):
            continue
        a = f.args
        positional = (a.posonlyargs + a.args)[int(bound):]
        for i, p in enumerate(positional[len(positional) - len(a.defaults):],
                              len(positional) - len(a.defaults)):
            yield name, p.arg, i
        for p, d in zip(a.kwonlyargs, a.kw_defaults):
            if d is not None:
                yield name, p.arg, None


def _passes(call, param, index):
    if any(isinstance(a, ast.Starred) for a in call.args) \
            or any(k.arg is None for k in call.keywords):
        return True          # *args or **kwargs may carry it
    return any(k.arg == param for k in call.keywords) \
        or (index is not None and len(call.args) > index)


def test_every_defaulted_parameter_is_passed_somewhere():
    # a default no call overrides is a knob nobody turns: inline it
    calls = {}
    for root in ("src", "tests", "perfbench"):
        for path in _modules(ROOT / root):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    f = node.func
                    name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
                    calls.setdefault(name, []).append(node)
    unpassed = [f"{path.name}: {name}({param})"
                for path in _modules(PACKAGE)
                for name, param, index in _defaulted_parameters(ast.parse(path.read_text()))
                if not any(_passes(c, param, index) for c in calls.get(name, ()))]
    assert unpassed == []


def _definitions(tree, private):
    """Every function, method and class, at any depth, whose name has one
    leading underscore (private) or none (public); dunders are the
    interpreter's."""
    return [node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("__") and node.name.startswith("_") == private]


def _references(node):
    """The names a subtree reads: bare names and attributes."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr


def _identifier_strings(node):
    """The pieces of every string constant made of dot-separated identifiers,
    such as "Window.dist": perfbench's tracer looks functions up by them."""
    for n in ast.walk(node):
        if isinstance(n, ast.Constant) and isinstance(n.value, str):
            pieces = n.value.split(".")
            if all(p.isidentifier() for p in pieces):
                yield from pieces


def _unreferenced(private, strings):
    """The package's private or public definitions that neither the package
    nor the benchmark references outside the definition's own body; with
    strings, the benchmark's identifier strings count as references too."""
    trees = {path: ast.parse(path.read_text())
             for root in (PACKAGE, ROOT / "perfbench") for path in _modules(root)}
    refs = Counter(name for tree in trees.values() for name in _references(tree))
    if strings:
        refs += Counter(name for path, tree in trees.items() if PACKAGE not in path.parents
                        for name in _identifier_strings(tree))
    return [(path.name, node.name, node.lineno)
            for path, tree in trees.items() if PACKAGE in path.parents
            for node in _definitions(tree, private)
            if refs[node.name] == Counter(_references(node))[node.name]]


def test_every_private_definition_is_used_by_the_program():
    # a private helper that only tests call is a code path kept for them:
    # references from the package and the benchmark count, the tests' do not,
    # nor those inside the definition itself
    assert _unreferenced(private=True, strings=False) == []


# Public definitions that only tests reach, each kept for the check that is to
# call it.  The scan must find exactly these: a new test-only name fails, and
# so does a pinned name that gains a caller, which then leaves this list.
TEST_ONLY = {
    "chern0": "the Chern number of a decaying projection (ROADMAP direction 2)",
    "power_series_apply": "builds that projection in the calculus (direction 2)",
    "support_check": "the cup's support slices for the dual norm (direction 3)",
    "coefficient_sum_bound": "the crucial estimate's counting step as a slack ratio "
                             "(direction 4)",
}


def test_every_public_definition_is_used_by_the_program():
    # as above, for the public names, with the benchmark's identifier strings
    # counted as references
    found = {name for _, name, _ in _unreferenced(private=False, strings=True)}
    assert found == set(TEST_ONLY)
