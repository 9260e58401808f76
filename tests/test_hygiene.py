"""Source hygiene: no unused imports in the package, every third-party
import declared in pyproject.toml, no defaulted parameter of the
package's public API that only tests pass beyond a pinned few, no line of
the package longer than MAX_LINE, no private definition that only the
tests use, and no public one beyond a pinned few.

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


# Defaulted parameters that only tests pass, each with the reason it stays an
# option.  As with TEST_ONLY, the scan must find exactly these.
TEST_SET_DEFAULTS = {
    "make_window(max_points)": "the memory budget, which tests set low to reach "
                               "the refusal",
    "main(argv)": "tests drive the command line in-process",
    "power_series_apply(tol)": "power_series_apply itself is in TEST_ONLY",
}


def test_every_defaulted_parameter_is_passed_somewhere():
    # a default that no program call overrides is a knob nobody turns: inline
    # it.  Calls from the package and the benchmark count, the tests' do not
    calls = {}
    for root in ("src", "perfbench"):
        for path in _modules(ROOT / root):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    f = node.func
                    name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
                    calls.setdefault(name, []).append(node)
    unpassed = {f"{name}({param})"
                for path in _modules(PACKAGE)
                for name, param, index in _defaulted_parameters(ast.parse(path.read_text()))
                if not any(_passes(c, param, index) for c in calls.get(name, ()))}
    assert unpassed == set(TEST_SET_DEFAULTS)


MAX_LINE = 92


def test_package_lines_fit():
    long = [f"{path.name}:{n}" for path in _modules(PACKAGE)
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if len(line) > MAX_LINE]
    assert long == []


def _definitions(tree, private):
    """Every function, method and class, at any depth, whose name has one
    leading underscore (private) or none (public); dunders are the
    interpreter's."""
    return [node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("__") and node.name.startswith("_") == private]


_FUNCTION_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _local_names(scope):
    """The names a function, lambda or comprehension binds in its own scope:
    parameters, assignment and loop targets, nested defs and classes,
    imports and exception names, less those declared global or nonlocal.
    Nested scopes bind their own."""
    if isinstance(scope, _COMPREHENSIONS):
        return {n.id for g in scope.generators for n in ast.walk(g.target)
                if isinstance(n, ast.Name)}
    a = scope.args
    names = {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
             if p is not None}
    declared = set()
    stack = list(scope.body) if isinstance(scope.body, list) else [scope.body]
    while stack:
        n = stack.pop()
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(n.name)
            continue
        if isinstance(n, (ast.Lambda, *_COMPREHENSIONS)):
            continue
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Load):
            names.add(n.id)
        elif isinstance(n, (ast.Import, ast.ImportFrom)):
            names |= {name for name, _ in _bound_names(n)}
        elif isinstance(n, ast.ExceptHandler) and n.name:
            names.add(n.name)
        elif isinstance(n, (ast.Global, ast.Nonlocal)):
            declared |= set(n.names)
        stack.extend(ast.iter_child_nodes(n))
    return names - declared


def _references(tree):
    """The module's reads that may reach a definition, and where each
    definition is bound.

    A read is (name, node, scope): an attribute read has scope None, as
    has a bare-name load that no enclosing function (or comprehension) binds;
    a load that one binds reads that function's local, and its scope is the
    innermost such function node.  homes maps each function and class
    definition node to the scope its name is bound in, by the same rule;
    a method's is None, as attributes read it.  A def's decorators, defaults
    and annotations, and a comprehension's first iterable, are read in the
    enclosing scope."""
    reads, homes = [], {}

    def resolve(name, scopes):
        for scope, names in reversed(scopes):
            if name in names:
                return scope
        return None

    def visit(node, scopes, in_class):
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Load):
                reads.append((node.id, node, resolve(node.id, scopes)))
            return
        if isinstance(node, ast.Attribute):
            reads.append((node.attr, node, None))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            homes[node] = None if in_class else resolve(node.name, scopes)
        if isinstance(node, _FUNCTION_SCOPES + _COMPREHENSIONS):
            if isinstance(node, _COMPREHENSIONS):
                outside = [node.generators[0].iter]
            else:
                a = node.args
                outside = [*getattr(node, "decorator_list", []), *a.defaults,
                           *(d for d in a.kw_defaults if d is not None),
                           *(p.annotation for p in a.posonlyargs + a.args + a.kwonlyargs
                             + [a.vararg, a.kwarg] if p is not None and p.annotation),
                           *([node.returns] if getattr(node, "returns", None) else [])]
            for child in outside:
                visit(child, scopes, False)
            inner = scopes + ((node, _local_names(node)),)
            ids = {id(n) for n in outside}
            for child in ast.iter_child_nodes(node):
                if id(child) not in ids:
                    visit(child, inner, False)
            return
        for child in ast.iter_child_nodes(node):
            visit(child, scopes, isinstance(node, ast.ClassDef))

    visit(tree, (), False)
    return reads, homes


def _identifier_strings(node):
    """The pieces of every string constant made of dot-separated identifiers,
    such as "Window.dist": perfbench's tracer looks functions up by them."""
    for n in ast.walk(node):
        if isinstance(n, ast.Constant) and isinstance(n.value, str):
            pieces = n.value.split(".")
            if all(p.isidentifier() for p in pieces):
                yield from pieces


def _unread(defining, reading, private, extra):
    """(path name, name, line) of each private or public definition in the
    defining modules that the reading ones (a dict of path to tree) read,
    with extra reads added, only inside the definition's own body.  A
    definition bound in a function is read only by loads of that function's
    local; one bound at module or class level by the other reads, from any
    module."""
    scanned = {path: _references(tree) for path, tree in reading.items()}
    refs = extra + Counter((name, None) for reads, _ in scanned.values()
                           for name, _, scope in reads if scope is None)
    out = []
    for path in defining:
        reads, homes = scanned[path]
        local = Counter((name, scope) for name, _, scope in reads if scope is not None)
        at = {id(node): (name, scope) for name, node, scope in reads}
        for node in _definitions(reading[path], private):
            key = (node.name, homes[node])
            own = sum(at.get(id(n)) == key for n in ast.walk(node))
            if (refs if key[1] is None else local)[key] == own:
                out.append((path.name, node.name, node.lineno))
    return out


def _unreferenced(private, strings):
    """The package's private or public definitions that neither the package
    nor the benchmark references outside the definition's own body; with
    strings, the benchmark's identifier strings count as references too."""
    trees = {path: ast.parse(path.read_text())
             for root in (PACKAGE, ROOT / "perfbench") for path in _modules(root)}
    package = [path for path in trees if PACKAGE in path.parents]
    extra = Counter()
    if strings:
        extra = Counter((name, None) for path, tree in trees.items()
                        if path not in package for name in _identifier_strings(tree))
    return _unread(package, trees, private, extra)


def test_reference_scan_resolves_bare_names_by_scope():
    # a method is not read by a local, parameter, loop variable or nested def
    # of the same name elsewhere; a module-level load or an attribute read is
    # a read, and so is a name a function declares global
    src = """
class Op:
    def block(self):
        return self.block_of()

    def block_of(self):
        return 0

def uses_locals(block=None):
    rows = [block for block in range(3)]
    for block in rows:
        pass
    def block():
        return block
    return block

def reads_global():
    global row
    return row

def row():
    return Op().block_of

def unread_def():
    return uses_locals, reads_global
"""
    path = Path("mod.py")
    found = {name for _, name, _ in _unread([path], {path: ast.parse(src)},
                                            private=False, extra=Counter())}
    assert found == {"block", "unread_def"}


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
