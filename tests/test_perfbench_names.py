"""The coarselab names the benchmark under perfbench/ uses still exist.

perfbench wraps its traced targets by name and reports a missing one as
absent instead of failing, so a deleted or renamed function would otherwise
show only in perfbench's own selftest.  These checks load perfbench/layers.py
(nothing runs) and read perfbench/workloads.py and perfbench/selftest.py as
source, then look every name up.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, mod)
    spec.loader.exec_module(mod)
    return mod


def _resolve(module, qualname):
    obj = importlib.import_module(module)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


def _missing(names):
    out = []
    for module, qualname in names:
        try:
            _resolve(module, qualname)
        except AttributeError:
            out.append(f"{module}.{qualname}")
    return out


def test_every_traced_target_resolves(monkeypatch):
    _load("tracer", monkeypatch)        # layers.py imports it by plain name
    layers = _load("layers", monkeypatch)
    assert layers.TARGETS
    assert _missing((f"coarselab.{m}", q) for m, q in layers.TARGETS) == []


@pytest.mark.parametrize("script", ["workloads.py", "selftest.py"])
def test_module_attributes_the_scripts_use_resolve(script):
    # every `mod.name` where `mod` is a coarselab module the script imports
    tree = ast.parse((PERFBENCH / script).read_text())
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "coarselab":
            for a in node.names:
                modules[a.asname or a.name] = f"coarselab.{a.name}"
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name == "coarselab":
                    modules[a.asname or a.name] = "coarselab"
    used = {(modules[n.value.id], n.attr) for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
            and n.value.id in modules}
    assert used
    assert _missing(sorted(used)) == []


@pytest.mark.parametrize("module, qualname", [
    ("coarselab.fill", "simplicial_boundary"),
    ("coarselab.fill", "SimplicialChain.add_simplex"),
    ("coarselab.ufchain", "UfChain.arrays"),
    ("coarselab.ufchain", "UfChain.terms"),
    ("coarselab.cyclic", "boundary_arrays"),
    ("coarselab.ufchain", "coalesce"),
])
def test_names_called_through_objects_exist(module, qualname):
    # reached through a class or an instance, which the source scan misses
    assert callable(_resolve(module, qualname))


def test_chain_support_reachable():
    # workloads compare chi(t).support; a property, so not callable
    assert hasattr(_resolve("coarselab.ufchain", "UfChain"), "support")


def test_python_terms_chain_skips_the_kernel(monkeypatch):
    # perfbench/selftest.py counts exactly one traced coalesce call after
    # building UfChain(w, 0, {(0,): 1}), so that construction must not call it
    from coarselab import spaces, ufchain
    calls = []
    real = ufchain.coalesce
    monkeypatch.setattr(ufchain, "coalesce", lambda *a: calls.append(1) or real(*a))
    c = ufchain.UfChain(spaces.make_window("zd", 2, 0, dim=1), 0, {(0,): 1})
    c.arrays()
    assert calls == []
    c + c
    assert calls == [1]
