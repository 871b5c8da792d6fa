"""The names other code looks up on `nested_dp` resolve, and every public
name has a caller.

`perfbench/tracer.py` rebinds the functions in its `TRACED` table, and
`info.StepContext`, by name at every call site; a traced benchmark run
fails on any name that is gone.  That is why `beliefs.update_belief1`,
`lattice.quantize` and the other traced functions stay in the package even
where nothing under `src/` calls them.  The tracer is loaded from its file
and only read.  Past those, a name in a module's `__all__` that only tests
call is a second path beside the one the package runs: it belongs in the
tests, unless it is on the short list of API kept without a caller.
"""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import nested_dp

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"
MODULES = sorted(m.name for m in pkgutil.iter_modules(nested_dp.__path__) if m.name != "__main__")


def traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TRACED


@pytest.mark.parametrize("module, name", [(m, f) for m, f, _ in traced()] + [("info", "StepContext")])
def test_traced_names_resolve(module, name):
    assert callable(getattr(importlib.import_module(f"nested_dp.{module}"), name))


@pytest.mark.parametrize("module", MODULES)
def test_module_all_resolves(module):
    mod = importlib.import_module(f"nested_dp.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def test_package_names_resolve():
    """Every public name of the package is its defining module's object of
    that name, and listed in that module's `__all__` where it has one."""
    names = [n for n in vars(nested_dp) if not n.startswith("_") and n not in MODULES]
    assert "update_belief1" in names and "quantize" in names
    for name in names:
        obj = getattr(nested_dp, name)
        mod = importlib.import_module(obj.__module__)
        assert getattr(mod, name) is obj
        assert name in getattr(mod, "__all__", (name,))


# Public API that nothing in the package, its scripts or its benchmark calls.
UNCALLED_API = {
    # the checking API: the belief/cost and person-by-person certificates
    "certify_belief_and_cost_identities",
    "certify_pbp_against_enumeration",
    # the serialization API: writes the `info` field `info_from_json` reads
    "info_to_json",
    # the README's form of the step from the prior
    "initial_belief1_roots",
}


def referenced_names():
    """Every name that a module of the package (but `__init__`), a script or
    a benchmark file reads: an AST `Name`, an `Attribute` or an import alias."""
    files = [p for p in (ROOT / "src" / "nested_dp").glob("*.py") if p.name != "__init__.py"]
    files += [*(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    names = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def test_every_public_name_has_a_caller():
    called = referenced_names() | {name for _, name, _ in traced()}
    uncalled = {
        name
        for module in MODULES
        for name in getattr(importlib.import_module(f"nested_dp.{module}"), "__all__", ())
        if name not in called
    }
    assert uncalled == UNCALLED_API


def test_step_cache_owns_its_context():
    """A `StepCache` holds the model and structure it serves, so no step is
    given them again: no function under `src/nested_dp/` has a `cache`
    parameter beside a `model` or `info` one, and no `StepCache` method
    but its constructor takes `model` or `info`."""

    def params(fn):
        args = fn.args
        return {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)}

    beside, methods = [], []
    for path in sorted((ROOT / "src" / "nested_dp").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and "cache" in params(node) and params(node) & {"model", "info"}:
                beside.append(f"{path.name}:{node.lineno} {node.name}")
            elif isinstance(node, ast.ClassDef) and node.name == "StepCache":
                methods += [
                    f"{path.name}:{fn.lineno} StepCache.{fn.name}"
                    for fn in node.body
                    if isinstance(fn, ast.FunctionDef) and fn.name != "__init__" and params(fn) & {"model", "info"}
                ]
    assert beside == []
    assert methods == []
