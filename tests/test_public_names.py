"""The names other code looks up on `nested_dp` resolve.

`perfbench/tracer.py` rebinds the functions in its `TRACED` table, and
`info.StepContext`, by name at every call site; a traced benchmark run
fails on any name that is gone.  That is why `beliefs.update_belief1`,
`lattice.quantize` and the other traced functions stay in the package even
where nothing under `src/` calls them.  The tracer is loaded from its file
and only read.
"""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import nested_dp

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
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
