"""Every name that a module of the package lists in ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import xepecs

# every module but __main__, which runs the command line on import
MODULES = sorted(f"xepecs.{m.name}" for m in pkgutil.iter_modules(xepecs.__path__)
                 if m.name != "__main__")


def test_the_modules_with_a_stated_surface():
    stated = [n for n in MODULES if hasattr(importlib.import_module(n), "__all__")]
    assert stated == ["xepecs.amplitudes", "xepecs.angular", "xepecs.entanglement",
                      "xepecs.fockspace", "xepecs.model", "xepecs.polarization",
                      "xepecs.spectra"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []
