"""The stated public surface: every name that a module of the package lists in
``__all__`` exists and is defined there, ``xepecs.__all__`` is the list in the
README's "Public surface" section, and the names that left the surface are gone."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import xepecs

README = Path(__file__).resolve().parents[1] / "README.md"

# every module; __main__ runs the command line only as the program, not on import
MODULES = sorted(f"xepecs.{m.name}" for m in pkgutil.iter_modules(xepecs.__path__))

# (defining module, name): reference routes moved to tests/reference.py, names
# with no caller outside their own tests, deleted, names the reduced amplitude
# replaced, the vector algebra the ladder rule replaced, and the names the
# per-J levels left without a caller
GONE = [
    ("entanglement", "closed_form_state"), ("entanglement", "_is_angle"),
    ("polarization", "basis_vectors"), ("polarization", "polarization_vector"),
    ("polarization", "EmissionGeometry.beta"), ("model", "build_hamiltonian"),
    ("model", "initial_state"), ("model", "closed_shell"),
    ("polarization", "EmissionGeometry.with_theta"), ("entanglement", "EntangledState.fidelity"),
    ("entanglement", "DensityMatrix.purity"), ("spectra", "LineSpectrum.select"),
    ("spectra", "LineSpectrum.total_weight"), ("fockspace", "ManyBodyVector.__sub__"),
    ("model", "EigenSystem.energies"), ("model", "EigenSystem.level_energy"),
    # the general route: the full spherical components and the (2, 3) vectors t
    ("polarization", "polarization_components"), ("amplitudes", "AmplitudeCalculator.spin_vectors"),
    ("fockspace", "ManyBodyVector"), ("fockspace", "create"), ("fockspace", "annihilate"),
    ("fockspace", "inner"), ("model", "ground_state"),
    # the levels from per-J constants: the general solver and the level energies
    ("model", "diagonalize"), ("model", "initial_energy"), ("model", "final_state_energy"),
]


def readme_surface():
    """(module, name) pairs of the README's ``xepecs.__all__`` list, in order."""
    section = README.read_text().split("\n## Public surface\n")[1].split("\n## ")[0]
    return [(module, name)
            for module, names in re.findall(r"^ +- `xepecs\.(\w+)`: (.*(?:\n {4}\S.*)*)",
                                            section, re.M)
            for name in re.findall(r"`(\w+)`", names)]


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
    # one home: a module exports no function or class of another module
    assert [n for n in exported
            if getattr(getattr(module, n), "__module__", name) != name] == []


def test_the_package_surface_is_the_readme_list():
    assert len(set(xepecs.__all__)) == len(xepecs.__all__)
    surface = readme_surface()
    assert [name for _, name in surface] == xepecs.__all__
    for module, name in surface:
        assert getattr(xepecs, name) is getattr(importlib.import_module(f"xepecs.{module}"), name)
        assert name in importlib.import_module(f"xepecs.{module}").__all__


@pytest.mark.parametrize("module,name", GONE)
def test_a_name_that_left_the_surface_is_gone(module, name):
    owner, _, attribute = name.rpartition(".")
    defining = importlib.import_module(f"xepecs.{module}")
    if owner:   # a member of a class that is gone is gone too
        assert not hasattr(getattr(defining, owner, None), attribute)
    else:
        assert not hasattr(defining, name) and not hasattr(xepecs, name)
