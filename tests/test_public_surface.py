"""The stated public surface: every name that a module of the package lists in
``__all__`` exists and is defined there, ``xepecs.__all__`` is the list in the
README's "Public surface" section, the names that left the surface are gone,
and every ``xepecs`` name that the benchmark's workloads use resolves."""

import ast
import dataclasses
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import xepecs

README = Path(__file__).resolve().parents[1] / "README.md"
WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

# every module; __main__ runs the command line only as the program, not on import
MODULES = sorted(f"xepecs.{m.name}" for m in pkgutil.iter_modules(xepecs.__path__))

# (defining module, name): reference routes moved to tests/reference.py, names
# with no caller outside their own tests, deleted, names the reduced amplitude
# replaced, the vector algebra the ladder rule replaced, the names the per-J
# levels left without a caller, the Fock-space operator engine that the
# Racah tables replaced, and the occupation-number layer, its subspace bases
# and the basis change U that the coupled basis replaced, the N-angle
# amplitude route with the calculator's R slot, and the per-subspace level
# routes that the one level solve replaced
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
    # the per-process constants from Racah algebra, in place of the operator engine
    ("fockspace", "ladder"), ("model", "_angular_momentum"), ("model", "_fock_matrix"),
    ("model", "_subspace_operators"), ("model", "_coupled_operators"), ("model", "_ground"),
    ("amplitudes", "_ground_components"), ("amplitudes", "_decay_row"),
    ("amplitudes", "PHOTOEMISSION_VERTEX"), ("amplitudes", "_EMISSION_VERTEX"),
    # one basis in the package: the coupled (J, S) columns
    ("fockspace", "FockState"), ("fockspace", "Shell"), ("fockspace", "SpinOrbital"),
    ("fockspace", "ORBITALS"), ("model", "Subspace"), ("model", "subspace"),
    ("model", "intermediate_subspace"), ("model", "_BASES"), ("model", "_SUBSPACES"),
    ("model", "_angular_numbers"), ("model", "EigenSystem.vectors"),
    ("model", "EigenSystem.subspace"),
    # one amplitude route: the N-angle array route and the calculator's R slot
    ("amplitudes", "AmplitudeCalculator.amplitude_array"),
    ("amplitudes", "AmplitudeCalculator._resonant_sum"),
    # one level solve per parameter set, model._levels
    ("model", "intermediate_eigensystem"), ("model", "ground_coupling_energy"),
    ("model", "_couplings_of"), ("model", "_j1_block"), ("amplitudes", "_SUBSPACE_LABELS"),
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


def present(module, name):
    """Whether ``name`` (or ``Class.member``) is defined in ``xepecs.<module>``; a
    dataclass field without a default is no class attribute, so the fields are
    read too. A member of a class that is gone is gone too."""
    owner, _, attribute = name.rpartition(".")
    defining = importlib.import_module(f"xepecs.{module}")
    if not owner:
        return hasattr(defining, name) or hasattr(xepecs, name)
    cls = getattr(defining, owner, None)
    fields = [f.name for f in dataclasses.fields(cls)] if dataclasses.is_dataclass(cls) else []
    return hasattr(cls, attribute) or attribute in fields


@pytest.mark.parametrize("module,name", GONE)
def test_a_name_that_left_the_surface_is_gone(module, name):
    assert not present(module, name)


@pytest.mark.parametrize("module,name", [
    ("model", "EigenSystem.coupling_energies"), ("model", "EigenSystem.rotation"),
    ("model", "EigenSystem.dim"), ("model", "_label_basis"), ("fockspace", "Spin"),
])
def test_the_gone_check_sees_a_live_name(module, name):
    assert present(module, name)


def workload_names():
    """The dotted ``xepecs`` names that ``perfbench/workloads.py`` imports or
    reads: each ``from xepecs.x import y``, ``import xepecs.x`` and attribute
    chain on the name ``xepecs``."""
    names = set()
    for node in ast.walk(ast.parse(WORKLOADS.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "xepecs":
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(a.name for a in node.names if a.name.split(".")[0] == "xepecs")
        elif isinstance(node, ast.Attribute):
            chain = [node.attr]
            while isinstance(node.value, ast.Attribute):
                node = node.value
                chain.append(node.attr)
            if isinstance(node.value, ast.Name) and node.value.id == "xepecs":
                names.add(".".join(["xepecs", *reversed(chain)]))
    return sorted(names)


def resolve(name):
    """The object that the dotted ``xepecs`` name refers to, importing each
    submodule on the way; an AttributeError or ImportError if it is gone."""
    parts = name.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], 2):
        obj = getattr(obj, part) if hasattr(obj, part) else importlib.import_module(
            ".".join(parts[:i]))
    return obj


def test_the_workloads_read_names_that_resolve():
    names = workload_names()
    assert {"xepecs.fockspace.Spin", "xepecs.amplitudes.CHANNELS",
            "xepecs.spectra.default_xps_grid", "xepecs.broaden", "xepecs.cli.main"} <= set(names)
    assert [name for name in names if resolve(name) is None] == []
