"""The geometry-linear amplitude engine against the per-geometry Fock-space routes.

The production path multiplies one reduced amplitude R(epsilon) with the
alpha closed forms; these tests hold it, and the emission rows of the general
route in ``reference.py``, to the mechanical routes they replaced:
``dipole_block`` per geometry (kept in ``reference.py``), and the
single-state chain ``entangled_state`` -> ``reduce_to_spin`` ->
``von_neumann_entropy`` per angle. The model build is parameter-linear in the
same way: after the first calculator of a process, a new parameter set builds
no Clebsch-Gordan coefficient or 6j symbol, evaluates H' once and solves one
J = 1 block. Nearly degenerate levels keep their own energies.
"""

import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from xepecs import amplitudes, entanglement, model
from xepecs.amplitudes import AmplitudeCalculator, AmplitudeSet, calculator
from xepecs.entanglement import entangled_state, entropy_sweep, reduce_to_spin, von_neumann_entropy
from xepecs.fockspace import Spin
from xepecs.model import DomainError, ModelParams
from xepecs.polarization import EmissionGeometry

from reference import (
    build_hamiltonian, dipole_block, eigenvectors, emission_matrices, per_eigenstate_terms,
    polarization_components, polarization_vector, spherical_components, subspace,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def random_geometry(rng, theta=None):
    """Any non-degenerate polarization pair, orthogonal or not."""
    beta1 = rng.uniform(0.0, 360.0)
    return EmissionGeometry.from_degrees(
        rng.uniform(0.0, 180.0) if theta is None else theta,
        rng.uniform(0.0, 360.0), beta1, beta1 + rng.uniform(10.0, 170.0))


def orthogonal_geometry(rng, theta):
    """An orthogonal polarization pair of either orientation at the polar angle ``theta``."""
    beta1 = rng.uniform(0.0, 360.0)
    return EmissionGeometry.from_degrees(theta, rng.uniform(0.0, 360.0), beta1,
                                         beta1 + rng.choice([90.0, 270.0]))


def random_params(rng, i):
    """Seeded draws; every third has G = 0 and every third zeta = 0."""
    return ModelParams(
        G=0.0 if i % 3 == 0 else rng.uniform(0.0, 1.0),
        zeta=0.0 if i % 3 == 1 else rng.uniform(0.0, 0.5),
        eps_p=rng.uniform(-7.0, -3.0),
        Gamma_1s=rng.uniform(0.2, 0.8),
        gamma=rng.uniform(0.2, 0.6),
    )


class TestPolarizationComponents:
    def test_matches_the_per_geometry_projection(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            geom = random_geometry(rng)
            thetas = np.concatenate([[0.0, math.pi], rng.uniform(0.0, math.pi, 30)])
            got = polarization_components(thetas, geom.phi, geom.beta1, geom.beta2)
            assert got.shape == (len(thetas), 2, 3)
            for n, theta in enumerate(thetas):
                g = replace(geom, theta=float(theta))
                for i in (1, 2):
                    expected = spherical_components(polarization_vector(g, i))
                    assert np.max(np.abs(got[n, i - 1] - expected)) <= 1e-15


class TestEmissionContraction:
    def test_equals_dipole_block_on_random_geometries(self):
        calc = AmplitudeCalculator(ModelParams())
        emission = emission_matrices(calc)
        rng = np.random.default_rng(13)
        for _ in range(60):
            geom = random_geometry(rng)
            alphas = polarization_components(np.array([geom.theta]), geom.phi,
                                             geom.beta1, geom.beta2)[0]
            for sigma in (Spin.UP, Spin.DOWN):
                eig = calc.eigensystems[sigma]
                reference = dipole_block(geom, subspace(eig.label)) @ eigenvectors(eig)
                assert np.max(np.abs(alphas @ emission[sigma] - reference)) <= 1e-14

    def test_amplitudes_equal_the_dipole_block_resonant_sum(self):
        calc = AmplitudeCalculator(ModelParams())
        rng = np.random.default_rng(17)
        for _ in range(50):
            geom = random_geometry(rng)
            epsilon = rng.uniform(5.0, 8.0)
            amps = calc.amplitudes(geom, epsilon)
            for sigma in (Spin.UP, Spin.DOWN):
                summed = per_eigenstate_terms(calc, geom, epsilon, sigma).sum(axis=1)
                for lam in (1, 2):
                    assert abs(amps[(sigma, lam)] - summed[lam - 1]) <= 1e-14


class TestBatchedSweep:
    def test_equals_the_per_angle_route(self):
        rng = np.random.default_rng(19)
        worst = 0.0
        for i in range(21):
            params = random_params(rng, i)
            calc = AmplitudeCalculator(params)
            template = orthogonal_geometry(rng, 90.0)   # the state needs a polarization basis
            epsilon = rng.uniform(5.0, 8.0)
            thetas = [0.0, 90.0, 180.0] + list(rng.uniform(0.0, 180.0, 20))
            curve = entropy_sweep(params, template, thetas, epsilon)
            assert curve.thetas == tuple(thetas)
            for theta, s in zip(thetas, curve.entropy):
                geom = replace(template, theta=math.radians(theta))
                state = entangled_state(calc.amplitudes(geom, epsilon))
                worst = max(worst, abs(s - von_neumann_entropy(reduce_to_spin(state))))
        assert worst <= 1e-13

    def test_no_eigenvalue_decomposition_per_sweep(self, monkeypatch):
        calculator(ModelParams())   # the model build is not part of the sweep
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(m):
            calls.append(m.shape)
            return eigvalsh(m)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        curve = entropy_sweep(ModelParams(), EmissionGeometry.from_degrees(90.0),
                              list(np.linspace(0.0, 180.0, 1801)), 6.5)
        assert calls == []
        assert curve.entropy[900] == pytest.approx(1.0, abs=1e-12)

    def test_empty_sweep(self):
        curve = entropy_sweep(ModelParams(), EmissionGeometry.from_degrees(90.0), [], 6.5)
        assert curve.thetas == () and curve.entropy == ()

    def test_any_one_dimensional_input_gives_the_same_curve(self):
        geom = EmissionGeometry.from_degrees(90.0)
        floats = [0.0, 30.0, 45.0, 90.0, 180.0]
        expected = entropy_sweep(ModelParams(), geom, floats, 6.5)
        for thetas in (tuple(floats), [0, 30, 45, 90, 180], np.array(floats),
                       np.array(floats, dtype=np.float32)):
            curve = entropy_sweep(ModelParams(), geom, thetas, 6.5)
            assert curve == expected
            assert all(type(x) is float for x in curve.thetas + curve.entropy)
        assert entropy_sweep(ModelParams(), geom, np.array([]), 6.5) == \
            entropy_sweep(ModelParams(), geom, [], 6.5)

    @pytest.mark.parametrize("thetas", [[[0.0, 90.0]], np.zeros((2, 2)), 45.0])
    def test_angles_not_one_dimensional_rejected_before_any_math(self, monkeypatch, thetas):
        # once a 2-D list ran the whole sweep and then failed inside float()
        monkeypatch.setattr(entanglement, "calculator", None)   # calling it would fail
        with pytest.raises(ValueError, match="1-D"):
            entropy_sweep(ModelParams(), EmissionGeometry.from_degrees(90.0), thetas, 6.5)

    @pytest.mark.parametrize("theta", [-1.0, 180.5, float("nan")])
    def test_angle_outside_the_range_rejected(self, monkeypatch, theta):
        # named in degrees, as the command line does, before any math
        monkeypatch.setattr(entanglement, "calculator", None)   # calling it would fail
        message = re.escape(f"theta: {theta} outside [0, 180] degrees")
        with pytest.raises(ValueError, match=message):
            entropy_sweep(ModelParams(), EmissionGeometry.from_degrees(90.0),
                          [10.0, theta], 6.5)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("epsilon", [float("nan"), float("inf")])
    def test_non_finite_epsilon_is_a_domain_error(self, epsilon):
        with pytest.raises(DomainError):
            entropy_sweep(ModelParams(), EmissionGeometry.from_degrees(90.0),
                          [0.0, 45.0, 90.0], epsilon)

    def test_non_finite_single_state_is_a_domain_error(self):
        # the calculator rejects a non-finite epsilon itself, so the set is made here
        amps = AmplitudeSet(float("nan"), np.full((2, 2), complex("nan+nanj")),
                            EmissionGeometry.from_degrees(45.0), ModelParams())
        with pytest.raises(DomainError):
            entangled_state(amps)


class TestStackedEntropy:
    def test_stack_matches_single_matrices(self):
        x = (1 + math.sqrt(2) / 2) / 2
        stack = np.array([np.diag([0.5, 0.5]), np.diag([1.0, 0.0]), np.diag([x, 1 - x])])
        got = von_neumann_entropy(stack)
        assert isinstance(got, np.ndarray) and got.shape == (3,)
        assert list(got) == [von_neumann_entropy(m) for m in stack]
        assert isinstance(von_neumann_entropy(stack[0]), float)

    @pytest.mark.parametrize("bad", [
        np.diag([0.7, 0.7]),
        np.array([[0.5, 0.2], [0.4, 0.5]]),
        np.diag([1.2, -0.2]),
        np.diag([float("nan"), 0.5]),
    ])
    def test_one_invalid_matrix_fails_the_stack(self, bad):
        with pytest.raises(DomainError):
            von_neumann_entropy(np.array([np.diag([0.5, 0.5]), bad]))


class TestCalculatorCache:
    def test_equal_params_share_one_calculator(self):
        a = calculator(ModelParams(G=0.25))
        assert calculator(ModelParams(G=0.25)) is a
        assert calculator(ModelParams(G=0.26)) is not a

    def test_cached_arrays_are_read_only(self):
        calc = calculator(ModelParams())
        arrays = [calc.j1_positions, calc.j1_products]
        arrays += [calc.pe_elements[s] for s in (Spin.UP, Spin.DOWN)]
        for eig in calc.eigensystems.values():
            arrays += [eig.coupling_energies, eig.rotation]
        for array in arrays:
            with pytest.raises(ValueError):
                array[0] = 0.0

    def test_constants_are_not_built_at_import(self):
        code = ("import xepecs, xepecs.cli\n"
                "from xepecs import amplitudes, model\n"
                "print([f.cache_info().currsize for f in (model._couplings, model._label_basis,\n"
                "       amplitudes._photoemission_vector, amplitudes._decay_vector)])")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=str(SRC)), check=True).stdout
        assert out.strip() == "[0, 0, 0, 0]"


    def test_the_first_calculator_builds_only_the_photoemission_and_decay_vectors(self):
        # every cg_exact call of a process's first calculator, by caller: one per
        # coupled column of each intermediate subspace (4 + 3) for the photoemission
        # vectors, and d_1 plus two per column of the down-spin subspace for the decay
        code = ("import sys\n"
                "from collections import Counter\n"
                "import xepecs.cli\n"
                "from xepecs import amplitudes, angular, model\n"
                "callers, exact = Counter(), angular.cg_exact\n"
                "def counted(*args):\n"
                "    frame = sys._getframe(1)\n"
                "    while frame.f_code.co_name.startswith('<'):   # a comprehension's frame\n"
                "        frame = frame.f_back\n"
                "    callers[frame.f_code.co_name] += 1\n"
                "    return exact(*args)\n"
                "for module in list(sys.modules.values()):\n"
                "    if module.__name__.startswith('xepecs') and hasattr(module, 'cg_exact'):\n"
                "        module.cg_exact = counted\n"
                "amplitudes.calculator(model.ModelParams())\n"
                "print(sorted(callers.items()))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=str(SRC)), check=True).stdout
        assert out.strip() == "[('_decay_vector', 7), ('_photoemission_vector', 7)]"


class TestParameterLinearModel:
    def test_new_parameters_build_no_angular_constant(self, monkeypatch):
        AmplitudeCalculator(ModelParams())   # fills the per-process caches
        calls = []

        def refuse(*args):
            calls.append(args)
            raise AssertionError("an angular-momentum constant was built again")

        for module, name in ((model, "sixj_exact"), (amplitudes, "cg_exact"),
                             (amplitudes, "sixj_exact")):
            monkeypatch.setattr(module, name, refuse)
        calc = AmplitudeCalculator(ModelParams(G=0.42, zeta=0.17, eps_s=-12.5, eps_p=-4.5))
        assert calls == []
        assert calc.ground_coupling == pytest.approx(-0.17, abs=1e-16)
        # the patch does see a constant that is not cached
        amplitudes._decay_vector.cache_clear()
        try:
            with pytest.raises(AssertionError, match="built again"):
                amplitudes._decay_vector()
        finally:
            monkeypatch.undo()
            amplitudes._decay_vector.cache_clear()

    def test_cached_matrices_are_read_only(self):
        AmplitudeCalculator(ModelParams())
        arrays = [amplitudes._photoemission_vector(s) for s in (Spin.UP, Spin.DOWN)]
        arrays.append(amplitudes._decay_vector())
        for array in arrays:
            with pytest.raises(ValueError):
                array.flat[0] = 1.0

    @pytest.mark.parametrize("params", [
        # 2G overflows: inf (M0, M1) and inf * 0 = NaN (INITIAL, where S_1s . S_2p is 0)
        ModelParams(G=1e308),
        # 2G is finite, but the J = 0 entry -zeta - G/2 of M0 overflows: the entries
        # of the other subspaces stay finite, and the set still has no levels
        ModelParams(zeta=1.7e308, G=0.85e308),
    ])
    def test_overflowing_sum_is_a_domain_error_without_warnings(self, params):
        # runtime warnings are errors in this suite, so a numpy warning fails here
        with pytest.raises(DomainError, match="Hamiltonian matrix is not finite"):
            model._levels(params)
        with pytest.raises(DomainError, match="Hamiltonian matrix is not finite"):
            AmplitudeCalculator(params)


class TestLevelsOnce:
    def test_one_evaluation_and_one_j1_solve_per_calculator(self, monkeypatch):
        # the levels are solved once, H' evaluated once on every subspace, and
        # the J = 1 block that both spins share is solved once
        AmplitudeCalculator(ModelParams())
        solves, blocks = [], []
        levels, block_eigenpairs = model._levels, model._block_eigenpairs

        def counted_levels(params):
            solves.append(params)
            return levels(params)

        def counted_blocks(*args):
            blocks.append(args)
            return block_eigenpairs(*args)

        monkeypatch.setattr(amplitudes, "_levels", counted_levels)
        monkeypatch.setattr(model, "_block_eigenpairs", counted_blocks)
        params = ModelParams(G=0.21, zeta=0.13)
        calc = AmplitudeCalculator(params)
        assert solves == [params] and len(blocks) == 1
        assert calc.ground_coupling == pytest.approx(-0.13, abs=1e-16)


class TestNearlyDegenerateLevels:
    @pytest.mark.parametrize("G,zeta", [(0.0, z) for z in (1e-10, 3e-9, 1e-8, 3e-8, 1e-7)]
                             + [(g, 0.0) for g in (1e-10, 3e-9, 1e-8, 3e-8, 1e-7)])
    def test_nearly_degenerate_levels_keep_their_energies(self, G, zeta):
        # levels split by a coupling just above the residual tolerance are not
        # rotated into one another as if degenerate
        params = ModelParams(G=G, zeta=zeta)
        calc = AmplitudeCalculator(params)
        for sigma in (Spin.UP, Spin.DOWN):
            eig = calc.eigensystems[sigma]
            H, v = build_hamiltonian(params, subspace(eig.label)), eigenvectors(eig)
            energies = params.eps_s + params.eps_p + eig.coupling_energies
            assert np.max(np.abs(H @ v - v * energies)) <= 1e-9
        curve = entropy_sweep(params, EmissionGeometry.from_degrees(90.0), [0.0, 90.0], 6.5)
        assert curve.entropy == pytest.approx((0.0, 1.0), abs=1e-10)
