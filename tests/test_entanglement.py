"""Entangled state, density matrices and the emission-angle entropy curve."""

import math
import re

import numpy as np
import pytest

from xepecs import entanglement
from xepecs.fockspace import Spin
from xepecs.model import DomainError, ModelParams
from xepecs.polarization import EmissionGeometry
from xepecs.amplitudes import AmplitudeCalculator, AmplitudeSet
from xepecs.entanglement import (
    DensityMatrix,
    EntangledState,
    EntropyCurve,
    entangled_state,
    entropy_sweep,
    full_density_matrix,
    reduce_to_polarization,
    reduce_to_spin,
    von_neumann_entropy,
)

from reference import closed_form_state, per_angle_norm_checks

PARAMS = ModelParams()
U1, U2 = (Spin.UP, 1), (Spin.UP, 2)
D1, D2 = (Spin.DOWN, 1), (Spin.DOWN, 2)


@pytest.fixture(scope="module")
def calc():
    return AmplitudeCalculator(PARAMS)


def oracle_entropy(theta_deg: float) -> float:
    """Independent closed form: eigenvalues (1 +/- |cos(theta)|) / 2."""
    x = np.array([(1 + abs(math.cos(math.radians(theta_deg)))) / 2,
                  (1 - abs(math.cos(math.radians(theta_deg)))) / 2])
    x = x[x > 0]
    return float(-(x * np.log2(x)).sum())


class TestEntangledState:
    def test_90_degree_state(self, calc):
        state = entangled_state(calc.amplitudes(EmissionGeometry.from_degrees(90.0, 0.0), 6.2))
        v = state.vector()
        assert abs(v[0]) < 1e-14 and abs(v[3]) < 1e-14
        # coefficients proportional to (U2: 1, D1: i)
        assert v[2] / v[1] == pytest.approx(1j, abs=1e-12)
        assert abs(v[1]) == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_only_down_sector_along_the_axis(self, calc):
        state = entangled_state(calc.amplitudes(EmissionGeometry.from_degrees(0.0, 0.0), 6.2))
        assert abs(state[U1]) < 1e-14
        assert abs(state[U2]) < 1e-14
        assert abs(state[D1]) ** 2 + abs(state[D2]) ** 2 == pytest.approx(1.0)

    def test_normalized_for_random_geometry(self, calc):
        rng = np.random.default_rng(23)
        for _ in range(20):
            geom = EmissionGeometry.from_degrees(rng.uniform(1, 179), rng.uniform(0, 360))
            state = entangled_state(calc.amplitudes(geom, rng.uniform(4, 9)))
            assert sum(abs(c) ** 2 for c in state.vector()) == pytest.approx(1.0, abs=1e-12)

    def test_all_zero_amplitudes_rejected(self):
        geom = EmissionGeometry.from_degrees(90.0)
        dead = AmplitudeSet(6.0, np.zeros((2, 2), dtype=complex), geom)
        with pytest.raises(DomainError):
            entangled_state(dead)

    @pytest.mark.parametrize("shape", [(4,), (4, 4), (1, 2), (2, 2, 1)])
    def test_coefficients_that_are_not_2_by_2_are_named(self, shape):
        # each of unit norm, so only the shape check refuses it
        coeffs = np.full(shape, 1.0 / math.sqrt(math.prod(shape)), dtype=complex)
        with pytest.raises(ValueError, match=re.escape(f"shape (2, 2), got {shape}")):
            EntangledState(coeffs, 6.5, EmissionGeometry.from_degrees(60.0))


    def test_coefficients_that_are_no_array_are_a_type_error(self):
        with pytest.raises(TypeError, match="coeffs must be a numpy array, got list"):
            EntangledState([[1.0, 0.0], [0.0, 0.0]], 6.5, EmissionGeometry.from_degrees(60.0))


class TestClosedForm:
    def test_matches_amplitude_path_at_random_points(self, calc):
        rng = np.random.default_rng(31)
        for _ in range(100):
            geom = EmissionGeometry.from_degrees(rng.uniform(0.0, 180.0),
                                                 rng.uniform(0.0, 360.0))
            eps = rng.uniform(4.0, 9.0)
            numeric = entangled_state(calc.amplitudes(geom, eps))
            analytic = closed_form_state(geom)
            assert abs(np.vdot(numeric.vector(), analytic.vector())) > 1.0 - 1e-10

    def test_maximally_entangled_at_90(self):
        state = closed_form_state(EmissionGeometry.from_degrees(90.0, 0.0))
        assert np.allclose(state.vector(), [0.0, 1 / math.sqrt(2), 1j / math.sqrt(2), 0.0],
                           atol=1e-15)
        assert von_neumann_entropy(reduce_to_spin(state)) == pytest.approx(1.0, abs=1e-12)

    def test_product_state_at_180(self):
        geom = EmissionGeometry.from_degrees(180.0, 25.0)
        state = closed_form_state(geom)
        phase = complex(math.cos(geom.phi), math.sin(geom.phi))
        expected = np.array([0.0, 0.0, 1j * phase, phase]) / math.sqrt(2)
        assert np.allclose(state.vector(), expected, atol=1e-15)
        assert von_neumann_entropy(reduce_to_spin(state)) == pytest.approx(0.0, abs=1e-12)

    def test_default_norm_constant(self):
        state = closed_form_state(EmissionGeometry.from_degrees(63.0, 10.0))
        assert sum(abs(c) ** 2 for c in state.vector()) == pytest.approx(1.0, abs=1e-14)

    def test_requires_the_standard_polarization_pair(self):
        geom = EmissionGeometry.from_degrees(90.0, 0.0, 45.0, 135.0)
        with pytest.raises(ValueError, match="beta"):
            closed_form_state(geom)


class TestDensityMatrices:
    def test_full_matrix_pattern_at_90(self, calc):
        state = entangled_state(calc.amplitudes(EmissionGeometry.from_degrees(90.0, 0.0), 6.2))
        rho = full_density_matrix(state)
        assert rho.basis == ("U1", "U2", "D1", "D2")
        m = rho.matrix
        expected = np.zeros((4, 4), dtype=complex)
        expected[1, 1] = expected[2, 2] = 0.5
        expected[1, 2] = -0.5j
        expected[2, 1] = 0.5j
        assert np.max(np.abs(m - expected)) < 1e-10
        assert np.trace(m).real == pytest.approx(1.0, abs=1e-12)
        assert np.trace(m @ m).real == pytest.approx(1.0, abs=1e-12)

    def test_reduced_spin_matrix_closed_form(self, calc):
        # rho_A = 1/2 [[sin^2 t, -sin t cos t e^(-i phi)],
        #              [-sin t cos t e^(i phi), 1 + cos^2 t]]
        rng = np.random.default_rng(41)
        for _ in range(20):
            theta, phi = rng.uniform(0, 180), rng.uniform(0, 360)
            geom = EmissionGeometry.from_degrees(theta, phi)
            state = entangled_state(calc.amplitudes(geom, 6.0))
            t, p = math.radians(theta), math.radians(phi)
            phase = complex(math.cos(p), math.sin(p))
            expected = 0.5 * np.array([
                [math.sin(t) ** 2, -math.sin(t) * math.cos(t) * phase.conjugate()],
                [-math.sin(t) * math.cos(t) * phase, 1 + math.cos(t) ** 2],
            ])
            assert np.max(np.abs(reduce_to_spin(state).matrix - expected)) < 1e-10

    def test_reduction_from_full_matrix_agrees(self, calc):
        geom = EmissionGeometry.from_degrees(111.0, 77.0)
        state = entangled_state(calc.amplitudes(geom, 5.5))
        via_state = reduce_to_spin(state).matrix
        via_rho = reduce_to_spin(full_density_matrix(state)).matrix
        assert np.max(np.abs(via_state - via_rho)) < 1e-14

    def test_trace_always_one(self, calc):
        for theta in (0.0, 30.0, 90.0, 150.0, 180.0):
            state = entangled_state(calc.amplitudes(EmissionGeometry.from_degrees(theta), 6.0))
            assert np.trace(reduce_to_spin(state).matrix).real == pytest.approx(1.0,
                                                                                abs=1e-12)

    def test_schmidt_spectra_match(self, calc):
        rng = np.random.default_rng(47)
        for _ in range(10):
            geom = EmissionGeometry.from_degrees(rng.uniform(0, 180), rng.uniform(0, 360))
            state = entangled_state(calc.amplitudes(geom, 6.0))
            spec_a = np.linalg.eigvalsh(reduce_to_spin(state).matrix)
            spec_b = np.linalg.eigvalsh(reduce_to_polarization(state).matrix)
            assert np.max(np.abs(spec_a - spec_b)) < 1e-10

    def test_equality_is_identity(self, calc):
        # an ndarray field would make a generated == raise ValueError
        state = entangled_state(calc.amplitudes(EmissionGeometry.from_degrees(60.0), 6.5))
        rho, other = full_density_matrix(state), full_density_matrix(state)
        assert rho == rho and not rho == other and rho != other

    def test_validation(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(("U", "D"), np.array([[0.5, 0.1], [0.3, 0.5]]))
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(("U", "D"), np.diag([0.6, 0.6]))
        with pytest.raises(ValueError, match="negative"):
            DensityMatrix(("U", "D"), np.diag([1.5, -0.5]))

    @pytest.mark.parametrize("reduce", [reduce_to_spin, reduce_to_polarization])
    @pytest.mark.parametrize("obj", [[[1.0]], np.eye(4) / 4.0, "rho"], ids=["list", "array", "str"])
    def test_a_reduction_of_another_type_is_a_type_error_naming_it(self, reduce, obj):
        with pytest.raises(TypeError, match=re.escape(
                f"expected a DensityMatrix or an EntangledState, got {type(obj).__name__}")):
            reduce(obj)

    @pytest.mark.parametrize("reduce", [reduce_to_spin, reduce_to_polarization])
    def test_a_reduction_of_a_2_by_2_matrix_is_a_value_error_naming_its_shape(self, reduce):
        with pytest.raises(ValueError, match=re.escape(
                "rho must have shape (4, 4), got (2, 2)")):
            reduce(DensityMatrix(("U", "D"), np.eye(2) / 2.0))


class TestVonNeumannEntropy:
    def test_maximally_mixed_qubit(self):
        assert von_neumann_entropy(np.diag([0.5, 0.5])) == 1.0

    def test_pure_state(self):
        assert von_neumann_entropy(np.diag([1.0, 0.0])) == 0.0

    def test_45_degree_value(self):
        x = (1 + math.sqrt(2) / 2) / 2
        rho = np.diag([x, 1 - x])
        s = von_neumann_entropy(rho)
        assert s == pytest.approx(oracle_entropy(45.0), abs=1e-14)
        assert s == pytest.approx(0.60088, abs=1e-4)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(DomainError):
            von_neumann_entropy(np.diag([0.7, 0.7]))
        with pytest.raises(DomainError):
            von_neumann_entropy(np.array([[0.5, 0.2], [0.4, 0.5]]))
        with pytest.raises(DomainError):
            von_neumann_entropy(np.diag([1.2, -0.2]))

    @pytest.mark.parametrize("shape", [(2,), (2, 3), (0, 0)])
    def test_an_array_that_is_no_stack_of_square_matrices_is_named(self, monkeypatch, shape):
        # these once ended in numpy's AxisError, a broadcast error and "matrix trace
        # differs from 1"; the shape is refused before any check or eigensolve
        monkeypatch.setattr(entanglement, "_check_density", lambda *args: pytest.fail("math"))
        with pytest.raises(ValueError) as error:
            von_neumann_entropy(np.zeros(shape))
        assert type(error.value) is ValueError
        assert str(error.value) == f"rho must have shape (..., n, n) with n >= 1, got {shape}"

    def test_small_negative_jitter_clipped(self):
        assert von_neumann_entropy(np.diag([1.0 + 1e-13, -1e-13])) == 0.0

    def test_separable_state_has_positive_zero_entropy(self):
        # -0.0 would print as "-0"
        pure = np.diag([1.0, 0.0])
        assert math.copysign(1.0, von_neumann_entropy(pure)) == 1.0
        stack = von_neumann_entropy(np.array([pure, np.diag([0.5, 0.5])]))
        assert [math.copysign(1.0, s) for s in stack] == [1.0, 1.0]


class TestEntropySweep:
    def test_extremes(self):
        curve = entropy_sweep(PARAMS, EmissionGeometry.from_degrees(90.0),
                              [0.0, 90.0, 180.0], 6.2)
        assert curve.entropy[0] == pytest.approx(0.0, abs=1e-10)
        assert curve.entropy[1] == pytest.approx(1.0, abs=1e-10)
        assert curve.entropy[2] == pytest.approx(0.0, abs=1e-10)

    def test_matches_oracle_on_coarse_grid(self):
        thetas = list(np.linspace(0.0, 180.0, 37))
        curve = entropy_sweep(PARAMS, EmissionGeometry.from_degrees(90.0), thetas, 6.2)
        for theta, s in zip(curve.thetas, curve.entropy):
            assert s == pytest.approx(oracle_entropy(theta), abs=1e-10)

    def test_mirror_symmetry(self):
        thetas = [20.0, 55.0, 80.0]
        mirrored = [180.0 - t for t in thetas]
        a = entropy_sweep(PARAMS, EmissionGeometry.from_degrees(90.0), thetas, 6.2)
        b = entropy_sweep(PARAMS, EmissionGeometry.from_degrees(90.0), mirrored, 6.2)
        assert np.allclose(a.entropy, b.entropy, atol=1e-12)

    def test_epsilon_independence(self, calc):
        rng = np.random.default_rng(53)
        geom = EmissionGeometry.from_degrees(62.0, 14.0)
        values = []
        for _ in range(20):
            state = entangled_state(calc.amplitudes(geom, rng.uniform(2.0, 12.0)))
            values.append(von_neumann_entropy(reduce_to_spin(state)))
        assert np.ptp(values) < 1e-10

    def test_phi_independence(self, calc):
        rng = np.random.default_rng(59)
        values = []
        for _ in range(20):
            geom = EmissionGeometry.from_degrees(62.0, rng.uniform(0.0, 360.0))
            state = entangled_state(calc.amplitudes(geom, 6.2))
            values.append(von_neumann_entropy(reduce_to_spin(state)))
        assert np.ptp(values) < 1e-12

    def test_polarization_basis_invariance(self, calc):
        # any orthogonal linear polarization pair gives the same entropy
        rng = np.random.default_rng(61)
        for theta in (33.0, 90.0, 140.0):
            reference = None
            for _ in range(10):
                delta = rng.uniform(0.0, 360.0)
                geom = EmissionGeometry.from_degrees(theta, 0.0, 90.0 + delta, 180.0 + delta)
                state = entangled_state(calc.amplitudes(geom, 6.2))
                s = von_neumann_entropy(reduce_to_spin(state))
                if reference is None:
                    reference = oracle_entropy(theta)
                assert s == pytest.approx(reference, abs=1e-10)

    def test_curve_validation(self):
        with pytest.raises(ValueError):
            EntropyCurve((0.0, 1.0), (0.5,))
        with pytest.raises(ValueError):
            EntropyCurve((0.0,), (1.5,))
        with pytest.raises(ValueError, match="entropy nan outside"):
            EntropyCurve((0.0, 1.0, 2.0), (0.5, float("nan"), 2.0))

    @pytest.mark.parametrize("thetas,entropy,name", [
        (np.zeros((2, 2)), np.zeros((2, 2)), "thetas"), ((0.0, 1.0), [[0.5], [0.5]], "entropy"),
        (0.0, 0.5, "thetas")])
    def test_curve_fields_must_be_one_dimensional(self, thetas, entropy, name):
        # a 2-D field once made a curve of nested lists, which cannot be hashed
        with pytest.raises(ValueError, match=f"{name} must be a 1-D sequence"):
            EntropyCurve(thetas, entropy)

    def test_curve_from_arrays_stores_tuples_of_floats(self):
        curve = EntropyCurve(np.array([0.0, 90.0]), np.array([0.0, 1.0], dtype=np.float32))
        assert curve.thetas == (0.0, 90.0) and curve.entropy == (0.0, 1.0)
        assert all(type(x) is float for x in curve.thetas + curve.entropy)


def norm_edges(side):
    """The last float inside |x - 1| <= 1e-12 on one side of 1 (side +1 or -1) and
    the first outside it."""
    x = 1.0 + side * 1e-12
    while abs(x - 1.0) > 1e-12:
        x = float(np.nextafter(x, 1.0))
    return x, float(np.nextafter(x, side * np.inf))


(LOW_IN, LOW_OUT), (HIGH_IN, HIGH_OUT) = norm_edges(-1), norm_edges(1)
MAX_FLOAT_ROOT = 1.3407807929942596e154   # its square is one ulp under the largest float


class TestSweepBounds:
    """A sweep checks |R|^2 (a + d) and a + d at their least and greatest values
    only; each input gives the exception type and message of the checks run at
    every angle (``reference.per_angle_norm_checks``), or no exception."""

    @pytest.mark.parametrize("r, r_sq", [
        (0j, 0.0),
        (complex(math.sqrt(5e-324)), 5e-324),
        (complex(MAX_FLOAT_ROOT, 2.0 ** 485 * math.sqrt(2.0)), 1.7976931348623157e308),
    ])
    @pytest.mark.parametrize("norms", [
        [1.0], [LOW_IN, HIGH_IN], [HIGH_IN, 1.0, LOW_IN, 1.0], [1.0, LOW_OUT], [HIGH_OUT],
        [LOW_IN, HIGH_OUT, 1.0], [LOW_OUT, HIGH_IN], [LOW_OUT, 1.0, HIGH_OUT],
        [HIGH_IN, 0.0],   # an overflow and a 0: the overflow is reported
    ])
    def test_the_bounds_give_the_verdict_of_every_angle(self, monkeypatch, r, r_sq, norms):
        assert r.real * r.real + r.imag * r.imag == r_sq
        # a + d = 0.0 + norm, bit for bit; the spectrum is then (0, norm)
        zeros = np.zeros(len(norms))
        monkeypatch.setattr(AmplitudeCalculator, "reduced_amplitude", lambda self, epsilon: r)
        monkeypatch.setattr(entanglement, "_spin_invariants",
                            lambda terms, geom: (zeros, np.array(norms), zeros, zeros))
        thetas = np.linspace(0.0, 180.0, len(norms))
        expected = per_angle_norm_checks(r_sq, norms, PARAMS, 6.5)
        if expected is None:
            assert len(entropy_sweep(PARAMS, EmissionGeometry.from_degrees(90.0), thetas,
                                     6.5).entropy) == len(norms)
            return
        with pytest.raises(DomainError) as error:
            entropy_sweep(PARAMS, EmissionGeometry.from_degrees(90.0), thetas, 6.5)
        assert type(error.value) is type(expected) and str(error.value) == str(expected)

    @pytest.mark.parametrize("thetas", [[], [0.0], [180.0], [0.0, 180.0], [180.0, 0.0]])
    def test_no_angle_and_the_ends_of_the_range(self, thetas):
        curve = entropy_sweep(PARAMS, EmissionGeometry.from_degrees(90.0), thetas, 6.5)
        assert curve.thetas == tuple(thetas) and curve.entropy == tuple([0.0] * len(thetas))


def bits(values) -> bytes:
    return np.array(values, dtype=float).tobytes()


class TestGridSlot:
    """A sweep keeps the last grid that passed its checks, keyed by its float64
    bytes, with its float tuple and the read-only theta terms of the invariants;
    a repeat of the grid forms no trig and gives the bits of a fresh sweep."""

    GRID = list(np.linspace(0.0, 180.0, 181))
    MODELS = (PARAMS, ModelParams(G=0.7, zeta=0.35, eps_p=-4.2, Gamma_1s=0.3))
    GEOMETRIES = tuple(EmissionGeometry.from_degrees(90.0, phi, beta1, beta1 + 90.0)
                       for phi, beta1 in ((0.0, 90.0), (37.0, 12.5), (250.0, 171.0),
                                          (123.4, -40.0)))

    @pytest.fixture(autouse=True)
    def empty_slot(self, monkeypatch):
        monkeypatch.setattr(entanglement, "_grid_slot", (None, (), ()))

    def cleared_sweep(self, params, geom, thetas, epsilon):
        entanglement._grid_slot = (None, (), ())
        return entropy_sweep(params, geom, thetas, epsilon)

    def test_a_hit_gives_the_bits_of_a_fresh_sweep(self):
        for params in self.MODELS:
            for geom in self.GEOMETRIES:
                for epsilon in (4.0, 6.2, 6.5, 9.75):
                    fresh = self.cleared_sweep(params, geom, self.GRID, epsilon)
                    held = entropy_sweep(params, geom, self.GRID, epsilon)
                    assert held.thetas == fresh.thetas
                    assert bits(held.entropy) == bits(fresh.entropy)

    def test_a_hit_forms_no_trig(self, monkeypatch):
        calls = []
        grid_terms = entanglement._grid_terms
        monkeypatch.setattr(entanglement, "_grid_terms",
                            lambda thetas: calls.append(len(thetas)) or grid_terms(thetas))
        for params in self.MODELS:
            for geom in self.GEOMETRIES:
                entropy_sweep(params, geom, self.GRID, 6.5)
        assert calls == [181]
        entropy_sweep(PARAMS, self.GEOMETRIES[0], self.GRID[:-1], 6.5)
        assert calls == [181, 180]

    def test_the_held_terms_are_read_only(self):
        entropy_sweep(PARAMS, self.GEOMETRIES[1], self.GRID, 6.5)
        key, thetas, terms = entanglement._grid_slot
        assert key == np.array(self.GRID).tobytes() and thetas == tuple(self.GRID)
        assert len(terms) == 4 and not any(term.flags.writeable for term in terms)

    def test_the_sign_of_zero_is_part_of_the_key(self):
        geom = self.GEOMETRIES[1]
        for first, second in (([0.0, 90.0], [-0.0, 90.0]), ([-0.0, 90.0], [0.0, 90.0])):
            a, b = (entropy_sweep(PARAMS, geom, grid, 6.5) for grid in (first, second))
            assert bits(a.thetas) == bits(first) and bits(b.thetas) == bits(second)
            assert bits(b.entropy) == bits(self.cleared_sweep(PARAMS, geom, second, 6.5).entropy)

    @pytest.mark.parametrize("container", [list, np.array])
    def test_the_callers_grid_changed_in_place_gives_its_new_angles(self, container):
        grid = container([10.0, 45.0, 90.0])
        geom = self.GEOMETRIES[2]
        entropy_sweep(PARAMS, geom, grid, 6.5)
        grid[1] = 135.0
        curve = entropy_sweep(PARAMS, geom, grid, 6.5)
        assert curve.thetas == (10.0, 135.0, 90.0)
        assert bits(curve.entropy) == bits(self.cleared_sweep(
            PARAMS, geom, [10.0, 135.0, 90.0], 6.5).entropy)

    def test_an_int_grid_and_an_equal_float_grid_give_equal_float_tuples(self):
        geom = self.GEOMETRIES[3]
        ints = entropy_sweep(PARAMS, geom, [0, 30, 90, 180], 6.5)
        floats = entropy_sweep(PARAMS, geom, [0.0, 30.0, 90.0, 180.0], 6.5)
        assert ints.thetas == floats.thetas == (0.0, 30.0, 90.0, 180.0)
        assert all(type(x) is float for x in ints.thetas + floats.thetas)
        assert bits(ints.entropy) == bits(floats.entropy)

    def test_a_2d_grid_with_the_held_bytes_is_refused(self):
        entropy_sweep(PARAMS, self.GEOMETRIES[0], [0.0, 90.0], 6.5)
        with pytest.raises(ValueError, match="theta must be a 1-D sequence of angles"):
            entropy_sweep(PARAMS, self.GEOMETRIES[0], [[0.0, 90.0]], 6.5)

    @pytest.mark.parametrize("bad, shown", [(float("nan"), "nan"), (-1.0, "-1.0"),
                                            (180.00000000000003, "180.00000000000003"),
                                            (-1e-300, "-1e-300"), (float("inf"), "inf")])
    def test_a_bad_angle_after_a_hit_is_named(self, bad, shown):
        grid = list(self.GRID)
        message = re.escape(f"theta: {shown} outside [0, 180] degrees")
        for _ in range(2):   # a grid that fails its checks is never held
            entropy_sweep(PARAMS, self.GEOMETRIES[0], grid, 6.5)
            grid[7] = bad
            for _ in range(2):
                with pytest.raises(ValueError, match=message):
                    entropy_sweep(PARAMS, self.GEOMETRIES[0], grid, 6.5)
            grid[7] = self.GRID[7]
        assert entanglement._grid_slot[1] == tuple(self.GRID)

    def test_a_pair_that_is_not_orthogonal_is_refused_on_a_hit(self):
        entropy_sweep(PARAMS, self.GEOMETRIES[0], self.GRID, 6.5)
        with pytest.raises(DomainError, match="beta1=1.5707963267948966 and "
                                              "beta2=2.0943951023931953 rad"):
            entropy_sweep(PARAMS, TestOrthogonalPolarizationPair.NOT_ORTHOGONAL, self.GRID, 6.5)

    @pytest.mark.parametrize("r, reason", [
        (complex(math.inf), "coincidence amplitudes are not finite"),
        (complex(math.nan), "coincidence amplitudes are not finite"),
        (complex(MAX_FLOAT_ROOT * 2.0), "coincidence amplitudes are not finite"),
        (0j, "all coincidence amplitudes vanish; state undefined"),
    ])
    def test_a_bad_squared_norm_is_named_on_a_hit(self, monkeypatch, r, reason):
        entropy_sweep(PARAMS, self.GEOMETRIES[0], self.GRID, 6.5)
        monkeypatch.setattr(AmplitudeCalculator, "reduced_amplitude", lambda self, epsilon: r)
        with pytest.raises(DomainError) as error:
            entropy_sweep(PARAMS, self.GEOMETRIES[1], self.GRID, 6.5)
        assert str(error.value) == f"{PARAMS!r}, epsilon=6.5: {reason}"


class TestPureStateSpectrum:
    """``full_density_matrix`` stores the exact spectrum of |psi><psi| with no
    eigensolve. ``DensityMatrix(basis, matrix)`` still solves and checks every
    other matrix: ``TestDensityMatrices::test_validation`` rejects a matrix
    that is not Hermitian, one whose trace is not 1 and one with a negative
    eigenvalue."""

    def states(self, calc, n=40):
        rng = np.random.default_rng(83)
        for theta in (0.0, 33.0, 90.0, 180.0):
            yield entangled_state(calc.amplitudes(EmissionGeometry.from_degrees(theta), 6.5))
        for _ in range(n):
            beta1 = rng.uniform(0.0, 360.0)
            geom = EmissionGeometry.from_degrees(rng.uniform(0.0, 180.0), rng.uniform(0.0, 360.0),
                                                 beta1, beta1 + rng.choice([90.0, 270.0]))
            yield entangled_state(calc.amplitudes(geom, rng.uniform(4.0, 9.0)))

    def test_the_stored_spectrum_is_the_eigensolve_of_the_matrix(self, calc):
        for state in self.states(calc):
            rho = full_density_matrix(state)
            assert rho.eigenvalues.tolist() == [0.0, 0.0, 0.0, 1.0]
            solved = np.linalg.eigvalsh(rho.matrix)
            assert np.max(np.abs(solved - rho.eigenvalues)) <= 1e-15
            assert np.all(solved >= -1e-12)

    def test_a_pure_state_has_zero_entropy(self, calc):
        # a stored |v|^2 once gave 1.6e-16 bits at theta = 33 degrees
        for state in self.states(calc):
            s = von_neumann_entropy(full_density_matrix(state))
            assert s == 0.0 and math.copysign(1.0, s) == 1.0

    def test_no_eigensolve(self, calc, monkeypatch):
        states = list(self.states(calc, n=5))

        def refuse(m):
            raise AssertionError("eigvalsh called")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        for state in states:
            full_density_matrix(state)

    def test_the_trace_is_checked_again(self, monkeypatch):
        # a norm^2 0.9e-12 above 1 passes the state's check; a tighter matrix
        # tolerance shows that the trace of rho is checked on its own
        geom = EmissionGeometry.from_degrees(90.0)
        state = EntangledState(np.array([[0.0, 1.0], [1.0j, 0.0]]) * math.sqrt((1 + 0.9e-12) / 2),
                               6.5, geom)
        assert full_density_matrix(state).eigenvalues.tolist() == [0.0, 0.0, 0.0, 1.0]
        monkeypatch.setattr(entanglement, "_MATRIX_TOL", 1e-13)
        with pytest.raises(DomainError, match="trace"):
            full_density_matrix(state)


class TestOrthogonalPolarizationPair:
    """The spin-polarization state needs an orthonormal polarization basis."""

    NOT_ORTHOGONAL = EmissionGeometry.from_degrees(90.0, 0.0, 90.0, 120.0)

    def test_a_sweep_over_a_pair_that_is_not_a_basis_is_a_domain_error(self):
        # it once returned (1.6e-16, 0.206, 0.355) bits
        with pytest.raises(DomainError, match="beta1=1.5707963267948966 and "
                                              "beta2=2.0943951023931953 rad"):
            entropy_sweep(PARAMS, self.NOT_ORTHOGONAL, [0, 45, 90], 6.5)

    def test_a_state_refuses_the_pair(self, calc):
        with pytest.raises(DomainError, match="not orthogonal"):
            entangled_state(calc.amplitudes(self.NOT_ORTHOGONAL, 6.5))

    def test_a_state_built_directly_refuses_the_pair(self):
        # it once constructed, and reduce_to_spin of it reported 1.0 bit
        coeffs = np.array([[0.0, 1.0], [1.0j, 0.0]]) / math.sqrt(2.0)
        with pytest.raises(DomainError, match="beta1=1.5707963267948966 and "
                                              "beta2=2.0943951023931953 rad"):
            EntangledState(coeffs, 6.5, self.NOT_ORTHOGONAL)

    @pytest.mark.parametrize("beta1, beta2", [(90.0, 180.0), (30.0, 120.0), (200.0, -70.0),
                                              (10.0, 280.0)])
    def test_every_orthogonal_pair_is_accepted(self, calc, beta1, beta2):
        geom = EmissionGeometry.from_degrees(57.0, 0.0, beta1, beta2)
        full_density_matrix(entangled_state(calc.amplitudes(geom, 6.5)))
        assert entropy_sweep(PARAMS, geom, [57.0], 6.5).entropy[0] == \
            pytest.approx(oracle_entropy(57.0), abs=1e-12)
