"""Entangled state, density matrices and the emission-angle entropy curve."""

import math

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

from reference import closed_form_state

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
