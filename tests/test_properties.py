"""Property-based invariants of the model over bounded physical parameters.

Draws include exact G = 0 and zeta = 0, where levels are degenerate and the
J blocks of ``diagonalize`` carry the labels. Hypothesis also
folds literals it finds in the source files into its draws, so
``derandomize=True`` alone does not fix what is tested: the hard cases are
explicit examples of every property (``hard_cases``), and run every time.

``fock_hamiltonian`` applies H to one basis state at a time through the
operators of ``reference``, the route that the cached, parameter-linear
``build_hamiltonian`` replaced; it is kept here as the reference.
"""

from math import cos, log2, radians

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xepecs.amplitudes import AmplitudeCalculator, calculator, xepecs_amplitudes
from xepecs.entanglement import (
    DomainError,
    _normalize,
    _spin_matrix,
    _spin_spectrum,
    closed_form_state,
    entangled_state,
    entropy_sweep,
    full_density_matrix,
)
from xepecs.fockspace import ORBITALS, Shell, Spin
from xepecs.model import (
    ModelParams,
    SubspaceLabel,
    build_hamiltonian,
    initial_state,
    intermediate_eigensystem,
    subspace,
)
from xepecs.polarization import EmissionGeometry
from xepecs.spectra import xps_lines

from reference import (
    apply_diagonal,
    apply_exchange,
    apply_spin_orbit,
    model_operators,
    operator_matrix,
    photoemission_elements,
)

ENTROPY_TOL = 1e-9

# J^2, S^2 and J_z of each subspace, one basis vector at a time
ANGULAR_OPERATORS = {label: model_operators(subspace(label))[2:] for label in SubspaceLabel}

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=60)

params_st = st.builds(
    ModelParams,
    G=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
    zeta=st.one_of(st.just(0.0), st.floats(0.0, 0.5)),
    eps_s=st.floats(-20.0, -10.0),
    eps_p=st.floats(-8.0, -3.0),
    Omega=st.floats(15.0, 30.0),
    Gamma_1s=st.floats(0.1, 1.0),
)
epsilon_st = st.floats(4.0, 9.0)
angle_st = st.floats(0.0, 360.0)
theta_st = st.floats(0.0, 180.0)
# one 2 x 2 coefficient matrix, row-major; any nonzero norm, not only 1
coeff_st = st.lists(st.complex_numbers(max_magnitude=1.0, allow_nan=False), min_size=4,
                    max_size=4).filter(lambda z: sum(abs(x) ** 2 for x in z) >= 1e-6)

HARD_PARAMS = (
    ModelParams(G=0.0, zeta=1e-8),
    ModelParams(G=0.0, zeta=0.0),
    # a level energy far above the splittings, once rounded into the resonance
    ModelParams(eps_p=1e14),
    # levels split just above the degeneracy tolerance, once mislabelled
    ModelParams(G=2.5851919801451547e-11, zeta=1.8541897049222843e-09,
                eps_s=-26.71222382762132, eps_p=-1.3241151072793786),
    # levels of J = 0 and J = 1 about 1e-10 eV apart, once mixed by roundoff
    ModelParams(G=1.7680844477165957e-10, zeta=0.3481734336815314),
    # J = 1 blocks in closed form: an exactly zero off-diagonal, the larger
    # diagonal entry first on the up-spin side, and a subnormal one
    ModelParams(G=1.0, zeta=0.0),
    ModelParams(G=0.0, zeta=2.2e-311),
)


SEPARABLE = np.array([[0.6, 0.8j], [0.0, 0.0]])                    # det c = 0
MAXIMALLY_ENTANGLED = np.array([[0.0, 1.0], [1.0j, 0.0]]) / np.sqrt(2.0)
NEAR_SEPARABLE = np.array([[0.6, 0.8j], [0.0, 1e-9]])              # |det c| = 6e-10, exactly
# unitary / sqrt(2), from QR of complex normals: lambda_- = lambda_+ = 1/2, where
# |det c|^2 / lambda_+ once came out an ulp above lambda_+ for 318 of them
_NORMALS = np.random.default_rng(0).normal(size=(2, 10_000, 2, 2))
MAXIMALLY_ENTANGLED_DRAWS = np.linalg.qr(_NORMALS[0] + 1j * _NORMALS[1])[0] / np.sqrt(2.0)


def oracle(theta_deg):
    c = abs(cos(radians(theta_deg)))
    return -sum(x * log2(x) for x in ((1.0 + c) / 2.0, (1.0 - c) / 2.0) if x > 0.0)


def hard_cases(*rest):
    """One explicit example per HARD_PARAMS entry, with the other arguments ``rest``."""
    def decorate(test):
        for params in HARD_PARAMS:
            test = example(params, *rest)(test)
        return test
    return decorate


def geometry(phi, beta1):
    return EmissionGeometry.from_degrees(90.0, phi, beta1, beta1 + 90.0)


def fock_hamiltonian(params, sub):
    """H applied to each basis state through the Fock-space operators."""
    levels = tuple(params.eps_s if o.shell is Shell.S1S else params.eps_p for o in ORBITALS)

    def apply(v):
        return (apply_diagonal(v, levels) + params.zeta * apply_spin_orbit(v)
                + (-2.0 * params.G) * apply_exchange(v))

    return operator_matrix(sub, apply)


@SETTINGS
@given(params_st, epsilon_st, angle_st, angle_st, st.lists(theta_st, max_size=5))
@hard_cases(6.5, 30.0, 20.0, [45.0])
def test_entropy_oracle(params, epsilon, phi, beta1, thetas):
    thetas = [0.0, 90.0, 180.0] + thetas
    curve = entropy_sweep(params, geometry(phi, beta1), thetas, epsilon)
    assert abs(curve.entropy[1] - 1.0) <= ENTROPY_TOL
    assert abs(curve.entropy[0]) <= ENTROPY_TOL and abs(curve.entropy[2]) <= ENTROPY_TOL
    for theta, s in zip(thetas, curve.entropy):
        assert abs(s - oracle(theta)) <= ENTROPY_TOL


@SETTINGS
@given(params_st, theta_st, epsilon_st, epsilon_st, angle_st, angle_st, angle_st, angle_st)
@hard_cases(45.0, 5.0, 8.0, 0.0, 90.0, 10.0, 70.0)
def test_entropy_independent_of_epsilon_phi_and_pair_rotation(params, theta, eps1, eps2,
                                                              phi1, phi2, beta1, beta2):
    s1 = entropy_sweep(params, geometry(phi1, beta1), [theta], eps1).entropy[0]
    s2 = entropy_sweep(params, geometry(phi2, beta2), [theta], eps2).entropy[0]
    assert abs(s1 - s2) <= ENTROPY_TOL


@SETTINGS
@given(params_st, theta_st, angle_st, epsilon_st)
@hard_cases(45.0, 30.0, 6.5)
def test_fidelity_with_closed_form(params, theta, phi, epsilon):
    geom = EmissionGeometry.from_degrees(theta, phi, 90.0, 180.0)
    state = entangled_state(xepecs_amplitudes(params, geom, epsilon))
    assert abs(state.fidelity(closed_form_state(geom)) - 1.0) <= ENTROPY_TOL


@SETTINGS
@given(params_st)
@hard_cases()
def test_operators_hermitian_and_commuting(params):
    for label in SubspaceLabel:
        sub = subspace(label)
        H = build_hamiltonian(params, sub)
        jsq, ssq, jz = ANGULAR_OPERATORS[label]
        for op in (H, jsq, ssq):
            assert np.max(np.abs(op - op.conj().T)) <= 1e-12
        for op in (jsq, jz):
            assert np.max(np.abs(H @ op - op @ H)) <= 1e-12 * max(1.0, np.max(np.abs(H)))


@SETTINGS
@given(params_st)
@hard_cases()
def test_intermediate_j_labels_are_integers_with_sharp_j_squared(params):
    for sigma in Spin:
        eig = intermediate_eigensystem(params, sigma)
        jsq = ANGULAR_OPERATORS[eig.subspace.label][0]
        for i, j in enumerate(eig.j_labels):
            assert j.twice_value % 2 == 0
            x = float(np.real(eig.vectors[:, i].conj() @ jsq @ eig.vectors[:, i]))
            assert abs(x - float(j.value * (j.value + 1))) <= 1e-8


@SETTINGS
@given(params_st)
@hard_cases()
def test_photoemission_selection_rules(params):
    # unit total strength, dark J = 2, and down-spin J = 1 lines at twice the up-spin weight
    lines = {sigma: xps_lines(params, sigma) for sigma in Spin}
    total = sum(line.weight for spectrum in lines.values() for line in spectrum.lines)
    assert abs(total - 1.0) <= 1e-12
    assert all(line.weight <= 1e-12 for spectrum in lines.values()
               for line in spectrum.select(2).lines)
    j1 = {sigma: sum(line.weight for line in lines[sigma].select(1).lines) for sigma in Spin}
    assert abs(j1[Spin.DOWN] - 2.0 * j1[Spin.UP]) <= 1e-12


@SETTINGS
@given(params_st)
@hard_cases()
def test_hamiltonian_equals_the_fock_space_route(params):
    for label in SubspaceLabel:
        sub = subspace(label)
        H = build_hamiltonian(params, sub)
        scale = max(1.0, np.max(np.abs(H)))
        assert np.max(np.abs(H - fock_hamiltonian(params, sub))) <= 1e-15 * scale


@SETTINGS
@given(params_st)
@hard_cases()
def test_photoemission_elements_equal_the_per_call_route(params):
    calc = calculator(params)
    g, _ = initial_state(params)
    for sigma in Spin:
        reference = photoemission_elements(g, calc.eigensystems[sigma], sigma)
        assert np.max(np.abs(calc.pe_elements[sigma] - reference)) <= 1e-15


@SETTINGS
@given(params_st)
@hard_cases()
def test_ground_energy_is_the_j_half_level(params):
    _, energy = initial_state(params)
    assert abs(energy - (2 * params.eps_s + params.eps_p - params.zeta)) <= 1e-12


@SETTINGS
@given(params_st, theta_st, angle_st, angle_st, epsilon_st)
@hard_cases(45.0, 30.0, 20.0, 6.5)
def test_density_matrix_is_a_pure_state(params, theta, phi, beta1, epsilon):
    geom = EmissionGeometry.from_degrees(theta, phi, beta1, beta1 + 90.0)
    m = full_density_matrix(entangled_state(xepecs_amplitudes(params, geom, epsilon))).matrix
    assert np.array_equal(m, m.conj().T)
    assert np.all(m.diagonal().imag == 0.0)
    assert abs(np.trace(m) - 1.0) <= 1e-12
    eigenvalues = np.linalg.eigvalsh(m)
    assert eigenvalues[0] >= -1e-12
    assert abs(eigenvalues[-1] - 1.0) <= 1e-12 and np.all(np.abs(eigenvalues[:-1]) <= 1e-12)


@SETTINGS
@given(params_st, st.lists(theta_st, max_size=5), angle_st, angle_st, epsilon_st,
       st.lists(coeff_st, max_size=6))
@hard_cases([45.0], 30.0, 20.0, 6.5, [[1e-300, 0.0, 0.0, 1.0], [1.0, 1.0, 1.0, 1.0]])
def test_spin_spectrum_equals_the_reduced_matrix_eigenvalues(params, thetas, phi, beta1,
                                                            epsilon, draws):
    # the closed form never forms c c^dag; its eigenvalues from eigvalsh are the
    # reference, so the trace, Hermiticity and positivity checks it skips still hold
    amps = calculator(params).amplitude_array(np.radians([0.0, 90.0, 180.0] + thetas),
                                              geometry(phi, beta1), epsilon)
    stack = np.concatenate([_normalize(amps, params, epsilon),
                            np.array(draws, dtype=complex).reshape(-1, 2, 2),
                            [SEPARABLE, MAXIMALLY_ENTANGLED, NEAR_SEPARABLE],
                            MAXIMALLY_ENTANGLED_DRAWS])
    spectrum = _spin_spectrum(stack)
    assert spectrum.shape == stack.shape[:-1]
    assert np.max(np.abs(spectrum - np.linalg.eigvalsh(_spin_matrix(stack)))) <= 1e-12
    norm_sq = np.sum(np.abs(stack) ** 2, axis=(-2, -1))
    assert np.max(np.abs(spectrum.sum(axis=-1) - norm_sq)) <= 1e-12
    assert np.all(spectrum[:, 0] >= 0.0) and np.all(spectrum[:, 0] <= spectrum[:, 1])


def test_spin_spectrum_of_separable_and_maximally_entangled_states():
    lower, upper = _spin_spectrum(np.array([SEPARABLE, MAXIMALLY_ENTANGLED, NEAR_SEPARABLE])).T
    assert lower[0] == 0.0 and abs(upper[0] - 1.0) <= 1e-15
    assert abs(lower[1] - 0.5) <= 1e-15 and abs(upper[1] - 0.5) <= 1e-15
    # lambda_- = |det c|^2 / lambda_+ with no cancellation: about 3.6e-19, where
    # eigvalsh is only good to ~1e-16 absolute
    assert abs(lower[2] - (0.6 * 1e-9) ** 2 / upper[2]) <= 1e-12 * lower[2]


@pytest.mark.parametrize("params", HARD_PARAMS[:2] + (ModelParams(),))
def test_nan_amplitude_is_a_domain_error_naming_the_inputs(monkeypatch, params):
    amplitude_array = AmplitudeCalculator.amplitude_array

    def with_nan(self, thetas, geom, epsilon):
        amps = amplitude_array(self, thetas, geom, epsilon).copy()
        amps[1, 1, 0] = np.nan
        return amps

    monkeypatch.setattr(AmplitudeCalculator, "amplitude_array", with_nan)
    with pytest.raises(DomainError) as error:
        entropy_sweep(params, geometry(30.0, 20.0), [0.0, 45.0, 90.0], 6.5)
    assert str(error.value).startswith(f"{params!r}, epsilon=6.5: ")
    with pytest.raises(DomainError, match="negative eigenvalue"):
        _spin_spectrum(np.full((2, 2, 2), np.nan))
