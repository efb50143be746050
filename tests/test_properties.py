"""Property-based invariants of the model over bounded physical parameters.

Draws include exact G = 0 and zeta = 0, where levels are degenerate and the
cluster resolution of ``diagonalize`` carries the labels. Hypothesis also
folds literals it finds in the source files into its draws, so
``derandomize=True`` alone does not fix what is tested: the hard cases are
explicit examples of every property (``hard_cases``), and run every time.

``fock_hamiltonian`` is the per-state Fock-space route that the cached,
parameter-linear ``build_hamiltonian`` replaced; it is kept here as the
reference.
"""

from math import cos, log2, radians

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xepecs.amplitudes import calculator, xepecs_amplitudes
from xepecs.entanglement import (
    closed_form_state,
    entangled_state,
    entropy_sweep,
    full_density_matrix,
)
from xepecs.fockspace import ORBITALS, Shell, Spin
from xepecs.model import (
    ModelParams,
    SubspaceLabel,
    _apply_diagonal,
    _apply_exchange,
    _apply_spin_orbit,
    _operator_matrix,
    build_hamiltonian,
    initial_state,
    intermediate_eigensystem,
    j_squared_matrix,
    jz_matrix,
    s_squared_matrix,
    subspace,
)
from xepecs.polarization import EmissionGeometry

from reference import photoemission_elements

ENTROPY_TOL = 1e-9

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

HARD_PARAMS = (
    ModelParams(G=0.0, zeta=1e-8),
    ModelParams(G=0.0, zeta=0.0),
    # a level energy far above the splittings, once rounded into the resonance
    ModelParams(eps_p=1e14),
    # levels split just above the degeneracy tolerance, once mislabelled
    ModelParams(G=2.5851919801451547e-11, zeta=1.8541897049222843e-09,
                eps_s=-26.71222382762132, eps_p=-1.3241151072793786),
)


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
        return (_apply_diagonal(v, levels) + params.zeta * _apply_spin_orbit(v)
                + (-2.0 * params.G) * _apply_exchange(v))

    return _operator_matrix(sub, apply)


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
        jsq, jz, ssq = j_squared_matrix(sub), jz_matrix(sub), s_squared_matrix(sub)
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
        jsq = j_squared_matrix(eig.subspace)
        for i, j in enumerate(eig.j_labels):
            assert j.is_integer
            x = float(np.real(eig.vectors[:, i].conj() @ jsq @ eig.vectors[:, i]))
            assert abs(x - float(j.value * (j.value + 1))) <= 1e-8


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
    assert np.max(np.abs(m - m.conj().T)) <= 1e-12
    assert abs(np.trace(m) - 1.0) <= 1e-12
    eigenvalues = np.linalg.eigvalsh(m)
    assert eigenvalues[0] >= -1e-12
    assert abs(eigenvalues[-1] - 1.0) <= 1e-12 and np.all(np.abs(eigenvalues[:-1]) <= 1e-12)
