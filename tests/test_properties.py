"""Property-based invariants of the model over bounded physical parameters.

Draws include exact G = 0 and zeta = 0, where levels are degenerate and the
J blocks of the levels carry the labels. Hypothesis also
folds literals it finds in the source files into its draws, so
``derandomize=True`` alone does not fix what is tested: the hard cases are
explicit examples of every property (``hard_cases``), and run every time.

``fock_hamiltonian`` applies H to one basis state at a time through the
operators of ``reference``, the route that the cached, parameter-linear
matrices (``reference.build_hamiltonian``) replaced; it is kept here as the
reference. The levels are held to their closed forms in J.
"""

from dataclasses import replace
from math import cos, log2, radians, sin

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from xepecs.amplitudes import KAPPA, AmplitudeCalculator, calculator, xepecs_amplitudes
from xepecs.angular import HalfInt
from xepecs.entanglement import (
    DensityMatrix,
    _grid_terms,
    _spin_invariants,
    _spin_spectrum,
    entangled_state,
    entropy_sweep,
    full_density_matrix,
    von_neumann_entropy,
)
from xepecs.fockspace import Spin
from xepecs.model import DomainError, ModelParams, SubspaceLabel
from xepecs.polarization import EmissionGeometry
from xepecs.spectra import xps_lines

from reference import (
    ORBITALS,
    Shell,
    amplitude_array,
    apply_diagonal,
    block_eigh,
    apply_exchange,
    apply_spin_orbit,
    build_hamiltonian,
    closed_form_state,
    coupling_hamiltonian,
    eigenvectors,
    initial_state,
    model_operators,
    operator_matrix,
    per_angle_norm_checks,
    per_eigenstate_terms,
    photoemission_elements,
    reduced_spin_matrices,
    spin_vectors,
    stacked_entropy_bits,
    stacked_sweep_entropy,
    subspace,
    subspace_levels,
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
    # degenerate in exact arithmetic, at the default couplings: zeta = 0 makes the
    # three triplet levels equal as floats, and at G = 0 the J = 1 rotation leaves
    # its levels within an ulp of 3P0 and 3P2 (see test_model.TestJBlocks)
    ModelParams(G=0.3, zeta=0.0),
    ModelParams(G=0.0, zeta=0.1),
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


def invariants(coeffs):
    """(a, d, |b|, |det c|) of the reduced spin matrices c c^dag = [[a, b], [b*, d]]
    of a (N, 2, 2) coefficient stack."""
    a, d = np.moveaxis(np.sum(np.abs(coeffs) ** 2, axis=-1), -1, 0)
    b = coeffs[:, 0, 0] * coeffs[:, 1, 0].conj() + coeffs[:, 0, 1] * coeffs[:, 1, 1].conj()
    det = coeffs[:, 0, 0] * coeffs[:, 1, 1] - coeffs[:, 0, 1] * coeffs[:, 1, 0]
    return a, d, np.abs(b), np.abs(det)


def same_bits(x, y):
    """Float arrays (or numbers) of one shape and equal bits, so 0.0 and -0.0 differ."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return x.shape == y.shape and x.tobytes() == y.tobytes()


def sweep(params, geom, thetas, epsilon):
    """``entropy_sweep``, its bits held to the stacked route of ``reference`` exactly."""
    curve = entropy_sweep(params, geom, thetas, epsilon)
    assert same_bits(curve.entropy, stacked_sweep_entropy(thetas, geom))
    return curve


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
@hard_cases(6.5, 30.0, 20.0, [-0.0, 1e-300])
def test_entropy_oracle(params, epsilon, phi, beta1, thetas):
    thetas = [0.0, 90.0, 180.0] + thetas
    curve = sweep(params, geometry(phi, beta1), thetas, epsilon)
    assert abs(curve.entropy[1] - 1.0) <= ENTROPY_TOL
    assert abs(curve.entropy[0]) <= ENTROPY_TOL and abs(curve.entropy[2]) <= ENTROPY_TOL
    for theta, s in zip(thetas, curve.entropy):
        assert abs(s - oracle(theta)) <= ENTROPY_TOL


@SETTINGS
@given(params_st, theta_st, epsilon_st, epsilon_st, angle_st, angle_st, angle_st, angle_st)
@hard_cases(45.0, 5.0, 8.0, 0.0, 90.0, 10.0, 70.0)
def test_entropy_independent_of_epsilon_phi_and_pair_rotation(params, theta, eps1, eps2,
                                                              phi1, phi2, beta1, beta2):
    s1 = sweep(params, geometry(phi1, beta1), [theta], eps1).entropy[0]
    s2 = sweep(params, geometry(phi2, beta2), [theta], eps2).entropy[0]
    assert abs(s1 - s2) <= ENTROPY_TOL


@SETTINGS
@given(params_st, theta_st, angle_st, epsilon_st)
@hard_cases(45.0, 30.0, 6.5)
def test_fidelity_with_closed_form(params, theta, phi, epsilon):
    geom = EmissionGeometry.from_degrees(theta, phi, 90.0, 180.0)
    state = entangled_state(xepecs_amplitudes(params, geom, epsilon))
    fidelity = abs(np.vdot(state.vector(), closed_form_state(geom).vector()))
    assert abs(fidelity - 1.0) <= ENTROPY_TOL


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
        eig = AmplitudeCalculator(params).eigensystems[sigma]
        jsq, v = ANGULAR_OPERATORS[eig.label][0], eigenvectors(eig)
        for i, j in enumerate(eig.j_labels):
            assert j.twice_value % 2 == 0
            x = float(np.real(v[:, i].conj() @ jsq @ v[:, i]))
            assert abs(x - float(j.value * (j.value + 1))) <= 1e-8


@SETTINGS
@given(params_st)
@hard_cases()
def test_levels_equal_their_closed_forms(params):
    # with <S_1s . S_2p> = -3/4 (S = 0) or 1/4 (S = 1) and <l.s> on a (1, S = 1) J
    # level (J(J + 1) - 4)/4, J = 0 and J = 2 are pure; the two J = 1 levels mix
    # the singlet and the triplet through <S=0| l.s |S=1> = -1/sqrt(2)
    G, zeta = params.G, params.zeta
    calc = calculator(params)
    levels = {}
    for sigma in Spin:
        eig = calc.eigensystems[sigma]
        for j in (0, 1, 2):
            found = [e for e, x in zip(eig.coupling_energies, eig.j_labels) if x == HalfInt.of(j)]
            levels.setdefault(j, []).append(sorted(found))
    j1 = np.linalg.eigvalsh([[1.5 * G, -zeta / np.sqrt(2.0)],
                             [-zeta / np.sqrt(2.0), -0.5 * zeta - 0.5 * G]])
    assert [len(x) for x in levels[0]] == [1, 0]   # no J = 0 level with M = 1
    for found, closed_form in ((levels[0][0], [-zeta - 0.5 * G]),
                               (levels[1][0], j1), (levels[1][1], j1),
                               (levels[2][0], [0.5 * zeta - 0.5 * G]),
                               (levels[2][1], [0.5 * zeta - 0.5 * G]),
                               ([calc.ground_coupling], [-zeta])):
        assert np.max(np.abs(np.subtract(found, closed_form))) <= 1e-15


@SETTINGS
@given(params_st)
@hard_cases()
def test_the_shared_rotation_equals_each_subspace_solved_on_its_own(params):
    # one evaluation of H' and one J = 1 rotation for both spins give, bit for
    # bit, the levels of each subspace solved on its own from the same tables,
    # and the per-block eigh of the per-vector route to 1e-12
    calc = calculator(params)
    ground = subspace_levels(params, SubspaceLabel.INITIAL)
    assert same_bits(calc.ground_coupling, ground[0][ground[2].index(HalfInt.of(0.5))])
    for sigma in Spin:
        eig = calc.eigensystems[sigma]
        energies, vectors, labels, rotation = subspace_levels(params, eig.label)
        assert same_bits(eig.coupling_energies, energies) and same_bits(eig.rotation, rotation)
        assert eig.j_labels == labels
        H = coupling_hamiltonian(params, subspace(eig.label))
        scale = max(1.0, np.max(np.abs(H)))
        theirs, _, their_labels = block_eigh(H, subspace(eig.label))
        for j in set(labels):
            ours = [e for e, x in zip(energies, labels) if x == j]
            assert np.max(np.abs(np.subtract(ours, sorted(
                e for e, x in zip(theirs, their_labels) if x == j)))) <= 1e-12 * scale
        assert np.max(np.abs(H @ vectors - vectors * energies)) <= 1e-12 * scale


@SETTINGS
@given(params_st)
@hard_cases()
def test_photoemission_selection_rules(params):
    # unit total strength, dark J = 2, and down-spin J = 1 lines at twice the up-spin weight
    lines = {sigma: xps_lines(params, sigma) for sigma in Spin}
    total = sum(line.weight for spectrum in lines.values() for line in spectrum.lines)
    assert abs(total - 1.0) <= 1e-12
    assert all(line.weight == 0.0 for spectrum in lines.values()
               for line in spectrum.lines if line.j == HalfInt.of(2))
    j1 = {sigma: sum(line.weight for line in lines[sigma].lines if line.j == HalfInt.of(1))
          for sigma in Spin}
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
@given(params_st, theta_st, angle_st, angle_st, epsilon_st)
@hard_cases(33.0, 30.0, 20.0, 6.5)
@hard_cases(0.0, 0.0, 90.0, 6.5)
def test_density_matrix_stores_the_exact_pure_spectrum(params, theta, phi, beta1, epsilon):
    # (0, 0, 0, 1) with no eigensolve, within 1e-15 of one, and zero bits exactly
    geom = EmissionGeometry.from_degrees(theta, phi, beta1, beta1 + 90.0)
    rho = full_density_matrix(entangled_state(xepecs_amplitudes(params, geom, epsilon)))
    assert rho.eigenvalues.tolist() == [0.0, 0.0, 0.0, 1.0]
    solved = np.linalg.eigvalsh(rho.matrix)
    assert np.max(np.abs(solved - rho.eigenvalues)) <= 1e-15 and np.all(solved >= -1e-12)
    assert von_neumann_entropy(rho) == 0.0


@SETTINGS
@given(params_st, epsilon_st)
@hard_cases(6.5)
def test_reference_spin_vectors_obey_the_wigner_eckart_theorem(params, epsilon):
    # the general route sums every eigenstate of both spins over all three q; its
    # structural zeros stay zeros and its up-spin q = 0 entry is KAPPA R
    t = spin_vectors(calculator(params), epsilon)
    scale = abs(t[1, 2])
    assert np.max(np.abs([t[0, 0], t[0, 2], t[1, 0], t[1, 1]])) <= 1e-15 * scale
    assert abs(t[0, 1] - KAPPA * t[1, 2]) <= 1e-15 * scale


@SETTINGS
@given(params_st, theta_st, angle_st, angle_st, angle_st, epsilon_st)
@hard_cases(45.0, 30.0, 20.0, 75.0, 6.5)
def test_amplitudes_equal_the_summed_per_eigenstate_terms(params, theta, phi, beta1, beta2,
                                                          epsilon):
    assume(abs(sin(radians(beta2 - beta1))) >= 1e-6)
    geom = EmissionGeometry.from_degrees(theta, phi, beta1, beta2)
    calc = calculator(params)
    amps = calc.amplitudes(geom, epsilon).values
    summed = np.array([per_eigenstate_terms(calc, geom, epsilon, sigma).sum(axis=1)
                       for sigma in Spin])
    assert np.max(np.abs(amps - summed)) <= 1e-14 * np.max(np.abs(summed))


@SETTINGS
@given(params_st, st.lists(theta_st, max_size=5), angle_st, angle_st, st.booleans(), epsilon_st)
@hard_cases([45.0], 30.0, 20.0, False, 6.5)
@hard_cases([1e-300, 135.0], 0.0, 10.0, True, 5.0)
def test_entropy_sweep_equals_the_reference_reduced_matrix(params, thetas, phi, beta1, flip,
                                                           epsilon):
    # either orientation of an orthogonal pair (any other pair is a DomainError),
    # and both signs of theta = 0
    thetas = [0.0, -0.0, 90.0, 180.0] + thetas
    geom = EmissionGeometry.from_degrees(90.0, phi, beta1, beta1 + (270.0 if flip else 90.0))
    curve = sweep(params, geom, thetas, epsilon)
    amps = amplitude_array(calculator(params), np.radians(thetas), geom, epsilon)
    eigenvalues = np.linalg.eigvalsh(reduced_spin_matrices(amps))
    assert np.max(np.abs(np.array(curve.entropy) - stacked_entropy_bits(eigenvalues))) <= 1e-14


@SETTINGS
@given(params_st, st.lists(theta_st, max_size=5), angle_st, angle_st, epsilon_st)
@hard_cases([], 30.0, 20.0, 6.5)
@hard_cases([0.0, 180.0], 0.0, 90.0, 6.5)
def test_the_sweep_checks_its_bounds_as_every_angle(params, thetas, phi, beta1, epsilon):
    # the sweep checks |R|^2 (a + d) and a + d only at their least and greatest values
    geom = geometry(phi, beta1)
    r = calculator(params).reduced_amplitude(epsilon)
    a, d, _, _ = _spin_invariants(_grid_terms(np.radians(np.asarray(thetas, dtype=float))), geom)
    assert per_angle_norm_checks(r.real * r.real + r.imag * r.imag, a + d, params, epsilon) is None
    assert len(sweep(params, geom, thetas, epsilon).entropy) == len(thetas)


@SETTINGS
@given(params_st, st.lists(theta_st, max_size=5), angle_st, angle_st, epsilon_st,
       st.lists(coeff_st, max_size=6))
@hard_cases([45.0], 30.0, 20.0, 6.5, [[1e-300, 0.0, 0.0, 1.0], [1.0, 1.0, 1.0, 1.0]])
def test_spin_spectrum_equals_the_reduced_matrix_eigenvalues(params, thetas, phi, beta1,
                                                            epsilon, draws):
    # the closed form never forms c c^dag; its eigenvalues from eigvalsh are the
    # reference, so the trace, Hermiticity and positivity checks it skips still hold
    geom, calc = geometry(phi, beta1), calculator(params)
    amps = np.array([calc.amplitudes(replace(geom, theta=theta), epsilon).values
                     for theta in np.radians([0.0, 90.0, 180.0] + thetas).tolist()])
    norms = np.sqrt(np.sum(np.abs(amps) ** 2, axis=(-2, -1)))[:, None, None]
    stack = np.concatenate([amps / norms,
                            np.array(draws, dtype=complex).reshape(-1, 2, 2),
                            [SEPARABLE, MAXIMALLY_ENTANGLED, NEAR_SEPARABLE],
                            MAXIMALLY_ENTANGLED_DRAWS])
    spectrum = np.stack(_spin_spectrum(*invariants(stack)), axis=-1)
    assert spectrum.shape == stack.shape[:-1]
    reduced = stack @ stack.conj().swapaxes(-1, -2)
    assert np.max(np.abs(spectrum - np.linalg.eigvalsh(reduced))) <= 1e-12
    norm_sq = np.sum(np.abs(stack) ** 2, axis=(-2, -1))
    assert np.max(np.abs(spectrum.sum(axis=-1) - norm_sq)) <= 1e-12
    assert np.all(spectrum[:, 0] >= 0.0) and np.all(spectrum[:, 0] <= spectrum[:, 1])


def test_spin_spectrum_of_separable_and_maximally_entangled_states():
    stack = np.array([SEPARABLE, MAXIMALLY_ENTANGLED, NEAR_SEPARABLE])
    lower, upper = _spin_spectrum(*invariants(stack))
    assert lower[0] == 0.0 and abs(upper[0] - 1.0) <= 1e-15
    assert abs(lower[1] - 0.5) <= 1e-15 and abs(upper[1] - 0.5) <= 1e-15
    # lambda_- = |det c|^2 / lambda_+ with no cancellation: about 3.6e-19, where
    # eigvalsh is only good to ~1e-16 absolute
    assert abs(lower[2] - (0.6 * 1e-9) ** 2 / upper[2]) <= 1e-12 * lower[2]


@pytest.mark.parametrize("n", [2, 4])
def test_von_neumann_entropy_equals_the_summed_bits(n):
    # density matrices U diag(p) U^dag, written exactly Hermitian, of every rank
    # from pure to maximally mixed, as one stack and one matrix at a time
    rng = np.random.default_rng(n)
    p = rng.dirichlet(np.ones(n), size=300)
    p[:n] = np.eye(n)
    p[n] = 1.0 / n
    normals = rng.normal(size=(2, 300, n, n))
    u = np.linalg.qr(normals[0] + 1j * normals[1])[0]
    m = (u * p[:, None, :]) @ u.conj().swapaxes(-1, -2)
    stack = np.concatenate([0.5 * (m + m.conj().swapaxes(-1, -2)),
                            [np.diag(np.r_[1.0 + 1e-13, np.full(n - 1, -1e-13 / (n - 1))])]])
    expected = stacked_entropy_bits(np.linalg.eigvalsh(stack))
    assert same_bits(von_neumann_entropy(stack), expected)
    basis = tuple(map(str, range(n)))
    for rho in stack:
        single = stacked_entropy_bits(np.linalg.eigvalsh(rho))
        assert type(von_neumann_entropy(rho)) is float
        assert same_bits(von_neumann_entropy(rho), single)
        assert same_bits(von_neumann_entropy(DensityMatrix(basis, rho)), single)


@pytest.mark.parametrize("params", HARD_PARAMS[:2] + (ModelParams(),))
def test_nan_amplitude_is_a_domain_error_naming_the_inputs(monkeypatch, params):
    monkeypatch.setattr(AmplitudeCalculator, "reduced_amplitude",
                        lambda self, epsilon: complex("nan+nanj"))
    with pytest.raises(DomainError) as error:
        entropy_sweep(params, geometry(30.0, 20.0), [0.0, 45.0, 90.0], 6.5)
    assert str(error.value).startswith(f"{params!r}, epsilon=6.5: ")
    with pytest.raises(DomainError, match="negative eigenvalue"):
        _spin_spectrum(*np.full((4, 2), np.nan))


@pytest.mark.parametrize("gamma", [1e-16, 1e-18])
def test_narrow_core_hole_keeps_the_oracle_on_the_j2_line(gamma):
    # at the J = 2 line (6.4 eV) the J = 1 terms of R nearly cancel; roundoff of
    # the dark J = 2 level, over a width of 1e-18, once outweighed them and gave
    # (0.0006, 0.0003) bits
    params = ModelParams(Gamma_1s=gamma)
    assert calculator(params).eigensystems[Spin.DOWN].j_labels[1] == HalfInt.of(2)
    assert calculator(params).line_positions[Spin.DOWN][1] == 6.4
    curve = sweep(params, EmissionGeometry.from_degrees(90.0), [45.0, 90.0], 6.4)
    assert np.max(np.abs(np.array(curve.entropy) - [oracle(45.0), 1.0])) <= 1e-12
