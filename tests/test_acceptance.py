"""Acceptance suite: the headline guarantees of the package, one test per
criterion, each at its stated tolerance. Run with ``pytest -v -s`` to see one
pass/fail line per criterion."""

import math

import numpy as np
import pytest

from xepecs.angular import HalfInt, cg
from xepecs.fockspace import Spin
from xepecs.model import ModelParams, SubspaceLabel
from xepecs.polarization import EmissionGeometry
from xepecs.amplitudes import CHANNELS, AmplitudeCalculator
from xepecs.entanglement import (
    entangled_state,
    entropy_sweep,
    full_density_matrix,
    reduce_to_spin,
    von_neumann_entropy,
)
from xepecs.spectra import xepecs_spectrum, xps_lines

from reference import (
    ORBITALS, FockState, alpha_coeffs, annihilate, basis_vector, closed_form_state,
    coupling_hamiltonian, eigenvectors, label_basis, model_operators, subspace,
)

PARAMS = ModelParams()
U1, U2 = (Spin.UP, 1), (Spin.UP, 2)
D1, D2 = (Spin.DOWN, 1), (Spin.DOWN, 2)


@pytest.fixture(scope="module")
def calc():
    return AmplitudeCalculator(PARAMS)


def report(number: int, description: str, ok: bool) -> None:
    print(f"criterion {number:02d} [{description}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number}: {description}"


def entropy_at(calc, geom: EmissionGeometry, epsilon: float = 6.2) -> float:
    state = entangled_state(calc.amplitudes(geom, epsilon))
    return von_neumann_entropy(reduce_to_spin(state))


def oracle(theta_deg: float) -> float:
    x = np.array([(1 + abs(math.cos(math.radians(theta_deg)))) / 2,
                  (1 - abs(math.cos(math.radians(theta_deg)))) / 2])
    x = x[x > 0]
    return float(-(x * np.log2(x)).sum())


def test_criterion_01_entropy_extremes(calc):
    s90 = entropy_at(calc, EmissionGeometry.from_degrees(90.0))
    s0 = entropy_at(calc, EmissionGeometry.from_degrees(0.0))
    s180 = entropy_at(calc, EmissionGeometry.from_degrees(180.0))
    ok = abs(s90 - 1.0) < 1e-10 and abs(s0) < 1e-10 and abs(s180) < 1e-10
    report(1, "entropy extremes S(90)=1, S(0)=S(180)=0", ok)


def test_criterion_02_entropy_curve_oracle():
    thetas = [float(t) for t in range(0, 181)]
    curve = entropy_sweep(PARAMS, EmissionGeometry.from_degrees(90.0), thetas, 6.2)
    worst = max(abs(s - oracle(t)) for t, s in zip(curve.thetas, curve.entropy))
    s45 = curve.entropy[45]
    ok = worst < 1e-10 and abs(s45 - 0.60088) < 1e-4
    report(2, f"entropy curve oracle on 1 deg grid (max dev {worst:.1e}), "
              f"S(45)={s45:.5f}", ok)


def test_criterion_03_closed_form_cross_validation(calc):
    rng = np.random.default_rng(101)
    worst = 1.0
    for _ in range(100):
        geom = EmissionGeometry.from_degrees(rng.uniform(0.0, 180.0),
                                             rng.uniform(0.0, 360.0))
        eps = rng.uniform(4.0, 9.0)
        state = entangled_state(calc.amplitudes(geom, eps))
        fidelity = abs(np.vdot(state.vector(), closed_form_state(geom).vector()))
        worst = min(worst, fidelity)
    report(3, f"closed-form state fidelity > 1 - 1e-10 (worst {worst:.15f})",
           worst > 1.0 - 1e-10)


def test_criterion_04_density_matrix_pattern(calc):
    state = entangled_state(calc.amplitudes(EmissionGeometry.from_degrees(90.0, 0.0), 6.2))
    rho = full_density_matrix(state)
    m = rho.matrix
    expected = np.zeros((4, 4), dtype=complex)
    expected[1, 1] = expected[2, 2] = 0.5
    expected[1, 2], expected[2, 1] = -0.5j, 0.5j
    ok = (np.max(np.abs(m - expected)) < 1e-10
          and abs(np.trace(m).real - 1.0) < 1e-10
          and abs(np.trace(m @ m).real - 1.0) < 1e-10)
    report(4, "density matrix at 90 deg: U2/D1 block, diag 1/2, off-diag -i/2", ok)


def test_criterion_05_xps_structure():
    up = xps_lines(PARAMS, Spin.UP)
    down = xps_lines(PARAMS, Spin.DOWN)
    j2_dark = all(l.weight < 1e-12 for spec in (up, down) for l in spec.lines
                  if l.j == HalfInt.of(2))
    j0_up_only = (any(l.j == HalfInt.of(0) and l.weight > 1e-3 for l in up.lines)
                  and all(l.j != HalfInt.of(0) for l in down.lines))
    up_j1, down_j1 = ([l for l in spec.lines if l.j == HalfInt.of(1)] for spec in (up, down))
    degenerate = np.allclose(sorted(l.position for l in up_j1),
                             sorted(l.position for l in down_j1), atol=1e-10)
    ratio = abs(sum(l.weight for l in down_j1) - 2.0 * sum(l.weight for l in up_j1)) < 1e-10
    total = abs(sum(l.weight for spec in (up, down) for l in spec.lines) - 1.0) < 1e-10
    ok = j2_dark and j0_up_only and degenerate and ratio and total
    report(5, "XPS: J=2 dark, J=0 up-only, J=1 degenerate, 2x down weight, total 1", ok)


def test_criterion_06_xepecs_overlap_and_ratio():
    eps = 6.5
    geom90 = EmissionGeometry.from_degrees(90.0, 0.0)
    u2 = xepecs_spectrum(PARAMS, geom90, eps, U2)
    d1 = xepecs_spectrum(PARAMS, geom90, eps, D1)
    overlap = np.max(np.abs(u2.intensity - d1.intensity)) < 1e-10
    dark = (np.max(xepecs_spectrum(PARAMS, geom90, eps, U1).intensity) < 1e-12
            and np.max(xepecs_spectrum(PARAMS, geom90, eps, D2).intensity) < 1e-12)
    geom45 = EmissionGeometry.from_degrees(45.0, 0.0)
    ratio = (np.max(xepecs_spectrum(PARAMS, geom45, eps, D1).intensity)
             / np.max(xepecs_spectrum(PARAMS, geom45, eps, U2).intensity))
    ok = overlap and dark and abs(ratio - 2.0) < 1e-8
    report(6, f"emission spectra: U2=D1 at 90 deg, U1/D2 dark, D1:U2 = {ratio:.10f}", ok)


def test_criterion_07_amplitude_reduction(calc):
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(100):
        geom = EmissionGeometry.from_degrees(rng.uniform(0.0, 180.0),
                                             rng.uniform(0.0, 360.0))
        amps = calc.amplitudes(geom, rng.uniform(4.0, 9.0))
        coeffs = alpha_coeffs(geom)
        predicted = {
            U1: coeffs.alpha0[0] / 3.0,
            U2: coeffs.alpha0[1] / 3.0,
            D1: math.sqrt(2.0) / 3.0 * coeffs.alpha_m1[0],
            D2: math.sqrt(2.0) / 3.0 * coeffs.alpha_m1[1],
        }
        factor = amps[D1] / predicted[D1]  # alpha_-1 of polarization 1 never vanishes
        for c in CHANNELS:
            worst = max(worst, abs(amps[c] / factor - predicted[c]))
    report(7, f"A(up)/A(down) = alpha_0 / (sqrt(2) alpha_-1) (worst dev {worst:.1e})",
           worst < 1e-10)


def test_criterion_08_epsilon_and_phi_independence(calc):
    rng = np.random.default_rng(107)
    values = [entropy_at(calc, EmissionGeometry.from_degrees(57.0, 11.0), eps)
              for eps in rng.uniform(2.0, 12.0, size=20)]
    values += [entropy_at(calc, EmissionGeometry.from_degrees(57.0, phi), 6.2)
               for phi in rng.uniform(0.0, 360.0, size=20)]
    spread = float(np.ptp(values))
    report(8, f"entropy spread over random epsilon and phi = {spread:.1e}",
           spread < 1e-10)


def test_criterion_09_polarization_basis_invariance(calc):
    rng = np.random.default_rng(109)
    reference = entropy_at(calc, EmissionGeometry.from_degrees(57.0))
    worst = 0.0
    for delta in rng.uniform(0.0, 360.0, size=10):
        geom = EmissionGeometry.from_degrees(57.0, 0.0, 90.0 + delta, 180.0 + delta)
        worst = max(worst, abs(entropy_at(calc, geom) - reference))
    report(9, f"entropy invariant under rotated polarization pair (worst {worst:.1e})",
           worst < 1e-10)


def test_criterion_10_algebraic_substrate(calc):
    # Clebsch-Gordan orthonormality and sign-flip symmetry, j1, j2 <= 2; every
    # j and m as twice its value, m running over -j, -j + 1, ..., j
    cg_ok = True
    for tj1 in range(0, 5):
        for tj2 in range(0, 5):
            pairs = [(tm1, tm2) for tm1 in range(-tj1, tj1 + 1, 2)
                     for tm2 in range(-tj2, tj2 + 1, 2)]

            def coeff(tm1, tm2, tj, tm):
                return cg(*map(HalfInt, (tj1, tm1, tj2, tm2, tj, tm)))

            js = range(abs(tj1 - tj2), tj1 + tj2 + 1, 2)
            for tj in js:
                phase = (-1.0) ** ((tj1 + tj2 - tj) // 2)
                for tjp in js:
                    for tm in range(-tj, tj + 1, 2):
                        for tmp in range(-tjp, tjp + 1, 2):
                            total = sum(coeff(tm1, tm2, tj, tm) * coeff(tm1, tm2, tjp, tmp)
                                        for tm1, tm2 in pairs)
                            expected = 1.0 if (tj == tjp and tm == tmp) else 0.0
                            cg_ok &= abs(total - expected) < 1e-12
                for tm1, tm2 in pairs:
                    if abs(tm1 + tm2) > tj:
                        continue
                    left = coeff(tm1, tm2, tj, tm1 + tm2)
                    right = coeff(-tm1, -tm2, tj, -tm1 - tm2)
                    cg_ok &= abs(left - phase * right) < 1e-12

    # fermionic anticommutation over all 2^8 occupation states, on the 256 x 256
    # matrix of each c_a from the tests' sign rule (c^dag_a is its transpose)
    c = np.zeros((8, 256, 256))
    for a, orbital in enumerate(ORBITALS):
        for mask in range(256):
            for state, amplitude in annihilate(basis_vector(FockState(mask)), orbital).terms():
                c[a, state.orbitals, mask] = amplitude.real
    fermi_ok = all(np.array_equal(c[a] @ c[b].T + c[b].T @ c[a], np.eye(256) * (a == b))
                   for a in range(8) for b in range(8))

    # eigen-residuals of the levels (the intermediate eigensystems, and the ground
    # state with E'_g) and [J^2, H] = 0 on every subspace
    ground = label_basis(SubspaceLabel.INITIAL)[:, :1]
    levels = {SubspaceLabel.INITIAL: (ground, np.array([calc.ground_coupling]))}
    for sigma in Spin:
        eig = calc.eigensystems[sigma]
        levels[eig.label] = (eigenvectors(eig), eig.coupling_energies)
    eigen_ok = True
    for label, (vectors, coupling_energies) in levels.items():
        sub = subspace(label)
        H = coupling_hamiltonian(PARAMS, sub)
        residual = np.max(np.abs(H @ vectors - vectors * coupling_energies))
        jsq = model_operators(sub)[2]
        commutator = np.max(np.abs(H @ jsq - jsq @ H))
        eigen_ok &= residual < 1e-10 and commutator < 1e-10

    report(10, "CG orthonormality/symmetry, anticommutation on 2^8 states, "
               "eigen-residuals, [J^2, H] = 0", cg_ok and fermi_ok and eigen_ok)
