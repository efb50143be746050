"""The tests' occupation states and vector algebra, and their own checks:
anticommutation, adjointness, inner products, and the photoelectron and photon
ladders of the full register."""

import numpy as np
import pytest

from xepecs.fockspace import Spin

import reference
from reference import (
    INCIDENT, ORBITALS, PE_MODE, FockState, ManyBodyVector, Shell, SpinOrbital, annihilate,
    basis_vector, create, fermion, inner, lift, photon, vacuum,
)

S_UP = SpinOrbital(Shell.S1S, 0, Spin.UP)
S_DN = SpinOrbital(Shell.S1S, 0, Spin.DOWN)
P1_DN = SpinOrbital(Shell.P2P, 1, Spin.DOWN)


def test_canonical_order():
    assert [str(o) for o in ORBITALS] == [
        "1s+", "1s-", "2p[-1]+", "2p[-1]-", "2p[+0]+", "2p[+0]-", "2p[+1]+", "2p[+1]-",
    ]
    assert [o.index for o in ORBITALS] == list(range(8))


def test_create_on_vacuum():
    v = create(vacuum(), S_UP)
    assert v.amplitude(FockState(0b1)) == 1.0


def test_pauli_exclusion():
    v = create(create(vacuum(), S_UP), S_UP)
    assert len(v) == 0


def test_anticommutation_of_creations():
    ud = create(create(vacuum(), S_DN), S_UP)
    du = create(create(vacuum(), S_UP), S_DN)
    both = FockState(0b11)
    assert ud.amplitude(both) == -du.amplitude(both)


def test_annihilate_inverts_create():
    v = annihilate(create(vacuum(), S_UP), S_UP)
    assert v.amplitude(FockState()) == 1.0
    assert len(annihilate(vacuum(), S_UP)) == 0


def all_occupation_states():
    return [FockState(mask) for mask in range(256)]


def test_anticommutators_on_every_occupation_state():
    # {c_a, c+_b} = delta_ab and {c_a, c_b} = 0 as operator identities
    for a in ORBITALS:
        for b in ORBITALS:
            delta = 1.0 if a == b else 0.0
            for state in all_occupation_states():
                v = basis_vector(state)
                lhs = annihilate(create(v, b), a) + create(annihilate(v, a), b)
                assert abs(lhs.amplitude(state) - delta) < 1e-15
                for other in lhs.states():
                    if other != state:
                        assert lhs.amplitude(other) == 0.0
                anti = annihilate(annihilate(v, b), a) + annihilate(annihilate(v, a), b)
                assert len(anti) == 0


def random_vector(rng):
    amps = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    return ManyBodyVector({FockState(mask): amps[mask] for mask in range(256)})


def test_create_annihilate_are_adjoint():
    # <v| c+_o w> = <c_o v | w> over the full 256-dimensional space
    rng = np.random.default_rng(7)
    for _ in range(5):
        v, w = random_vector(rng), random_vector(rng)
        for o in ORBITALS:
            lhs = inner(v, create(w, o))
            rhs = inner(annihilate(v, o), w)
            assert lhs == pytest.approx(rhs, abs=1e-12)


def random_register_vector(rng):
    amps = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
    return ManyBodyVector({(k & 0xFF, k >> 8, (0, 0, 0)): amps[k] for k in range(1024)})


def test_photoelectron_modes_are_fermionic_and_adjoint():
    rng = np.random.default_rng(11)
    v, w = random_register_vector(rng), random_register_vector(rng)
    empty = lift(vacuum())
    for spin in (Spin.UP, Spin.DOWN):
        mode = PE_MODE[spin]
        assert len(fermion(fermion(empty, mode, True), mode, True)) == 0
        lhs = inner(v, fermion(w, mode, True))
        rhs = inner(fermion(v, mode, False), w)
        assert lhs == pytest.approx(rhs, abs=1e-12)
    # photoelectron creation anticommutes with orbital creation
    a = fermion(fermion(empty, PE_MODE[Spin.UP], True), S_UP.index, True)
    b = fermion(fermion(empty, S_UP.index, True), PE_MODE[Spin.UP], True)
    target = (0b1, 1, (0, 0, 0))
    assert a.amplitude(target) == -b.amplitude(target)


def test_photon_modes_are_bosonic():
    v = photon(photon(lift(vacuum()), INCIDENT, +1), INCIDENT, +1)
    two = (0, 0, (2, 0, 0))
    assert v.amplitude(two) == pytest.approx(np.sqrt(2.0))
    back = photon(v, INCIDENT, -1)
    assert back.amplitude((0, 0, (1, 0, 0))) == pytest.approx(2.0)
    assert len(photon(lift(vacuum()), 1, -1)) == 0


def test_inner_products():
    rng = np.random.default_rng(3)
    v = random_vector(rng)
    assert inner(v, v).real >= 0.0
    assert inner(v, v).imag == pytest.approx(0.0, abs=1e-14)
    assert inner(basis_vector(FockState(0b1)), basis_vector(FockState(0b10))) == 0.0
    # conjugate-linear in the first slot
    w = random_vector(rng)
    assert inner(2j * v, w) == pytest.approx(-2j * inner(v, w))


def test_initial_state_normalization():
    core = create(create(vacuum(), S_UP), S_DN)
    g = np.sqrt(2 / 3) * create(core, P1_DN) \
        + (-np.sqrt(1 / 3)) * create(core, SpinOrbital(Shell.P2P, 0, Spin.UP))
    assert inner(g, g) == pytest.approx(1.0, abs=1e-15)


def test_fockstate_validation():
    with pytest.raises(ValueError):
        FockState(256)
    with pytest.raises(ValueError):
        FockState(-1)
    # the photoelectron and photon registers are the tests' keys: bit 0 of the
    # photoelectron mask is up and bit 1 down, the counts never go below zero
    for sigma, lam, key in ((Spin.UP, 2, (0b11, 0b01, (0, 0, 1))),
                            (Spin.DOWN, 1, (0b11, 0b10, (0, 1, 0)))):
        assert dict(reference.final_state(sigma, lam).terms()) == {key: 1.0}
    assert len(photon(reference.final_state(Spin.UP, 1), 2, -1)) == 0
