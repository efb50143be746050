"""Hamiltonian blocks, the levels from per-J constants and the coupled-basis labels."""

import math
import pickle
from fractions import Fraction

import numpy as np
import pytest

from xepecs import amplitudes, model
from xepecs.amplitudes import CHANNEL_INDEX, AmplitudeCalculator
from xepecs.angular import HalfInt, cg_exact
from xepecs.fockspace import Spin
from xepecs.model import ModelParams, SubspaceLabel

import reference
from reference import (
    ORBITALS, FockState, Shell, basis_vector, build_hamiltonian, coupling_hamiltonian,
    eigenvectors, initial_state, inner, label_basis, subspace,
)

RELATIVE = ModelParams(G=0.3, zeta=0.1, eps_s=0.0, eps_p=0.0)
TABLE = ModelParams()


def j_values(eig):
    return sorted(float(j) for j in eig.j_labels)


def angular_operators(sub):
    """J^2, S^2 and J_z on ``sub``, one basis vector at a time."""
    return reference.model_operators(sub)[2:]


class TestHamiltonianBlocks:
    def test_m1_block_matches_hand_derived_matrix(self):
        # Order (s+ p1-, s+ p0+, s- p1+), energies relative to eps_s + eps_p.
        # Derived by applying l.s and the spin-exchange operator by hand:
        # diag = (G/2 - zeta/2, -G/2, G/2 + zeta/2), l.s couples the first two
        # with zeta/sqrt(2), exchange couples the outer pair with -G.
        G, zeta = RELATIVE.G, RELATIVE.zeta
        expected = np.array([
            [G / 2 - zeta / 2, zeta / math.sqrt(2), -G],
            [zeta / math.sqrt(2), -G / 2, 0.0],
            [-G, 0.0, G / 2 + zeta / 2],
        ])
        H = build_hamiltonian(RELATIVE, subspace(SubspaceLabel.M1))
        assert np.allclose(H, expected, atol=1e-14)
        assert np.max(np.abs(H.imag)) == 0.0

    def test_m0_block_matches_hand_derived_matrix(self):
        # Order (s+ p0-, s+ p-1+, s- p1-, s- p0+), same operator algebra.
        G, zeta = RELATIVE.G, RELATIVE.zeta
        r2 = math.sqrt(2)
        expected = np.array([
            [G / 2, zeta / r2, 0.0, -G],
            [zeta / r2, -G / 2 - zeta / 2, 0.0, 0.0],
            [0.0, 0.0, -G / 2 - zeta / 2, zeta / r2],
            [-G, 0.0, zeta / r2, G / 2],
        ])
        H = build_hamiltonian(RELATIVE, subspace(SubspaceLabel.M0))
        assert np.allclose(H, expected, atol=1e-14)

    def test_free_limit_is_identity_on_intermediates(self):
        params = ModelParams(G=0.0, zeta=0.0, eps_s=-13.6, eps_p=-5.0)
        for label in (SubspaceLabel.M0, SubspaceLabel.M1):
            H = build_hamiltonian(params, subspace(label))
            assert np.allclose(H, (params.eps_s + params.eps_p) * np.eye(H.shape[0]),
                               atol=1e-14)

    @pytest.mark.parametrize("label", list(SubspaceLabel))
    def test_hermitian_exactly(self, label):
        H = build_hamiltonian(TABLE, subspace(label))
        assert np.array_equal(H, H.conj().T)

    @pytest.mark.parametrize("label", list(SubspaceLabel))
    def test_energy_offsets(self, label):
        # absolute blocks = relative blocks + (eps_s n_s + eps_p n_p) * identity
        H_abs = build_hamiltonian(TABLE, subspace(label))
        H_rel = build_hamiltonian(RELATIVE, subspace(label))
        n_s, n_p = (2, 1) if label is SubspaceLabel.INITIAL else (1, 1)
        offset = TABLE.eps_s * n_s + TABLE.eps_p * n_p
        assert np.allclose(H_abs, H_rel + offset * np.eye(H_abs.shape[0]), atol=1e-12)


class TestCommutingObservables:
    @pytest.mark.parametrize("label", list(SubspaceLabel))
    def test_j_squared_and_jz_commute_with_h(self, label):
        sub = subspace(label)
        H = build_hamiltonian(TABLE, sub)
        jsq, _, jz = angular_operators(sub)
        for op in (jsq, jz):
            assert np.max(np.abs(H @ op - op @ H)) < 1e-10

    def test_jz_is_the_subspace_magnetic_number(self):
        for label, m in ((SubspaceLabel.INITIAL, 0.5), (SubspaceLabel.M0, 0.0),
                         (SubspaceLabel.M1, 1.0)):
            sub = subspace(label)
            assert np.allclose(angular_operators(sub)[2], m * np.eye(sub.dim), atol=1e-14)


CLOSED = FockState(sum(1 << o.index for o in ORBITALS if o.shell is Shell.S1S))   # 1s^2
QUARTER, HALF = Fraction(1, 4), Fraction(1, 2)

# l.s and S_1s . S_2p in closed form, each entry as (sign, exact square), in the
# (J, S) column order of each subspace: (j = 1/2, j = 3/2) on the initial one,
# (3P0, 1P1, 3P1, 3P2) on M0 and (1P1, 3P1, 3P2) on M1; an entry not listed is 0
EXACT_SPIN_ORBIT = {
    SubspaceLabel.INITIAL: {(0, 0): (-1, 1), (1, 1): (1, QUARTER)},
    SubspaceLabel.M0: {(0, 0): (-1, 1), (1, 2): (-1, HALF), (2, 2): (-1, QUARTER),
                       (3, 3): (1, QUARTER)},
    SubspaceLabel.M1: {(0, 1): (-1, HALF), (1, 1): (-1, QUARTER), (2, 2): (1, QUARTER)},
}
EXACT_EXCHANGE = {SubspaceLabel.INITIAL: [0, 0], SubspaceLabel.M0: [0.25, -0.75, 0.25, 0.25],
                  SubspaceLabel.M1: [-0.75, 0.25, 0.25]}


class TestRacahTables:
    """l.s and S_1s . S_2p in the coupled basis, written once per process from 6j
    symbols, against their closed forms and the per-vector route."""

    @pytest.mark.parametrize("label", list(SubspaceLabel))
    def test_each_entry_is_its_exact_value_rounded_once(self, label):
        spin_orbit, exchange = reference.table_matrices(label)
        expected = np.zeros_like(spin_orbit)
        for (i, j), (sign, square) in EXACT_SPIN_ORBIT[label].items():
            expected[i, j] = expected[j, i] = reference.rounded_root(sign, Fraction(square))
        assert spin_orbit.tobytes() == expected.tobytes()
        assert exchange.tobytes() == np.diag(EXACT_EXCHANGE[label]).astype(float).tobytes()

    @pytest.mark.parametrize("label", list(SubspaceLabel))
    def test_equal_the_per_vector_route(self, label):
        # the per-vector operators, projected on the coupled basis: real, zero
        # outside the J blocks, and the tables to 1e-15
        for ours, theirs in zip(reference.table_matrices(label),
                                reference.model_operators(subspace(label))):
            projected = reference.coupled(theirs, label)
            assert not np.any(projected.imag)
            assert np.max(np.abs(ours - projected.real)) <= 1e-15

    def test_both_intermediate_subspaces_share_one_j1_block(self):
        # the M0 and M1 J = 1 blocks (1P1, 3P1) are the same floats
        m0, m1 = (reference.table_matrices(label) for label in (SubspaceLabel.M0,
                                                                SubspaceLabel.M1))
        for a, b in zip(m0, m1):
            assert a[1:3, 1:3].tobytes() == b[0:2, 0:2].tobytes()
        levels = AmplitudeCalculator(ModelParams(G=0.37, zeta=0.29)).eigensystems
        up, down = (levels[s] for s in Spin)
        assert set(up.coupling_energies.tolist()) >= set(down.coupling_energies.tolist())


class TestLevels:
    def test_j_labels(self):
        levels = AmplitudeCalculator(TABLE).eigensystems
        up, down = levels[Spin.UP], levels[Spin.DOWN]
        assert j_values(up) == [0.0, 1.0, 1.0, 2.0]
        assert j_values(down) == [1.0, 1.0, 2.0]

    def test_j1_energies_degenerate_across_subspaces(self):
        levels = AmplitudeCalculator(TABLE).eigensystems
        up, down = levels[Spin.UP], levels[Spin.DOWN]
        j1_up = sorted(e for e, j in zip(up.coupling_energies, up.j_labels) if j == HalfInt.of(1))
        j1_down = sorted(e for e, j in zip(down.coupling_energies, down.j_labels)
                         if j == HalfInt.of(1))
        assert np.allclose(j1_up, j1_down, atol=1e-10)

    def test_multiplet_energies_from_recoupling(self):
        # With S = S_1s + S_2p: exchange gives -G/2 (triplet) and +3G/2
        # (singlet); within a (L=1, S=1) level <l.s> = (J(J+1) - 4)/4.
        up = AmplitudeCalculator(RELATIVE).eigensystems[Spin.UP]
        by_j = {float(j): e for e, j in zip(up.coupling_energies, up.j_labels)
                if float(j) in (0.0, 2.0)}
        G, zeta = RELATIVE.G, RELATIVE.zeta
        assert by_j[0.0] == pytest.approx(-G / 2 - zeta, abs=1e-12)
        assert by_j[2.0] == pytest.approx(-G / 2 + zeta / 2, abs=1e-12)

    @pytest.mark.parametrize("spin", list(Spin))
    def test_residuals_unitarity_trace(self, spin):
        eig = AmplitudeCalculator(TABLE).eigensystems[spin]
        H = coupling_hamiltonian(TABLE, subspace(eig.label))
        v = eigenvectors(eig)
        assert np.max(np.abs(v.conj().T @ v - np.eye(eig.dim))) < 1e-10
        w = eig.coupling_energies
        assert np.max(np.abs(H @ v - v * w[np.newaxis, :])) < 1e-10
        assert np.trace(H).real == pytest.approx(float(np.sum(w)), abs=1e-10)
        assert list(w) == sorted(w)

    def test_equality_is_identity(self):
        # an ndarray field would make a generated == raise ValueError and hash TypeError
        eig, other = (AmplitudeCalculator(TABLE).eigensystems[Spin.UP] for _ in range(2))
        assert eig == eig and not eig == other and eig != other
        assert len({eig, other, eig}) == 2

    def test_ground_residual(self):
        # E'_g is the J = 1/2 level, and the ground state its vector
        g = label_basis(SubspaceLabel.INITIAL)[:, 0]
        H = coupling_hamiltonian(TABLE, subspace(SubspaceLabel.INITIAL))
        energy = AmplitudeCalculator(TABLE).ground_coupling
        assert np.max(np.abs(H @ g - energy * g)) < 1e-15
        assert energy == pytest.approx(-TABLE.zeta, abs=1e-16)

    def test_no_spin_mixing_without_spin_orbit(self):
        # zeta = 0: eigenvectors carry sharp total-spin labels
        params = ModelParams(G=0.3, zeta=0.0)
        for spin in (Spin.UP, Spin.DOWN):
            eig = AmplitudeCalculator(params).eigensystems[spin]
            ssq, v = angular_operators(subspace(eig.label))[1], eigenvectors(eig)
            for i in range(eig.dim):
                x = float(np.real(v[:, i].conj() @ ssq @ v[:, i]))
                assert min(abs(x - 0.0), abs(x - 2.0)) < 1e-10

    def test_fully_degenerate_limit_still_labels(self):
        # G = zeta = 0 leaves H proportional to the identity; labels must
        # still come out sharp, since each J block is diagonalized on its own.
        params = ModelParams(G=0.0, zeta=0.0)
        up = AmplitudeCalculator(params).eigensystems[Spin.UP]
        assert j_values(up) == [0.0, 1.0, 1.0, 2.0]


class TestInitialState:
    def test_normalized_with_one_incident_photon(self):
        # the electron state over the initial basis; with one incident photon in
        # the tests' full register, the photon ladder leaves it unchanged
        g, _ = initial_state(TABLE)
        assert inner(g, g).real == pytest.approx(1.0, abs=1e-14)
        assert set(g.states()) <= set(subspace(SubspaceLabel.INITIAL).basis)
        with_photon = reference.lift(g, (1, 0, 0))
        for state in with_photon.states():
            assert state[1:] == (0, (1, 0, 0))
        electrons = reference.photon(with_photon, reference.INCIDENT, -1)
        assert dict(electrons.terms()) == dict(reference.lift(g).terms())

    def test_energy(self):
        # filled 1s shell + one 2p electron in its j = 1/2 level (<l.s> = -1)
        _, energy = initial_state(TABLE)
        expected = 2 * TABLE.eps_s + TABLE.eps_p - TABLE.zeta
        assert energy == pytest.approx(expected, abs=1e-12)

    def test_is_lowest_initial_subspace_eigenvector(self):
        sub = subspace(SubspaceLabel.INITIAL)
        energies, vectors, labels = reference.block_eigh(build_hamiltonian(TABLE, sub), sub)
        assert [float(j) for j in labels] == [0.5, 1.5]
        g, energy = initial_state(TABLE)
        assert energy == pytest.approx(float(energies[0]), abs=1e-12)
        # overlap of the stated vector with the j = 1/2 eigenvector is unital
        comps = np.array([inner(basis_vector(b), g) for b in sub.basis])
        assert abs(vectors[:, 0].conj() @ comps) == pytest.approx(1.0, abs=1e-12)

    def test_angular_momentum_quantum_numbers(self):
        sub = subspace(SubspaceLabel.INITIAL)
        g, _ = initial_state(TABLE)
        comps = np.array([inner(basis_vector(b), g) for b in sub.basis])
        jsq_op, _, jz_op = angular_operators(sub)
        jsq = float(np.real(comps.conj() @ jsq_op @ comps))
        jz = float(np.real(comps.conj() @ jz_op @ comps))
        assert jsq == pytest.approx(0.75, abs=1e-12)
        assert jz == pytest.approx(0.5, abs=1e-12)


class TestModelParams:
    def test_defaults(self):
        assert (TABLE.G, TABLE.zeta, TABLE.eps_s, TABLE.eps_p) == (0.3, 0.1, -13.6, -5.0)
        assert (TABLE.Omega, TABLE.Gamma_1s, TABLE.gamma) == (20.0, 0.5, 0.4)

    def test_width_validation(self):
        with pytest.raises(ValueError, match="Gamma_1s"):
            ModelParams(Gamma_1s=0.0)
        with pytest.raises(ValueError, match="gamma"):
            ModelParams(gamma=-0.1)


class TestSubspaces:
    def test_dimensions_and_occupations(self):
        assert subspace(SubspaceLabel.INITIAL).dim == 2
        assert subspace(SubspaceLabel.M0).dim == 4
        assert subspace(SubspaceLabel.M1).dim == 3
        for b in subspace(SubspaceLabel.M0).basis + subspace(SubspaceLabel.M1).basis:
            assert bin(b.orbitals).count("1") == 2
        for b in subspace(SubspaceLabel.INITIAL).basis:
            assert bin(b.orbitals).count("1") == 3


class TestEnumHashing:
    """``Spin`` and ``SubspaceLabel`` hash by identity, not through Enum's Python-level
    hash of the name: their members are singletons, so lookups are unchanged."""

    CACHED = ((Spin, (amplitudes._photoemission_vector,)),
              (SubspaceLabel, (model._columns, model._label_basis, model._entry_keys)))

    @pytest.mark.parametrize("enum, functions", CACHED, ids=["Spin", "SubspaceLabel"])
    def test_every_lookup_finds_the_same_member(self, enum, functions):
        for member in enum:
            assert type(member).__hash__ is object.__hash__
            assert hash(member) == object.__hash__(member)
            for same in (enum(member.value), enum[member.name],
                         pickle.loads(pickle.dumps(member))):
                assert same is member and hash(same) == hash(member)
                assert {member: 1}[same] == 1
                for function in functions:
                    hits = function.cache_info().hits
                    assert function(same) is function(member)
                    assert function.cache_info().hits >= hits + 1

    def test_the_channel_index_finds_a_rebuilt_spin(self):
        for (sigma, lam), index in CHANNEL_INDEX.items():
            assert CHANNEL_INDEX[(pickle.loads(pickle.dumps(sigma)), lam)] == index
            assert CHANNEL_INDEX[(Spin(sigma.value), lam)] == index


class TestOffsetFreeHamiltonian:
    """n_1s and n_2p are constants on every subspace, so only H' is diagonalized."""

    @pytest.mark.parametrize("label,occupation", [(SubspaceLabel.INITIAL, (2, 1)),
                                                  (SubspaceLabel.M0, (1, 1)),
                                                  (SubspaceLabel.M1, (1, 1))])
    def test_occupations_are_integer_multiples_of_the_identity(self, label, occupation):
        sub = subspace(label)
        for shell, n in zip((Shell.S1S, Shell.P2P), occupation):
            number = reference.operator_matrix(
                sub, lambda v: reference.apply_diagonal(v, reference.N_SHELL[shell]))
            assert np.array_equal(number, n * np.eye(sub.dim))
        assert all(reference.occupation(b) == occupation for b in sub.basis)

    def test_closed_shell_has_occupations_2_0_and_no_coupling(self):
        closed = reference.closed_shell()
        assert list(closed.states()) == [CLOSED]
        assert reference.occupation(CLOSED) == (2, 0)
        for apply in (reference.apply_spin_orbit, reference.apply_exchange):
            assert len(apply(closed)) == 0

    def test_energies_are_the_level_energy_plus_the_coupling_eigenvalues(self):
        eig = AmplitudeCalculator(TABLE).eigensystems[Spin.UP]
        energies = TABLE.eps_s + TABLE.eps_p + eig.coupling_energies
        H, v = build_hamiltonian(TABLE, subspace(eig.label)), eigenvectors(eig)
        assert np.max(np.abs(H @ v - v * energies)) < 1e-10

    def test_near_degenerate_levels_keep_sharp_j_labels(self):
        # levels split just above the degeneracy tolerance of a scale set by
        # the level energies were once mixed by eigh, and <J^2> missed j(j+1);
        # each level keeps its own energy, in ascending order, so the labels
        # are compared as sorted lists
        params = ModelParams(G=2.5851919801451547e-11, zeta=1.8541897049222843e-09,
                             eps_s=-26.71222382762132, eps_p=-1.3241151072793786)
        calc = AmplitudeCalculator(params)
        labels = {s: j_values(calc.eigensystems[s]) for s in Spin}
        assert labels == {Spin.UP: [0.0, 1.0, 1.0, 2.0], Spin.DOWN: [1.0, 1.0, 2.0]}


class TestJBlocks:
    """The levels come one J block at a time from a parameter-free (J, S) basis."""

    # the (J, S) of each column of the basis, ascending
    COUPLED = [(SubspaceLabel.INITIAL, [(0.5, 0.5), (1.5, 0.5)]),
               (SubspaceLabel.M0, [(0, 1), (1, 0), (1, 1), (2, 1)]),
               (SubspaceLabel.M1, [(1, 0), (1, 1), (2, 1)])]

    @pytest.mark.parametrize("label,coupled", COUPLED)
    def test_label_basis_is_orthonormal_with_its_labels(self, label, coupled):
        sub = subspace(label)
        u, (labels, pairs) = label_basis(label), model._label_basis(label)
        assert [float(j) for j in labels] == [j for j, _ in coupled]
        # the columns of each 2 x 2 J block; a J with one column is a 1 x 1 block
        assert [(labels[i], labels[j]) for i, j in pairs] == [
            (x, x) for x in sorted(set(labels)) if labels.count(x) == 2]
        assert all(j == i + 1 for i, j in pairs)
        assert np.max(np.abs(u.conj().T @ u - np.eye(sub.dim))) <= 1e-15
        with pytest.raises(ValueError):
            u[0, 0] = 0.0

    @pytest.mark.parametrize("label,coupled", COUPLED)
    def test_label_basis_diagonalizes_j_squared_and_s_squared(self, label, coupled):
        sub = subspace(label)
        u = label_basis(label)
        jsq, ssq, _ = angular_operators(sub)
        for op, values in ((jsq, [j for j, _ in coupled]), (ssq, [s for _, s in coupled])):
            expected = np.diag([x * (x + 1) for x in values])
            assert np.max(np.abs(u.conj().T @ op @ u - expected)) <= 1e-15

    @pytest.mark.parametrize("label,coupled", COUPLED)
    def test_label_basis_squares_are_exact_clebsch_gordan_products(self, label, coupled):
        # |U_bk|^2 = <s_1s m_1s; 1/2 m_s | S M_S>^2 <1 m_l; S M_S | J M>^2, an exact
        # fraction, to within one ulp; a closed 1s shell has s_1s = m_1s = 0
        sub = subspace(label)
        u = label_basis(label)
        assert not np.any(u.imag)
        for row, b in enumerate(sub.basis):
            occupied = [o for o in ORBITALS if b.orbitals >> o.index & 1]
            core = [Fraction(o.spin.twice_sz, 2) for o in occupied if o.shell is Shell.S1S]
            (p,) = [o for o in occupied if o.shell is Shell.P2P]
            s1s, m_s = Fraction(len(core) % 2, 2), Fraction(p.spin.twice_sz, 2)
            m_spin = sum(core) + m_s
            for col, (j, s) in enumerate(coupled):
                square = (cg_exact(s1s, sum(core), 0.5, m_s, s, m_spin)[1]
                          * cg_exact(1, p.m, s, m_spin, j, m_spin + p.m)[1])
                assert abs(u[row, col].real ** 2 - float(square)) <= math.ulp(float(square))

    def test_ground_state_is_the_initial_j_half_column(self):
        u = label_basis(SubspaceLabel.INITIAL)
        assert list(u[:, 0]) == [math.sqrt(2 / 3), -math.sqrt(1 / 3)]

    def test_basis_is_built_once_per_subspace(self):
        AmplitudeCalculator(TABLE).eigensystems[Spin.UP]
        misses = model._label_basis.cache_info().misses
        for params in (ModelParams(G=0.2), ModelParams(zeta=0.0), ModelParams(G=0.0)):
            AmplitudeCalculator(params).eigensystems[Spin.UP]
        assert model._label_basis.cache_info().misses == misses

    def test_equal_energies_stay_in_ascending_j(self):
        for spin, js in ((Spin.UP, [0.0, 1.0, 1.0, 2.0]), (Spin.DOWN, [1.0, 1.0, 2.0])):
            eig = AmplitudeCalculator(ModelParams(G=0.0, zeta=0.0)).eigensystems[spin]
            assert [float(j) for j in eig.j_labels] == js

    def test_zeta_zero_levels_are_equal_floats_in_ascending_j(self):
        # zeta = 0: 3P0, 3P1 and 3P2 are -G/2 from exact entries, so the three are
        # equal as floats and keep the (J, S) order; 1P1 is 3G/2
        params = ModelParams(G=0.3, zeta=0.0)
        for spin, js in ((Spin.UP, [0, 1, 2, 1]), (Spin.DOWN, [1, 2, 1])):
            eig = AmplitudeCalculator(params).eigensystems[spin]
            assert [float(j) for j in eig.j_labels] == js
            assert eig.coupling_energies.tolist() == [-0.15] * (len(js) - 1) + [2.0 * 0.3 * 0.75]

    def test_g_zero_levels_keep_their_order(self):
        # G = 0: 3P0 = -zeta and 3P2 = zeta/2 are exact entries, and the J = 1
        # rotation gives -zeta and zeta/2 up to its own roundoff: here the lower
        # level equals 3P0 as a float and follows it, and the upper one is an ulp
        # above 3P2
        params = ModelParams(G=0.0, zeta=0.1)
        up, down = (AmplitudeCalculator(params).eigensystems[spin] for spin in Spin)
        assert [float(j) for j in up.j_labels] == [0, 1, 2, 1]
        assert [float(j) for j in down.j_labels] == [1, 2, 1]
        assert up.coupling_energies.tolist() == [-0.1, -0.1, 0.05, 0.05 + math.ulp(0.05)]
        assert down.coupling_energies.tolist() == up.coupling_energies.tolist()[1:]

    def test_split_levels_of_different_j_stay_unmixed(self):
        # levels of J = 0 and J = 1 about 1e-10 eV apart were once mixed by
        # roundoff: the up-spin J = 0 and J = 1 weights read 0.250000353 and
        # 0.249999647, both exactly 1/4
        params = ModelParams(G=1.7680844477165957e-10, zeta=0.3481734336815314)
        calc = AmplitudeCalculator(params)
        eig = calc.eigensystems[Spin.UP]
        by_j = {0.0: 0.0, 1.0: 0.0, 2.0: 0.0}
        for j, el in zip(eig.j_labels, calc.pe_elements[Spin.UP]):
            by_j[float(j)] += abs(el) ** 2
        assert by_j == pytest.approx({0.0: 0.25, 1.0: 0.25, 2.0: 0.0}, abs=1e-14)


class TestClosedFormBlocks:
    """The J blocks are solved in closed form, held to the per-block eigh route
    of ``reference``; no LAPACK eigensolver runs per parameter set."""

    # levels split well above roundoff, and the near-degenerate hard cases of
    # the property suite, whose J = 0 and J = 1 levels are ~1e-10 eV apart
    SPLIT = ([ModelParams(G=g, zeta=z) for g, z in
              np.random.default_rng(3).uniform((0.01, 0.01), (1.0, 0.5), (20, 2))]
             + [TABLE, RELATIVE, ModelParams(G=70.0, zeta=3.0),
                ModelParams(G=2.5851919801451547e-11, zeta=1.8541897049222843e-09),
                ModelParams(G=1.7680844477165957e-10, zeta=0.3481734336815314)])
    # an exactly zero off-diagonal (zeta = 0), a subnormal one, both couplings
    # 0, and levels of different J degenerate in exact arithmetic (G = 0)
    HAZARDS = [ModelParams(G=1.0, zeta=0.0), ModelParams(G=0.0, zeta=2.2e-311),
               ModelParams(G=0.0, zeta=0.0), ModelParams(G=0.0, zeta=0.3)]

    @staticmethod
    def eigensystems(params):
        """(H', closed form) on each intermediate subspace."""
        for spin in Spin:
            eig = AmplitudeCalculator(params).eigensystems[spin]
            yield coupling_hamiltonian(params, subspace(eig.label)), eig

    @staticmethod
    def assert_the_ground_matches_the_per_block_eigh(params):
        sub = subspace(SubspaceLabel.INITIAL)
        H = coupling_hamiltonian(params, sub)
        energies, _, labels = reference.block_eigh(H, sub)
        scale = max(1.0, np.max(np.abs(H)))
        (theirs,) = [e for e, j in zip(energies, labels) if j == HalfInt.of(0.5)]
        assert abs(AmplitudeCalculator(params).ground_coupling - theirs) <= 1e-15 * scale

    @staticmethod
    def assert_matches_the_per_block_eigh(H, eig):
        energies, vectors, labels = reference.block_eigh(H, subspace(eig.label))
        scale = max(1.0, np.max(np.abs(H)))
        assert np.max(np.abs(eig.coupling_energies - energies)) <= 1e-15 * scale
        overlaps = np.abs(np.sum(vectors.conj() * eigenvectors(eig), axis=0))
        assert np.max(np.abs(overlaps - 1.0)) <= 1e-14
        assert eig.j_labels == labels

    @pytest.mark.parametrize("params", SPLIT)
    def test_equals_the_per_block_eigh(self, params):
        for H, eig in self.eigensystems(params):
            self.assert_matches_the_per_block_eigh(H, eig)
        self.assert_the_ground_matches_the_per_block_eigh(params)

    @pytest.mark.parametrize("params", HAZARDS)
    def test_degenerate_zero_and_subnormal_blocks(self, params):
        # exactly degenerate levels may come in another order than eigh's, so
        # the energies of each J are compared as sorted lists
        for H, eig in self.eigensystems(params):
            energies, _, labels = reference.block_eigh(H, subspace(eig.label))
            for j in set(labels):
                ours = sorted(e for e, x in zip(eig.coupling_energies, eig.j_labels) if x == j)
                theirs = sorted(e for e, x in zip(energies, labels) if x == j)
                assert np.max(np.abs(np.subtract(ours, theirs))) <= 1e-15
            v = eigenvectors(eig)
            assert np.all(np.isfinite(v))
            assert np.max(np.abs(v.conj().T @ v - np.eye(eig.dim))) <= 1e-15
            assert np.max(np.abs(H @ v - v * eig.coupling_energies)) <= 1e-15
        self.assert_the_ground_matches_the_per_block_eigh(params)

    def test_a_zero_off_diagonal_leaves_the_block_as_it_is(self, monkeypatch):
        # G = 1, zeta = 0: the J = 1 block of H' is diagonal, its larger entry
        # first; the solve keeps it bit for bit
        blocks, block_eigenpairs = [], model._block_eigenpairs
        monkeypatch.setattr(model, "_block_eigenpairs",
                            lambda *block: blocks.append(block) or block_eigenpairs(*block))
        model._levels(ModelParams(G=1.0, zeta=0.0))
        ((p, r, b),) = blocks
        assert b == 0.0 and p > r
        assert block_eigenpairs(p, r, b) == (p, r, 1.0, 0.0)

    @pytest.mark.parametrize("p,r,b", [(1.0, -0.5, 0.0), (-0.5, 1.0, 0.0), (0.3, 0.3, 0.2),
                                       (0.0, 0.0, 2.2e-311), (1e-311, -1e-311, 3e-311),
                                       (1e308, -1e308, 5e307), (2.0, 1.0, -1e-9)])
    def test_one_block_against_eigh(self, p, r, b):
        block = np.array([[p, b], [b, r]])
        *values, c, s = model._block_eigenpairs(p, r, b)
        rotation = np.array([[c, -s], [s, c]])
        scale = np.max(np.abs(block))
        tol = 4e-16 * scale + 1e-322   # a few ulps, and a subnormal ulp or two
        assert np.max(np.abs(block @ rotation - rotation * values)) <= tol
        assert np.max(np.abs(rotation.T @ rotation - np.eye(2))) <= 4e-16
        assert np.max(np.abs(np.sort(values) - np.linalg.eigvalsh(block / scale) * scale)) <= tol
        if b == 0.0:
            assert list(values) == [p, r] and np.array_equal(rotation, np.eye(2))

    def test_a_calculator_runs_no_lapack_eigensolver(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.eigh called")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        calc = AmplitudeCalculator(ModelParams(G=0.43, zeta=0.19))
        assert j_values(calc.eigensystems[Spin.UP]) == [0.0, 1.0, 1.0, 2.0]
        assert calc.ground_coupling == pytest.approx(-0.19, abs=1e-16)


class TestChecksOnTheirReproducers:
    """Every check of the per-parameter-set step still raises: H' finite, then
    the widths with Gamma_1s first, then the line positions. The block check
    runs once per process, and no parameter set can fail it (see
    ``TestJBlocks.test_an_operator_not_commuting_with_j_squared_is_rejected``)."""

    def test_overflowing_couplings_are_not_finite(self):
        params = ModelParams(G=1e308)
        for call in (lambda: model._levels(params), lambda: AmplitudeCalculator(params)):
            with pytest.raises(model.DomainError, match="Hamiltonian matrix is not finite"):
                call()

    def test_a_level_beyond_the_float_range_is_a_line_position_that_is_not_finite(self):
        # H' is finite on every subspace, but a J = 1 level overflows to -inf; with
        # Omega + eps_s = -inf its line position would be inf - inf, a NaN, which
        # is reported with no numpy warning (warnings are errors in this suite)
        params = ModelParams(G=-0.89e308, zeta=1.79e308, Omega=-1e308, eps_s=-1e308)
        assert -np.inf in model._levels(params)[1][Spin.DOWN].coupling_energies
        with pytest.raises(model.DomainError, match="line positions are not finite"):
            AmplitudeCalculator(params)

    def test_widths_are_checked_after_the_model_gamma_1s_first(self):
        with pytest.raises(model.DomainError, match="not finite"):
            AmplitudeCalculator(ModelParams(G=1e308, Gamma_1s=1e200))
        with pytest.raises(model.DomainError, match="1e\\+200 eV overflows"):
            AmplitudeCalculator(ModelParams(Gamma_1s=1e200, gamma=1e-170))
