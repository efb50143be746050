"""The two-shell (1s, 2p) atomic model: Hamiltonian blocks and eigensystems.

    H = eps_s * n_1s + eps_p * n_2p + H',
    H' = zeta * (l.s on the 2p electron) - 2 G * S_1s . S_2p

Every operator comes from the (z, +) pairs of l on 2p, s on 1s and s on 2p:
8 x 8 one-body tables with ladder elements sqrt(j(j + 1) - m(m + 1)), each
turned by the fockspace operators into its matrix over all states with a
subspace's shell occupations. There A . B = A_z B_z + (A_+ B_- + A_- B_+)/2
gives l.s and S_1s . S_2p (zero on a filled 1s shell), X^2 = X_- X_+ + X_z^2
+ X_z gives J^2 and S^2, and J_z is the sum of the z parts. The same builder
maps one configuration to another: ``amplitudes`` takes the 2p -> 1s decay
from the s^1 p^1 states to the closed shell with it.

Every state of a subspace has the same (n_1s, n_2p): (2, 1) initially, (1, 1)
in the intermediate states and (2, 0) on the closed shell of the final state.
So only H' is diagonalized, and an energy is the level energy
eps_s n_1s + eps_p n_2p plus an eigenvalue of H'; H' is zero on the closed
shell. The operator matrices and a (J, S) eigenbasis are built once per process
and subspace, so a parameter set costs a weighted sum of two matrices of at
most 4 x 4 and the eigendecomposition of each of its J blocks (at most 2 x 2),
which gives every level an exact J.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from functools import cache
from math import isfinite, sqrt

import numpy as np

from .angular import HalfInt, coupled_state
from .fockspace import (
    FockState,
    ManyBodyVector,
    ORBITALS,
    Shell,
    Spin,
    SpinOrbital,
    annihilate,
    basis_vector,
    combine,
    create,
    vacuum,
)

__all__ = [
    "DomainError",
    "ModelParams",
    "SubspaceLabel",
    "Subspace",
    "EigenSystem",
    "subspace",
    "intermediate_subspace",
    "build_hamiltonian",
    "diagonalize",
    "intermediate_eigensystem",
    "ground_state",
    "ground_coupling_energy",
    "initial_energy",
    "initial_state",
    "closed_shell",
    "final_state_energy",
    "j_squared_matrix",
    "jz_matrix",
    "s_squared_matrix",
]

_HERMITICITY_TOL = 1e-12
_RESIDUAL_TOL = 1e-10
_J_LABEL_TOL = 1e-8

# the 2p electron of the initial state, |(l = 1, s = 1/2) j = m = 1/2>, as
# (m_l, m_s) -> Clebsch-Gordan coefficient
_J_HALF = coupled_state(1, 0.5, 0.5, 0.5)
_SPIN_OF = {1: Spin.UP, -1: Spin.DOWN}   # spin from twice its projection m_s


class DomainError(ValueError):
    """A computation left the physically meaningful domain."""


@dataclass(frozen=True)
class ModelParams:
    """Model energies in eV.

    G        exchange strength between the 1s and 2p electrons
    zeta     2p spin-orbit constant
    eps_s    1s level
    eps_p    2p level
    Omega    incident photon energy
    Gamma_1s core-hole half-width (HWHM of the intermediate-state resonance)
    gamma    emitted-photon energy resolution (HWHM)
    """

    G: float = 0.3
    zeta: float = 0.1
    eps_s: float = -13.6
    eps_p: float = -5.0
    Omega: float = 20.0
    Gamma_1s: float = 0.5
    gamma: float = 0.4

    def __post_init__(self):
        if not self.Gamma_1s > 0:
            raise ValueError("Gamma_1s must be > 0")
        if not self.gamma > 0:
            raise ValueError("gamma must be > 0")


class SubspaceLabel(Enum):
    INITIAL = "initial"   # two 1s electrons + one 2p electron, M = +1/2
    M0 = "M0"             # one 1s + one 2p electron, M = 0 (up-spin photoelectron)
    M1 = "M1"             # one 1s + one 2p electron, M = 1 (down-spin photoelectron)


@dataclass(frozen=True)
class Subspace:
    label: SubspaceLabel
    basis: tuple[FockState, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)


def _state(*orbs: SpinOrbital) -> FockState:
    return FockState(sum(1 << o.index for o in orbs))


_S_UP = SpinOrbital(Shell.S1S, 0, Spin.UP)
_S_DN = SpinOrbital(Shell.S1S, 0, Spin.DOWN)
_CLOSED_SHELL = _state(_S_UP, _S_DN)


def _p(m: int, spin: Spin) -> SpinOrbital:
    return SpinOrbital(Shell.P2P, m, spin)


_BASES: dict[SubspaceLabel, tuple[FockState, ...]] = {
    # s^2 p^1 states with total M = +1/2
    SubspaceLabel.INITIAL: (
        _state(_S_UP, _S_DN, _p(1, Spin.DOWN)),
        _state(_S_UP, _S_DN, _p(0, Spin.UP)),
    ),
    # s^1 p^1 states with M = 0, reached by up-spin photoemission
    SubspaceLabel.M0: (
        _state(_S_UP, _p(0, Spin.DOWN)),
        _state(_S_UP, _p(-1, Spin.UP)),
        _state(_S_DN, _p(1, Spin.DOWN)),
        _state(_S_DN, _p(0, Spin.UP)),
    ),
    # s^1 p^1 states with M = 1, reached by down-spin photoemission
    SubspaceLabel.M1: (
        _state(_S_UP, _p(1, Spin.DOWN)),
        _state(_S_UP, _p(0, Spin.UP)),
        _state(_S_DN, _p(1, Spin.UP)),
    ),
}


def subspace(label: SubspaceLabel) -> Subspace:
    return Subspace(label, _BASES[label])


def intermediate_subspace(photoelectron_spin: Spin) -> Subspace:
    """Intermediate-state subspace matching the photoelectron spin."""
    return subspace(SubspaceLabel.M0 if photoelectron_spin is Spin.UP else SubspaceLabel.M1)


# ---------------------------------------------------------------------------
# operators: products of one-body Fock-space matrices
# ---------------------------------------------------------------------------

def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


# the bits of each shell's orbitals in an orbital mask, 1s first
_SHELL_MASK = {shell: sum(1 << o.index for o in ORBITALS if o.shell is shell) for shell in Shell}


def _occupation(state: FockState) -> tuple[int, int]:
    """(n_1s, n_2p) of a basis state: the bit counts of its shell masks."""
    return tuple((state.orbitals & mask).bit_count() for mask in _SHELL_MASK.values())


def _angular_momentum(shell: Shell, orbital: bool) -> tuple[np.ndarray, np.ndarray]:
    """(x_z, x_+) of l (``orbital``) or s of one electron on ``shell``, as 8 x 8
    one-body tables over ORBITALS; x_+ raises m with sqrt(j(j + 1) - m(m + 1))."""
    z, plus = np.zeros((8, 8)), np.zeros((8, 8))
    for b, o in enumerate(ORBITALS):
        if o.shell is shell:
            j, m = (1.0, o.m) if orbital else (0.5, 0.5 * o.spin.twice_sz)
            z[b, b] = m
            if m < j:
                raised = replace(o, m=o.m + 1) if orbital else replace(o, spin=Spin.UP)
                plus[raised.index, b] = sqrt(j * (j + 1) - m * (m + 1))
    return z, plus


def _fock_matrix(table: np.ndarray, row: dict[FockState, int],
                 col: dict[FockState, int] | None = None) -> np.ndarray:
    """sum_ab table[a, b] c^dag_a c_b through the Fock-space operators, from the
    states of ``col`` (state -> index; default ``row``) to those of ``row``; a
    KeyError if it leads out of them."""
    col = row if col is None else col
    hops = [(float(table[a, b]), ORBITALS[a], ORBITALS[b]) for a, b in zip(*np.nonzero(table))]
    out = np.zeros((len(row), len(col)), dtype=complex)
    for s, k in col.items():
        image = combine((x, create(annihilate(basis_vector(s), src), dst)) for x, dst, src in hops)
        for t, amplitude in image.terms():
            out[row[t], k] = amplitude
    return out


@cache
def _configuration(occupation: tuple[int, int]) -> dict[FockState, int]:
    """The index of each state with the shell occupations ``occupation``."""
    states = [FockState(mask) for mask in range(256) if mask.bit_count() == sum(occupation)]
    return {s: k for k, s in enumerate(s for s in states if _occupation(s) == occupation)}


@cache
def _configuration_operators(occupation: tuple[int, int]) -> tuple[np.ndarray, ...]:
    """l.s, S_1s . S_2p, J^2, S^2 and J_z over the states of ``_configuration``,
    built once per occupation. Each one-body matrix maps the states into
    themselves, so the products are exact there."""
    row = _configuration(occupation)
    l2p, s1s, s2p = ([_fock_matrix(t, row) for t in _angular_momentum(*x)]
                     for x in ((Shell.P2P, True), (Shell.S1S, False), (Shell.P2P, False)))
    spin = [a + b for a, b in zip(s1s, s2p)]
    total = [a + b for a, b in zip(l2p, spin)]

    def dot(a, b):   # A . B = A_z B_z + (A_+ B_- + A_- B_+)/2 from the (z, +) pairs
        return a[0] @ b[0] + (a[1] @ b[1].conj().T + a[1].conj().T @ b[1]) / 2

    def casimir(x):   # X^2 = X_- X_+ + X_z^2 + X_z
        return x[1].conj().T @ x[1] + x[0] @ x[0] + x[0]

    operators = (dot(l2p, s2p), dot(s1s, s2p), casimir(total), casimir(spin), total[0])
    return tuple(map(_read_only, operators))


@cache
def _subspace_operators(sub: Subspace) -> tuple[np.ndarray, ...]:
    """l.s, S_1s . S_2p, J^2, S^2 and J_z on ``sub``: read-only slices of the
    matrices of its configuration."""
    occupation = _occupation(sub.basis[0])
    row = _configuration(occupation)
    k = np.ix_(*2 * ([row[b] for b in sub.basis],))
    return tuple(_read_only(a[k]) for a in _configuration_operators(occupation))


def _level_energy(params: ModelParams, state: FockState) -> float:
    """eps_s n_1s + eps_p n_2p of ``state`` and of its whole subspace, or a
    DomainError if it overflows. An empty shell's level energy plays no part."""
    level = sum(e * n for e, n in zip((params.eps_s, params.eps_p), _occupation(state)) if n)
    if not isfinite(level):
        raise DomainError("level energy is not finite")
    return level


def _hamiltonian(params: ModelParams, sub: Subspace, level: float) -> np.ndarray:
    """H' from the cached coupling matrices plus ``level`` on the diagonal; a
    DomainError if the sum overflows."""
    spin_orbit, exchange = _subspace_operators(sub)[:2]
    # an overflowing weight or sum leaves inf or NaN entries, which are reported below
    with np.errstate(over="ignore", invalid="ignore"):
        H = params.zeta * spin_orbit - 2.0 * params.G * exchange + level * np.eye(sub.dim)
    if not np.all(np.isfinite(H)):
        raise DomainError("Hamiltonian matrix is not finite")
    return H


def j_squared_matrix(sub: Subspace) -> np.ndarray:
    """Total angular momentum J^2 of the electron system on the subspace (read-only)."""
    return _subspace_operators(sub)[2]


def jz_matrix(sub: Subspace) -> np.ndarray:
    """J_z of the electron system on the subspace (read-only)."""
    return _subspace_operators(sub)[4]


def s_squared_matrix(sub: Subspace) -> np.ndarray:
    """Total spin S^2 of the electron system on the subspace (read-only)."""
    return _subspace_operators(sub)[3]


def build_hamiltonian(params: ModelParams, sub: Subspace) -> np.ndarray:
    """Hermitian Hamiltonian matrix over the subspace basis: H' plus the level
    energy of the subspace. Raises DomainError if it overflows."""
    return _hamiltonian(params, sub, _level_energy(params, sub.basis[0]))


@dataclass(frozen=True)
class EigenSystem:
    """Eigenpairs of a subspace Hamiltonian, ascending: ``coupling_energies`` of
    the diagonalized matrix (for the model H'), to which the energies add the
    subspace's ``level_energy``; ``vectors[:, i]`` the i-th eigenvector over the
    subspace basis and ``j_labels[i]`` the J of the block it was found in.
    The phase of each vector is arbitrary."""

    coupling_energies: np.ndarray
    vectors: np.ndarray
    j_labels: tuple[HalfInt, ...]
    subspace: Subspace
    level_energy: float = 0.0

    @property
    def energies(self) -> np.ndarray:
        """Eigenvalues of the full H (read-only)."""
        return _read_only(self.level_energy + self.coupling_energies)

    @property
    def dim(self) -> int:
        return len(self.coupling_energies)


def _j_label_from_expectation(x: float) -> HalfInt:
    twice_j = round(2.0 * ((-1.0 + sqrt(1.0 + 4.0 * x)) / 2.0))
    expected = twice_j * (twice_j + 2) / 4.0   # j (j + 1), exact in floating point
    if not abs(x - expected) <= _J_LABEL_TOL:
        raise DomainError(f"<J^2> = {x} is not j(j+1) for any half-integer j")
    return HalfInt(twice_j)


@cache
def _label_basis(sub: Subspace) -> tuple[np.ndarray, tuple[HalfInt, ...], tuple[slice, ...]]:
    """The (J, S) eigenbasis of ``sub``, built once: the columns U ascending in
    J (read-only), their J labels and the slice of U that spans each J block.

    J(J + 1) values lie at least 2 apart and S(S + 1)/8 < 1/2, so each (J, S)
    pair has its own eigenvalue of J^2 + S^2/8 and one eigh separates them.
    """
    jsq, ssq = _subspace_operators(sub)[2:4]
    u = np.linalg.eigh(jsq + ssq / 8.0)[1]
    expectations = np.einsum("ij,ij->j", u.conj(), jsq @ u).real   # <J^2> per column
    labels = tuple(_j_label_from_expectation(float(x)) for x in expectations)
    starts = [k for k in range(len(labels)) if k == 0 or labels[k] != labels[k - 1]]
    blocks = tuple(slice(a, b) for a, b in zip(starts, starts[1:] + [len(labels)]))
    return _read_only(u), labels, blocks


def diagonalize(H: np.ndarray, sub: Subspace) -> EigenSystem:
    """Eigendecomposition of a Hermitian subspace Hamiltonian that commutes
    with J^2: each J block of H in the (J, S) basis of the subspace, at most
    2 x 2, is diagonalized on its own, so every label is exact. The pairs are
    sorted by energy, stably, so equal energies stay in ascending J. The
    eigen-residual is checked relative to max(1, max|H|); a matrix that does
    not commute with J^2 fails it.
    """
    H = np.asarray(H, dtype=complex)
    if H.shape != (sub.dim, sub.dim):
        raise ValueError("matrix does not match the subspace dimension")
    if not np.all(np.isfinite(H)):
        raise DomainError("Hamiltonian matrix is not finite")
    if np.max(np.abs(H - H.conj().T)) > _HERMITICITY_TOL:
        raise ValueError("matrix is not Hermitian")

    u, labels, blocks = _label_basis(sub)
    h = u.conj().T @ H @ u
    pairs = [np.linalg.eigh(h[b, b]) for b in blocks]
    w = np.concatenate([values for values, _ in pairs])
    v = np.hstack([u[:, b] @ rotation for b, (_, rotation) in zip(blocks, pairs)])
    order = np.argsort(w, kind="stable")
    w, v = w[order], v[:, order]

    residual = np.max(np.abs(H @ v - v * w[np.newaxis, :]))
    if not residual <= _RESIDUAL_TOL * max(1.0, float(np.max(np.abs(H)))):
        raise DomainError(f"eigenvector residual {residual:.3e} too large")
    return EigenSystem(w, v, tuple(labels[i] for i in order), sub)


def intermediate_eigensystem(params: ModelParams, photoelectron_spin: Spin) -> EigenSystem:
    """H' diagonalized on the intermediate subspace, with its level energy."""
    sub = intermediate_subspace(photoelectron_spin)
    level = _level_energy(params, sub.basis[0])
    return replace(diagonalize(_hamiltonian(params, sub, 0.0), sub), level_energy=level)


def closed_shell() -> ManyBodyVector:
    """The closed 1s^2 shell s^dag_up s^dag_down |0>, the core of |g> and |f>."""
    return create(create(vacuum(), _S_DN), _S_UP)


@cache
def _ground() -> tuple[ManyBodyVector, np.ndarray]:
    """The electron ground state, and its components over the initial-subspace
    basis (read-only)."""
    core = closed_shell()
    electrons = combine((coeff, create(core, _p(ml.twice_value // 2, _SPIN_OF[ms.twice_value])))
                        for (ml, ms), coeff in _J_HALF.items())
    components = np.array([electrons.amplitude(b) for b in _BASES[SubspaceLabel.INITIAL]])
    return electrons, _read_only(components)


def ground_state() -> ManyBodyVector:
    """The (J, M) = (1/2, 1/2) electron ground state 1s^2 2p.

    The 2p electron is coupled to j = 1/2 with Clebsch-Gordan coefficients,
    so the state does not depend on the model parameters.
    """
    return ManyBodyVector(dict(_ground()[0].terms()))


def ground_coupling_energy(params: ModelParams) -> float:
    """E'_g = <g| H' |g>, with g verified to be an eigenvector of H' on the
    initial subspace, relative to max(1, |G|, |zeta|)."""
    c = _ground()[1]
    hc = _hamiltonian(params, subspace(SubspaceLabel.INITIAL), 0.0) @ c
    energy = float((c.conj() @ hc).real)
    residual = np.linalg.norm((hc - energy * c) / max(1.0, abs(params.G), abs(params.zeta)))
    if not residual <= _RESIDUAL_TOL:
        raise DomainError("initial state is not an eigenvector of the Hamiltonian")
    return energy


def initial_energy(params: ModelParams, coupling: float) -> float:
    """E_g = 2 eps_s + eps_p + E'_g from E'_g = ``coupling``; it must be finite."""
    energy = _level_energy(params, _BASES[SubspaceLabel.INITIAL][0]) + coupling
    if not isfinite(energy):
        raise DomainError("initial-state energy is not finite")
    return energy


def initial_state(params: ModelParams) -> tuple[ManyBodyVector, float]:
    """The normalized (J, M) = (1/2, 1/2) electron ground state and its energy E_g."""
    return ground_state(), initial_energy(params, ground_coupling_energy(params))


def final_state_energy(params: ModelParams) -> float:
    """Energy of the closed-shell electron final state, <1s^2| H |1s^2>: its
    level energy, since H' vanishes there."""
    return _level_energy(params, _CLOSED_SHELL)
