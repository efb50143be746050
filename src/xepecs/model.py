"""The two-shell (1s, 2p) atomic model: its subspaces, couplings and levels.

    H = eps_s * n_1s + eps_p * n_2p + H',
    H' = zeta * (l.s on the 2p electron) - 2 G * S_1s . S_2p

Both couplings come from the (z, +) pairs of l on 2p, s on 1s and s on 2p:
8 x 8 one-body tables with ladder elements sqrt(j(j + 1) - m(m + 1)), each
turned by the ladder rule of ``fockspace`` into its matrix over all states
with a subspace's shell occupations, where
A . B = A_z B_z + (A_+ B_- + A_- B_+)/2 gives l.s and S_1s . S_2p (zero on a
filled 1s shell). The same builder maps one configuration to another:
``amplitudes`` takes the 2p -> 1s decay from the s^1 p^1 states to the closed
shell with it.

Every state of a subspace has the same (n_1s, n_2p): (2, 1) initially, (1, 1)
in the intermediate states and (2, 0) on the closed shell of the final state.
So the level energy eps_s n_1s + eps_p n_2p only shifts a whole subspace, and
no level energy is formed here: the lines take eps_s and eps_p through exact
occupation differences (see ``amplitudes``). Only H' is solved, and it is a
scalar under rotations, so it commutes with J^2. In the coupled basis
|((s_1s s_2p) S, l) J M> of each subspace, whose entries are products of two
Clebsch-Gordan coefficients from the exact layer in ``angular``, l.s and
S_1s . S_2p are real and block-diagonal in J: they are projected there and
checked once per process and subspace. A parameter set then costs
h = zeta l.s - 2 G S_1s . S_2p on at most 4 x 4 constants and one closed-form
2 x 2 solve (no LAPACK call) per subspace, which gives every level an exact J.
The ground state is the J = 1/2 column of the initial subspace, and E'_g its
entry of h.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from functools import cache
from math import atan2, copysign, cos, sin, sqrt, tan

import numpy as np

from .angular import HalfInt, cg_exact
from .fockspace import ORBITALS, FockState, Shell, Spin, SpinOrbital, ladder

__all__ = [
    "DomainError",
    "ModelParams",
    "SubspaceLabel",
    "Subspace",
    "EigenSystem",
    "subspace",
    "intermediate_subspace",
    "intermediate_eigensystem",
    "ground_coupling_energy",
]

# largest entry of a coupling operator allowed outside the J blocks of its subspace
_BLOCK_TOL = 1e-10


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


_SUBSPACES = {label: Subspace(label, basis) for label, basis in _BASES.items()}


def subspace(label: SubspaceLabel) -> Subspace:
    return _SUBSPACES[label]


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
    """sum_ab table[a, b] c^dag_a c_b by the ladder rule, c_b and then c^dag_a on
    each state of ``col`` (state -> index; default ``row``), into the states of
    ``row``; a KeyError if it leads out of them."""
    col = row if col is None else col
    hops = [(float(table[a, b]), int(a), int(b)) for a, b in zip(*np.nonzero(table))]
    out = np.zeros((len(row), len(col)), dtype=complex)
    for s, k in col.items():
        for x, a, b in hops:
            removed = ladder(s.orbitals, b, False)
            added = removed and ladder(removed[1], a, True)
            if added:
                out[row[FockState(added[1])], k] += x * removed[0] * added[0]
    return out


@cache
def _configuration(occupation: tuple[int, int]) -> dict[FockState, int]:
    """The index of each state with the shell occupations ``occupation``."""
    states = [FockState(mask) for mask in range(256) if mask.bit_count() == sum(occupation)]
    return {s: k for k, s in enumerate(s for s in states if _occupation(s) == occupation)}


@cache
def _configuration_operators(occupation: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """l.s and S_1s . S_2p over the states of ``_configuration``, built once per
    occupation. Each one-body matrix maps the states into themselves, so the
    products are exact there."""
    row = _configuration(occupation)
    l2p, s1s, s2p = ([_fock_matrix(t, row) for t in _angular_momentum(*x)]
                     for x in ((Shell.P2P, True), (Shell.S1S, False), (Shell.P2P, False)))

    def dot(a, b):   # A . B = A_z B_z + (A_+ B_- + A_- B_+)/2 from the (z, +) pairs
        return _read_only(a[0] @ b[0] + (a[1] @ b[1].conj().T + a[1].conj().T @ b[1]) / 2)

    return dot(l2p, s2p), dot(s1s, s2p)


@cache
def _subspace_operators(label: SubspaceLabel) -> tuple[np.ndarray, np.ndarray]:
    """l.s and S_1s . S_2p on the subspace ``label``: read-only slices of the
    matrices of its configuration."""
    occupation = _occupation(_BASES[label][0])
    row = _configuration(occupation)
    k = np.ix_(*2 * ([row[b] for b in _BASES[label]],))
    return tuple(_read_only(a[k]) for a in _configuration_operators(occupation))


@dataclass(frozen=True)
class EigenSystem:
    """The levels of H' on a subspace, ascending: ``coupling_energies`` the
    eigenvalues of H' (the subspace's level energy shifts them to the
    energies); ``vectors[:, i]`` the i-th eigenvector over the subspace basis
    and ``j_labels[i]`` the J of the block it was found in. The phase of each
    vector is arbitrary."""

    coupling_energies: np.ndarray
    vectors: np.ndarray
    j_labels: tuple[HalfInt, ...]
    subspace: Subspace

    @property
    def dim(self) -> int:
        return len(self.coupling_energies)


def _angular_numbers(state: FockState) -> tuple[int, int, int, int]:
    """Twice s_1s and m_1s of the 1s shell of ``state`` (s_1s = 0 when it is
    closed), and twice m_l and m_s of its one 2p electron."""
    occupied = [o for o in ORBITALS if state.orbitals >> o.index & 1]
    core = [o for o in occupied if o.shell is Shell.S1S]
    p = next(o for o in occupied if o.shell is Shell.P2P)
    return len(core) % 2, sum(o.spin.twice_sz for o in core), 2 * p.m, p.spin.twice_sz


@cache
def _label_basis(label: SubspaceLabel) -> tuple[np.ndarray, tuple[HalfInt, ...], tuple]:
    """The (J, S) basis of subspace ``label`` (a Subspace key rehashes its basis),
    built once: the coupled states |((s_1s s_2p) S, l) J M> as the columns U over
    the basis states (read-only), ascending in (J, S), their J labels and the
    column pair of each 2 x 2 J block.

    A basis state carries (m_1s, m_l, m_s), and its entry in the column (J, S)
    is <s_1s m_1s; 1/2 m_s | S M_S> <1 m_l; S M_S | J M>, the square root of
    the exact product of the two squares from ``cg_exact``. On the initial
    subspace the closed 1s shell has s_1s = 0, so the columns are |(l s) j m>.
    """
    numbers = [_angular_numbers(b) for b in _BASES[label]]   # all twice their value
    ts1s, tm = numbers[0][0], sum(numbers[0][1:])   # s_1s and M, the same for every state
    columns = sorted((tj, ts) for ts in range(abs(ts1s - 1), ts1s + 2, 2)
                     for tj in range(abs(2 - ts), 3 + ts, 2) if abs(tm) <= tj)
    u = np.zeros((len(numbers), len(columns)), dtype=complex)
    for k, (_, tm1s, tml, tms) in enumerate(numbers):
        m_spin = HalfInt(tm1s + tms)   # M_S
        spin = {ts: cg_exact(HalfInt(ts1s), HalfInt(tm1s), 0.5, HalfInt(tms), HalfInt(ts), m_spin)
                for ts in {ts for _, ts in columns}}
        for col, (tj, ts) in enumerate(columns):
            spin_sign, spin_square = spin[ts]
            if spin_sign:   # else |M_S| > S
                total_sign, total_square = cg_exact(1, HalfInt(tml), HalfInt(ts), m_spin,
                                                    HalfInt(tj), HalfInt(tm))
                u[k, col] = spin_sign * total_sign * sqrt(spin_square * total_square)
    labels = tuple(HalfInt(tj) for tj, _ in columns)
    pairs = tuple((k, k + 1) for k in range(len(labels) - 1) if labels[k] == labels[k + 1])
    return _read_only(u), labels, pairs


@cache
def _coupled_operators(label: SubspaceLabel) -> tuple[np.ndarray, np.ndarray]:
    """l.s and S_1s . S_2p in the (J, S) basis U of subspace ``label``: the real
    matrices U^dag X U, built once and read-only. Both are checked there once:
    a DomainError unless they are real and vanish outside the J blocks (to
    1e-10), which only an operator that does not commute with J^2 fails. The
    parameters only weight them, so no parameter set can fail the check."""
    u, labels, _ = _label_basis(label)
    twice_j = np.array([j.twice_value for j in labels])
    outside = twice_j[:, None] != twice_j[None, :]
    projected = []
    for name, x in zip(("l.s", "S_1s . S_2p"), _subspace_operators(label)):
        x = u.conj().T @ x @ u
        if np.any(x.imag):
            raise DomainError(f"{name} on {label.value} is not real in the (J, S) basis")
        if not np.abs(x.real[outside]).max(initial=0.0) <= _BLOCK_TOL:
            raise DomainError(f"{name} on {label.value} does not commute with J^2")
        projected.append(_read_only(x.real.copy()))
    return tuple(projected)


def _block_eigenpairs(h: np.ndarray, pairs: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues, in column order, and the rotation of the J blocks of a real
    symmetric h in a (J, S) basis, each 2 x 2 block [[p, b], [b, r]] at the
    columns (i, j) of one of ``pairs``, b read from h[i, j]. The Jacobi angle
    theta = atan2(b sgn(p - r), |p - r|) / 2 gives
    diag(p + b tan(theta), r - b tan(theta)): b = 0 keeps a block bit for bit,
    and a subnormal b gives a subnormal angle."""
    values = h.diagonal().copy()
    rotation = np.eye(len(h))
    for i, j in pairs:   # at most one per subspace: Python floats beat size-1 arrays
        p, r, b = float(values[i]), float(values[j]), float(h[i, j])
        half = 0.5 * p - 0.5 * r   # overflows no sooner than p or r
        angle = 0.5 * atan2(copysign(1.0, half) * b, abs(half))
        shift = b * tan(angle)
        values[i], values[j] = p + shift, r - shift
        rotation[i, i], rotation[i, j] = cos(angle), -sin(angle)
        rotation[j, i], rotation[j, j] = sin(angle), cos(angle)
    return values, rotation


def _eigensystem(params: ModelParams, label: SubspaceLabel) -> EigenSystem:
    """The levels of H' on subspace ``label``, one rule for every subspace:
    h = zeta l.s - 2 G S_1s . S_2p on the constants of ``_coupled_operators``,
    each J block solved in closed form, the pairs sorted by energy, stably
    (energies equal as floats stay in ascending (J, S) order; levels
    degenerate only in exact arithmetic, at G = 0 or zeta = 0, can differ by
    an ulp and then follow roundoff), and the vectors U times the rotation. A
    DomainError if h overflows; a level beyond the float range comes out as
    +/-inf, which the calculator's line positions report."""
    spin_orbit, exchange = _coupled_operators(label)
    # an overflowing weight or sum leaves inf or NaN entries, which are reported below
    with np.errstate(over="ignore", invalid="ignore"):
        h = params.zeta * spin_orbit - 2.0 * params.G * exchange
    if not np.isfinite(h).all():
        raise DomainError("Hamiltonian matrix is not finite")
    u, labels, pairs = _label_basis(label)
    w, rotation = _block_eigenpairs(h, pairs)
    order = np.argsort(w, kind="stable")
    return EigenSystem(_read_only(w[order]), _read_only(u @ rotation[:, order]),
                       tuple(labels[i] for i in order), subspace(label))


def intermediate_eigensystem(params: ModelParams, photoelectron_spin: Spin) -> EigenSystem:
    """The levels of H' on the intermediate subspace of the photoelectron spin."""
    return _eigensystem(params, intermediate_subspace(photoelectron_spin).label)


def _ground() -> np.ndarray:
    """The (J, M) = (1/2, 1/2) electron ground state 1s^2 2p as its components
    over the initial basis (read-only): the J = 1/2 column of the (J, S) basis.
    The closed 1s shell has spin 0, so this is the 2p electron coupled to
    j = 1/2 with Clebsch-Gordan coefficients, the same for every parameter set."""
    return _label_basis(SubspaceLabel.INITIAL)[0][:, 0]


def ground_coupling_energy(params: ModelParams) -> float:
    """E'_g, the J = 1/2 level of H' on the initial subspace, whose one vector
    is ``_ground()``."""
    eig = _eigensystem(params, SubspaceLabel.INITIAL)
    return float(eig.coupling_energies[eig.j_labels.index(HalfInt(1))])
