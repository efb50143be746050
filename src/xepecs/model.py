"""The two-shell (1s, 2p) atomic model: Hamiltonian blocks and eigensystems.

    H = eps_s * n_1s + eps_p * n_2p + H',
    H' = zeta * (l.s on the 2p electron) - 2 G * S_1s . S_2p

The exchange term uses shell spin operators, so it vanishes on a filled 1s
shell. Matrix elements come mechanically from the fockspace operators through
two helpers: a sum of one-body hops c^dag(dst) c(src), and a diagonal
sum_o w_o n_o with one weight per orbital (shell occupations, s_z, j_z, l_z s_z).

Every state of a subspace has the same (n_1s, n_2p): (2, 1) initially, (1, 1)
in the intermediate states and (2, 0) on the closed shell of the final state.
So only H' is diagonalized, and an energy is the level energy
eps_s n_1s + eps_p n_2p plus an eigenvalue of H'; H' is zero on the closed
shell. The occupations and the matrices of l.s, S_1s . S_2p, J^2 and S^2 are
built once per process and subspace, so a parameter set costs a weighted sum
of two matrices of at most 4 x 4 and their eigendecomposition.
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
    PhotonMode,
    Shell,
    Spin,
    SpinOrbital,
    annihilate,
    basis_vector,
    combine,
    create,
    create_photon,
    inner,
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
# Levels closer than the residual tolerance form one degenerate cluster, so a
# rotation within a cluster never fails the residual check; levels further
# apart are resolved by eigh itself.
_DEGENERACY_TOL = _RESIDUAL_TOL

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
    mask = 0
    for o in orbs:
        mask |= 1 << o.index
    return FockState(mask)


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
# operator applications (all act on the electron content only)
# ---------------------------------------------------------------------------

_SQRT2 = sqrt(2.0)
_Hops = tuple[tuple[complex, SpinOrbital, SpinOrbital], ...]   # (coeff, dst, src) terms
_BOTH_SHELLS = (Shell.S1S, Shell.P2P)

# orbital indices occupied in each 8-bit orbital mask
_OCCUPIED = tuple(tuple(i for i in range(8) if mask >> i & 1) for mask in range(256))

# per-orbital weights of the diagonal operators (the 1s orbital has m = 0)
_SZ = tuple(0.5 * o.spin.twice_sz for o in ORBITALS)
_SZ_SHELL = {shell: tuple(w if o.shell is shell else 0.0 for o, w in zip(ORBITALS, _SZ))
             for shell in Shell}
_JZ = tuple(o.m + w for o, w in zip(ORBITALS, _SZ))
_LZSZ = tuple(o.m * w for o, w in zip(ORBITALS, _SZ))


def _apply_diagonal(v: ManyBodyVector, weights: tuple[float, ...]) -> ManyBodyVector:
    """sum_o weights[o] n_o applied to v, one weight per canonical orbital."""
    out = {}
    for s, a in v.terms():
        w = sum(weights[i] for i in _OCCUPIED[s.orbitals])
        if w != 0.0:
            out[s] = a * w
    return ManyBodyVector(out)


def _apply_terms(v: ManyBodyVector, hops: _Hops) -> ManyBodyVector:
    """Sum of one-body terms coeff * c^dag(dst) c(src) applied to v."""
    return combine((coeff, create(annihilate(v, src), dst)) for coeff, dst, src in hops)


@cache
def _p_ladder_hops(direction: int, spin_flip: tuple[Spin, Spin] | None) -> _Hops:
    """Hops for l+/l- (direction +1/-1) on 2p, optionally with a spin flip.

    The l = 1 ladder element sqrt(2 - m(m + direction)) is sqrt(2) for every step.
    """
    spins = tuple((s, s) for s in Spin) if spin_flip is None else (spin_flip,)
    return tuple((_SQRT2, _p(m + direction, dst), _p(m, src))
                 for m in (-1, 0, 1) if m + direction in (-1, 0, 1)
                 for src, dst in spins)


@cache
def _spin_ladder_hops(shells: tuple[Shell, ...], raise_spin: bool) -> _Hops:
    """S+ (or S-) summed over the given shells."""
    src_spin, dst_spin = (Spin.DOWN, Spin.UP) if raise_spin else (Spin.UP, Spin.DOWN)
    return tuple((1.0, SpinOrbital(o.shell, o.m, dst_spin), o)
                 for o in ORBITALS if o.shell in shells and o.spin is src_spin)


def _apply_spin_orbit(v: ManyBodyVector) -> ManyBodyVector:
    """l.s of the 2p electron: l_z s_z + (l+ s- + l- s+)/2."""
    up_flip = _apply_terms(v, _p_ladder_hops(+1, (Spin.UP, Spin.DOWN)))
    dn_flip = _apply_terms(v, _p_ladder_hops(-1, (Spin.DOWN, Spin.UP)))
    return _apply_diagonal(v, _LZSZ) + 0.5 * up_flip + 0.5 * dn_flip


def _apply_exchange(v: ManyBodyVector) -> ManyBodyVector:
    """S_1s . S_2p = Sz Sz + (S+_1s S-_2p + S-_1s S+_2p)/2."""
    zz = _apply_diagonal(_apply_diagonal(v, _SZ_SHELL[Shell.P2P]), _SZ_SHELL[Shell.S1S])
    s_up_p_dn = _apply_terms(_apply_terms(v, _spin_ladder_hops((Shell.P2P,), False)),
                             _spin_ladder_hops((Shell.S1S,), True))
    s_dn_p_up = _apply_terms(_apply_terms(v, _spin_ladder_hops((Shell.P2P,), True)),
                             _spin_ladder_hops((Shell.S1S,), False))
    return zz + 0.5 * s_up_p_dn + 0.5 * s_dn_p_up


# the two terms of H', weighted by zeta and -2 G
_COUPLINGS = (_apply_spin_orbit, _apply_exchange)
_N_SHELL = {shell: tuple(1.0 if o.shell is shell else 0.0 for o in ORBITALS) for shell in Shell}


def _apply_casimir(v: ManyBodyVector, raising: _Hops, lowering: _Hops,
                   z_weights: tuple[float, ...]) -> ManyBodyVector:
    """X^2 = X- X+ + Xz^2 + Xz of an angular momentum X from its ladder hops and Xz."""
    z = _apply_diagonal(v, z_weights)
    return _apply_terms(_apply_terms(v, raising), lowering) + _apply_diagonal(z, z_weights) + z


def _operator_matrix(sub: Subspace, apply) -> np.ndarray:
    images = [apply(basis_vector(b)) for b in sub.basis]   # one per column
    return np.array([[img.amplitude(b) for img in images] for b in sub.basis], dtype=complex)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@cache
def _subspace_operators(sub: Subspace) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(couplings, J^2, S^2) on ``sub``, built once through the Fock-space
    operators and read-only; ``couplings`` holds the matrices of l.s and S_1s . S_2p."""
    j_plus = _p_ladder_hops(+1, None) + _spin_ladder_hops(_BOTH_SHELLS, True)
    j_minus = _p_ladder_hops(-1, None) + _spin_ladder_hops(_BOTH_SHELLS, False)
    s_plus, s_minus = (_spin_ladder_hops(_BOTH_SHELLS, r) for r in (True, False))
    couplings = np.array([_operator_matrix(sub, apply) for apply in _COUPLINGS])
    jsq = _operator_matrix(sub, lambda v: _apply_casimir(v, j_plus, j_minus, _JZ))
    ssq = _operator_matrix(sub, lambda v: _apply_casimir(v, s_plus, s_minus, _SZ))
    return _read_only(couplings), _read_only(jsq), _read_only(ssq)


@cache
def _occupation(state: FockState) -> tuple[float, float]:
    """(n_1s, n_2p) of a basis state, read once through the Fock-space n operators."""
    v = basis_vector(state)
    return tuple(inner(v, _apply_diagonal(v, _N_SHELL[shell])).real for shell in _BOTH_SHELLS)


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
    spin_orbit, exchange = _subspace_operators(sub)[0]
    # an overflowing weight or sum leaves inf or NaN entries, which are reported below
    with np.errstate(over="ignore", invalid="ignore"):
        H = params.zeta * spin_orbit - 2.0 * params.G * exchange + level * np.eye(sub.dim)
    if not np.all(np.isfinite(H)):
        raise DomainError("Hamiltonian matrix is not finite")
    return H


def j_squared_matrix(sub: Subspace) -> np.ndarray:
    """Total angular momentum J^2 of the electron system on the subspace (read-only)."""
    return _subspace_operators(sub)[1]


def jz_matrix(sub: Subspace) -> np.ndarray:
    return _operator_matrix(sub, lambda v: _apply_diagonal(v, _JZ))


def s_squared_matrix(sub: Subspace) -> np.ndarray:
    """Total spin S^2 of the electron system on the subspace (read-only)."""
    return _subspace_operators(sub)[2]


def build_hamiltonian(params: ModelParams, sub: Subspace) -> np.ndarray:
    """Hermitian Hamiltonian matrix over the subspace basis: H' plus the level
    energy of the subspace. Raises DomainError if it overflows."""
    return _hamiltonian(params, sub, _level_energy(params, sub.basis[0]))


@dataclass(frozen=True)
class EigenSystem:
    """Eigenpairs of a subspace Hamiltonian, ascending: ``coupling_energies`` of
    the diagonalized matrix (for the model H'), to which the energies add the
    subspace's ``level_energy``; ``vectors[:, i]`` the i-th eigenvector over the
    subspace basis and ``j_labels[i]`` its J, read off <J^2> = j (j + 1)."""

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


def _resolve_clusters(w: np.ndarray, v: np.ndarray, operators: list[np.ndarray]
                      ) -> np.ndarray:
    """Rotate degenerate eigenvector clusters to diagonalize commuting labels.

    Within each group of (near-)equal eigenvalues the returned columns also
    diagonalize the given operators, in order, which makes the decomposition
    deterministic and the labels sharp even at accidental degeneracies.
    """
    scale = max(1.0, float(np.max(np.abs(w))))
    groups = _runs(w, list(range(len(w))), _DEGENERACY_TOL * scale)
    for op in operators:
        next_groups: list[list[int]] = []
        for g in groups:
            if len(g) == 1:
                next_groups.append(g)
                continue
            block = v[:, g]
            sub_op = block.conj().T @ op @ block
            vals, rot = np.linalg.eigh(0.5 * (sub_op + sub_op.conj().T))
            v[:, g] = block @ rot
            # split the group by the new labels for the next operator pass
            next_groups += _runs(vals, g, 1e-6)
        groups = next_groups
    return v


def _runs(values: np.ndarray, indices: list[int], tol: float) -> list[list[int]]:
    """Split ``indices`` (``values`` ascending) into runs within ``tol`` of their first value."""
    runs, start = [], 0
    for k in range(1, len(indices) + 1):
        if k == len(indices) or values[k] - values[start] > tol:
            runs.append(indices[start:k])
            start = k
    return runs


def _fix_phases(v: np.ndarray) -> np.ndarray:
    """Rotate each column so that its largest component is real and positive."""
    pivots = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
    size = np.abs(pivots)
    v *= np.divide(pivots.conj(), size, out=np.ones_like(pivots), where=size > 0)
    return v


def _j_label_from_expectation(x: float) -> HalfInt:
    twice_j = round(2.0 * ((-1.0 + sqrt(1.0 + 4.0 * x)) / 2.0))
    expected = twice_j * (twice_j + 2) / 4.0   # j (j + 1), exact in floating point
    if not abs(x - expected) <= _J_LABEL_TOL:
        raise DomainError(f"<J^2> = {x} is not j(j+1) for any half-integer j")
    return HalfInt(twice_j)


def diagonalize(H: np.ndarray, sub: Subspace) -> EigenSystem:
    """Full eigendecomposition of a Hermitian subspace Hamiltonian.

    Degenerate levels are resolved along J^2 and then S^2 so the eigenbasis
    and its labels stay deterministic in the zeta -> 0 and G -> 0 limits.
    The eigen-residual is checked relative to the scale max(1, max|H|).
    """
    H = np.asarray(H, dtype=complex)
    if H.shape != (sub.dim, sub.dim):
        raise ValueError("matrix does not match the subspace dimension")
    if not np.all(np.isfinite(H)):
        raise DomainError("Hamiltonian matrix is not finite")
    if np.max(np.abs(H - H.conj().T)) > _HERMITICITY_TOL:
        raise ValueError("matrix is not Hermitian")

    w, v = np.linalg.eigh(H)
    jsq = j_squared_matrix(sub)
    ssq = s_squared_matrix(sub)
    v = _resolve_clusters(w, v, [jsq, ssq])
    v = _fix_phases(v)

    residual = np.max(np.abs(H @ v - v * w[np.newaxis, :]))
    if not residual <= _RESIDUAL_TOL * max(1.0, float(np.max(np.abs(H)))):
        raise DomainError(f"eigenvector residual {residual:.3e} too large")

    expectations = np.einsum("ij,ij->j", v.conj(), jsq @ v).real   # <J^2> per eigenvector
    labels = tuple(_j_label_from_expectation(float(x)) for x in expectations)
    return EigenSystem(w, v, labels, sub)


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
    """The ground state with one incident photon, and the components of its
    electron part over the initial-subspace basis (read-only)."""
    core = closed_shell()
    electrons = combine((coeff, create(core, _p(ml.twice_value // 2, _SPIN_OF[ms.twice_value])))
                        for (ml, ms), coeff in _J_HALF.items())
    components = np.array([electrons.amplitude(b) for b in _BASES[SubspaceLabel.INITIAL]])
    return create_photon(electrons, PhotonMode.INCIDENT), _read_only(components)


def ground_state() -> ManyBodyVector:
    """The (J, M) = (1/2, 1/2) ground state plus one incident photon.

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


def initial_state(params: ModelParams) -> tuple[ManyBodyVector, float]:
    """The normalized (J, M) = (1/2, 1/2) ground state plus one incident photon,
    and its electron energy E_g = 2 eps_s + eps_p + E'_g, which must be finite."""
    level = _level_energy(params, _BASES[SubspaceLabel.INITIAL][0])
    energy = level + ground_coupling_energy(params)
    if not isfinite(energy):
        raise DomainError("initial-state energy is not finite")
    return ground_state(), energy


def final_state_energy(params: ModelParams) -> float:
    """Energy of the closed-shell electron final state, <1s^2| H |1s^2>: its
    level energy, since H' vanishes there."""
    return _level_energy(params, _CLOSED_SHELL)
