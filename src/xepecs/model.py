"""The two-shell (1s, 2p) atomic model: its subspaces, couplings and levels.

    H = eps_s * n_1s + eps_p * n_2p + H',
    H' = zeta * (l.s on the 2p electron) - 2 G * S_1s . S_2p

Every state of a subspace has the same (n_1s, n_2p): (2, 1) initially, (1, 1)
in the intermediate states and (2, 0) on the closed shell of the final state.
So the level energy eps_s n_1s + eps_p n_2p only shifts a whole subspace, and
no level energy is formed here: the lines take eps_s and eps_p through exact
occupation differences (see ``amplitudes``). Only H' is solved, and it is a
scalar under rotations, so it is block-diagonal in J in the coupled basis
|((s_1s s_2p) S, l) J M> of each subspace, the one basis of the package: a
subspace is its s_1s and M, and its columns are every (J, S) they couple to.
The ground state is the J = 1/2 column of the initial subspace.

Both couplings are written in the coupled basis by Racah algebra, once per
process: S_1s . S_2p = [S(S + 1) - s_1s(s_1s + 1) - 3/4]/2 is diagonal, and
l.s is a scalar product of operators on the two parts of the (l, S) coupling
(Edmonds, ch. 7), one product of two 6j symbols from ``angular``. Each entry
is sign * sqrt(exact square), within one rounding of its exact value; the
rational entries (-1, 1/2, 1/4, -3/4) and the zeros are exact. The two
intermediate subspaces share their J = 1 block (1P1, 3P1) as the same floats.

A parameter set has one set of levels, which ``_levels`` solves: E'_g and
the intermediate levels of both photoelectron spins. It costs h = zeta l.s -
2 G S_1s . S_2p once, on the seven distinct entries of the three subspaces,
and one closed-form 2 x 2 rotation of the shared J = 1 block (no LAPACK
call). The other levels are single entries: E'_g = -zeta (J = 1/2), 3P0 =
-zeta - G/2 and 3P2 = zeta/2 - G/2. Every level comes with an exact J, and its
vector is a column of the rotation over the coupled columns of its subspace.
A set whose H' overflows on any subspace has no levels: ``_levels`` raises
DomainError. The public route to the levels is ``AmplitudeCalculator``
(``amplitudes``).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cache
from math import atan2, copysign, cos, isfinite, sin, tan

import numpy as np

from .angular import HalfInt, _phase, _root, sixj_exact
from .fockspace import Spin

__all__ = [
    "DomainError",
    "ModelParams",
    "SubspaceLabel",
    "EigenSystem",
]

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

    __hash__ = object.__hash__   # members are singletons; Enum's hashes the name in Python


# twice (s_1s, M) of each subspace: s_1s = 0 on the closed 1s shell
_SPIN_AND_M = {SubspaceLabel.INITIAL: (0, 1), SubspaceLabel.M0: (1, 0), SubspaceLabel.M1: (1, 2)}

# the intermediate subspace that each photoelectron spin leaves
_INTERMEDIATE = {Spin.UP: SubspaceLabel.M0, Spin.DOWN: SubspaceLabel.M1}


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)   # array fields: == is identity
class EigenSystem:
    """The levels of H' on subspace ``label``, ascending: ``coupling_energies``
    the eigenvalues of H' (the subspace's level energy shifts them to the
    energies); ``rotation[:, i]`` the i-th eigenvector over the subspace's
    coupled (J, S) columns, real and read-only, and ``j_labels[i]`` the J of the
    block it was found in. The sign of each vector is arbitrary."""

    coupling_energies: np.ndarray
    rotation: np.ndarray
    j_labels: tuple[HalfInt, ...]
    label: SubspaceLabel

    @property
    def dim(self) -> int:
        return len(self.coupling_energies)


@cache
def _columns(label: SubspaceLabel) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Twice s_1s of subspace ``label`` and twice the (J, S) of each column of its
    coupled basis, ascending: every J and S that s_1s, s_2p = 1/2 and l = 1
    couple to, with |M| <= J."""
    ts1s, tm = _SPIN_AND_M[label]
    return ts1s, tuple(sorted((tj, ts) for ts in range(abs(ts1s - 1), ts1s + 2, 2)
                              for tj in range(abs(2 - ts), 3 + ts, 2) if abs(tm) <= tj))


@cache
def _label_basis(label: SubspaceLabel) -> tuple[tuple[HalfInt, ...], tuple]:
    """The J label of each column of ``_columns(label)`` and the column pair of
    each 2 x 2 J block, built once."""
    labels = tuple(HalfInt(tj) for tj, _ in _columns(label)[1])
    return labels, tuple((k, k + 1) for k in range(len(labels) - 1)
                         if labels[k] == labels[k + 1])


def _spin_orbit(ts1s: int, tj: int, ts_row: int, ts_col: int) -> float:
    """<(l, S') J| l.s |(l, S) J> of the 2p electron, S' and S of (s_1s s_2p), all
    twice their value, l = 1: l on the first part of (l, S) and s_2p on the second
    (Edmonds 7.1.6), (-1)^(l + S' + J) {J S' l; 1 l S} <l||l||l> <S'||s_2p||S>,
    with <S'||s_2p||S> = (-1)^(s_1s + s_2p + S' + 1) sqrt((2S + 1)(2S' + 1))
    {s_2p S' s_1s; S s_2p 1} <s||s||s> (Edmonds 7.1.8), <l||l||l>^2 <s||s||s>^2 = 9."""
    return _root((_phase(2 + ts_row + tj + ts1s + 1 + ts_row + 2), 9 * (ts_row + 1) * (ts_col + 1)),
                 sixj_exact(HalfInt(tj), HalfInt(ts_row), 1, 1, 1, HalfInt(ts_col)),
                 sixj_exact(0.5, HalfInt(ts_row), HalfInt(ts1s), HalfInt(ts_col), 0.5, 1))


@cache
def _couplings() -> dict[tuple[int, int, int, int], tuple[float, float]]:
    """(l.s, S_1s . S_2p) at every entry of H' in the coupled bases of the three
    subspaces (see ``_entry_keys``), built once. The J = 1 block of the two
    intermediate subspaces is one set of entries, shared. l.s vanishes between
    different J, and S_1s . S_2p = [S(S + 1) - s_1s(s_1s + 1) - 3/4]/2 is
    diagonal: 0 on the closed 1s shell, -3/4 on a singlet and 1/4 on a triplet."""
    return {(ts1s, tj, ts, ts_col): (
        _spin_orbit(ts1s, tj, ts, ts_col),
        (ts * (ts + 2) - ts1s * (ts1s + 2) - 3) / 8 if ts == ts_col else 0.0)
        for label in SubspaceLabel for ts1s, tj, ts, ts_col in _entry_keys(label)}


@cache
def _entry_keys(label: SubspaceLabel) -> tuple[tuple[int, int, int, int], ...]:
    """The entries of H' on subspace ``label`` in its coupled basis, each as twice
    (s_1s, J, S', S): the diagonal, in column order, then the off-diagonal of
    each 2 x 2 J block."""
    ts1s, columns = _columns(label)
    return (*((ts1s, tj, ts, ts) for tj, ts in columns),
            *((ts1s, columns[i][0], columns[i][1], columns[j][1])
              for i, j in _label_basis(label)[1]))


# twice (s_1s, J, S', S) of E'_g, the J = 1/2 entry of the initial subspace, and of
# the J = 1 block of both intermediate subspaces: 1P1 and 3P1, and between them
_GROUND = (0, 1, 1, 1)
_J1_BLOCK = ((1, 2, 0, 0), (1, 2, 2, 2), (1, 2, 0, 2))


def _block_eigenpairs(p: float, r: float, b: float) -> tuple[float, float, float, float]:
    """The eigenvalues of a real symmetric 2 x 2 J block [[p, b], [b, r]], in
    column order, and the cosine and sine of its rotation, in closed form: the
    Jacobi angle theta = atan2(b sgn(p - r), |p - r|) / 2 gives
    diag(p + b tan(theta), r - b tan(theta)). b = 0 keeps the block bit for
    bit, and a subnormal b gives a subnormal angle."""
    half = 0.5 * p - 0.5 * r   # overflows no sooner than p or r
    angle = 0.5 * atan2(copysign(1.0, half) * b, abs(half))
    shift = b * tan(angle)
    return p + shift, r - shift, cos(angle), sin(angle)


def _eigensystem(label: SubspaceLabel, h: dict, block) -> EigenSystem:
    """The levels of H' on subspace ``label`` from the entries ``h`` of one
    parameter set and its solved J = 1 ``block`` (see ``_block_eigenpairs``),
    with the rotation R of the coupled columns. The other levels are entries of
    h. The pairs are sorted by energy, stably: energies equal as floats, as the
    exact entries give at zeta = 0, stay in ascending (J, S) order. A level
    beyond the float range is +/-inf, which the calculator's positions report."""
    labels, pairs = _label_basis(label)
    values = [h[key] for key in _entry_keys(label)[:len(labels)]]
    rotation = np.zeros((len(labels), len(labels)))
    rotation.flat[::len(labels) + 1] = 1.0   # the identity, without np.eye's call overhead
    for i, j in pairs:   # the one J = 1 block
        values[i], values[j], c, s = block
        rotation[i, i], rotation[i, j], rotation[j, i], rotation[j, j] = c, -s, s, c
    order = sorted(range(len(values)), key=values.__getitem__)
    return EigenSystem(_read_only(np.array([values[i] for i in order])),
                       _read_only(rotation.take(order, axis=1)),
                       tuple(labels[i] for i in order), label)


def _levels(params: ModelParams) -> tuple[float, dict[Spin, EigenSystem]]:
    """E'_g and the levels of H' on the intermediate subspace of each
    photoelectron spin, from h = zeta l.s - 2 G S_1s . S_2p evaluated once on
    every entry of ``_couplings`` and the shared J = 1 block solved once; a
    DomainError unless every entry is finite. An overflowing weight or sum
    leaves an inf or a NaN."""
    zeta, twice_g = params.zeta, 2.0 * params.G
    h = {key: zeta * spin_orbit - twice_g * exchange
         for key, (spin_orbit, exchange) in _couplings().items()}
    if not all(isfinite(x) for x in h.values()):
        raise DomainError("Hamiltonian matrix is not finite")
    block = _block_eigenpairs(*(h[key] for key in _J1_BLOCK))
    return h[_GROUND], {sigma: _eigensystem(label, h, block)
                        for sigma, label in _INTERMEDIATE.items()}
