"""Independent routes the tests hold the package to: the model operators
applied one basis vector at a time; the eigendecomposition of each J block by
LAPACK (``np.linalg.eigh``); a full register of the 8 orbitals, two
photoelectron modes and three photon counts, and through it the
photon-emission operator for any polarization pair, the emission rows, and the
photoemission elements of any initial state; the per-eigenstate resonance
terms; and the spherical projections of one polarization vector, in closed
form and by projection."""

from itertools import groupby
from math import cos, sin, sqrt
from typing import NamedTuple

import numpy as np

from xepecs.amplitudes import PHOTOEMISSION_VERTEX, _EMISSION_VERTEX
from xepecs.fockspace import (
    ORBITALS, ManyBodyVector, Shell, Spin, SpinOrbital, _accumulate, annihilate, basis_vector,
    combine, create, inner,
)
from xepecs.model import (
    SubspaceLabel, _label_basis, closed_shell, intermediate_subspace, subspace,
)
from xepecs.polarization import polarization_vector

# ---------------------------------------------------------------------------
# model operators, one basis vector at a time: sums of one-body hops
# c^dag(dst) c(src) and diagonals sum_o w_o n_o with one weight per orbital
# ---------------------------------------------------------------------------

BOTH_SHELLS = (Shell.S1S, Shell.P2P)
SZ = tuple(0.5 * o.spin.twice_sz for o in ORBITALS)
SZ_SHELL = {shell: tuple(w if o.shell is shell else 0.0 for o, w in zip(ORBITALS, SZ))
            for shell in Shell}
JZ = tuple(o.m + w for o, w in zip(ORBITALS, SZ))
LZSZ = tuple(o.m * w for o, w in zip(ORBITALS, SZ))
N_SHELL = {shell: tuple(1.0 if o.shell is shell else 0.0 for o in ORBITALS) for shell in Shell}


def apply_diagonal(v, weights):
    """sum_o weights[o] n_o applied to v, one weight per canonical orbital."""
    out = {}
    for s, a in v.terms():
        w = sum(weights[i] for i in range(8) if s.orbitals >> i & 1)
        if w != 0.0:
            out[s] = a * w
    return ManyBodyVector(out)


def apply_terms(v, hops):
    """Sum of one-body terms coeff * c^dag(dst) c(src) applied to v."""
    return combine((coeff, create(annihilate(v, src), dst)) for coeff, dst, src in hops)


def p_ladder_hops(direction, spin_flip=None):
    """Hops for l+/l- (direction +1/-1) on 2p, optionally with a spin flip
    (src, dst); the l = 1 ladder element is sqrt(2) for every step."""
    spins = tuple((s, s) for s in Spin) if spin_flip is None else (spin_flip,)
    return tuple((sqrt(2.0), SpinOrbital(Shell.P2P, m + direction, dst),
                  SpinOrbital(Shell.P2P, m, src))
                 for m in (-1, 0, 1) if m + direction in (-1, 0, 1)
                 for src, dst in spins)


def spin_ladder_hops(shells, raise_spin):
    """S+ (or S-) summed over the given shells."""
    src_spin, dst_spin = (Spin.DOWN, Spin.UP) if raise_spin else (Spin.UP, Spin.DOWN)
    return tuple((1.0, SpinOrbital(o.shell, o.m, dst_spin), o)
                 for o in ORBITALS if o.shell in shells and o.spin is src_spin)


def apply_spin_orbit(v):
    """l.s of the 2p electron: l_z s_z + (l+ s- + l- s+)/2."""
    up_flip = apply_terms(v, p_ladder_hops(+1, (Spin.UP, Spin.DOWN)))
    dn_flip = apply_terms(v, p_ladder_hops(-1, (Spin.DOWN, Spin.UP)))
    return apply_diagonal(v, LZSZ) + 0.5 * up_flip + 0.5 * dn_flip


def apply_exchange(v):
    """S_1s . S_2p = Sz Sz + (S+_1s S-_2p + S-_1s S+_2p)/2."""
    zz = apply_diagonal(apply_diagonal(v, SZ_SHELL[Shell.P2P]), SZ_SHELL[Shell.S1S])
    s_up_p_dn = apply_terms(apply_terms(v, spin_ladder_hops((Shell.P2P,), False)),
                            spin_ladder_hops((Shell.S1S,), True))
    s_dn_p_up = apply_terms(apply_terms(v, spin_ladder_hops((Shell.P2P,), True)),
                            spin_ladder_hops((Shell.S1S,), False))
    return zz + 0.5 * s_up_p_dn + 0.5 * s_dn_p_up


def apply_casimir(v, raising, lowering, z_weights):
    """X^2 = X- X+ + Xz^2 + Xz of an angular momentum X from its ladder hops and Xz."""
    z = apply_diagonal(v, z_weights)
    return apply_terms(apply_terms(v, raising), lowering) + apply_diagonal(z, z_weights) + z


def operator_matrix(sub, apply):
    """<b| apply(b') |> over the basis of ``sub``."""
    images = [apply(basis_vector(b)) for b in sub.basis]   # one per column
    return np.array([[img.amplitude(b) for img in images] for b in sub.basis], dtype=complex)


def model_operators(sub):
    """l.s, S_1s . S_2p, J^2, S^2 and J_z on ``sub``; the first two are the
    pair of ``xepecs.model._subspace_operators``."""
    j_plus = p_ladder_hops(+1) + spin_ladder_hops(BOTH_SHELLS, True)
    j_minus = p_ladder_hops(-1) + spin_ladder_hops(BOTH_SHELLS, False)
    s_plus, s_minus = (spin_ladder_hops(BOTH_SHELLS, r) for r in (True, False))
    return tuple(operator_matrix(sub, apply) for apply in (
        apply_spin_orbit, apply_exchange,
        lambda v: apply_casimir(v, j_plus, j_minus, JZ),
        lambda v: apply_casimir(v, s_plus, s_minus, SZ),
        lambda v: apply_diagonal(v, JZ)))


def block_eigh(H, sub):
    """The per-block eigh route: ``np.linalg.eigh`` of each J block of H in the
    (J, S) basis U of ``sub``, the pairs sorted stably by energy. Returns the
    energies, the eigenvectors over the basis states and their J labels."""
    u, labels, _ = _label_basis(sub.label)
    h = u.conj().T @ np.asarray(H, dtype=complex) @ u
    starts = [next(group)[0] for _, group in groupby(enumerate(labels), key=lambda x: x[1])]
    blocks = [slice(a, b) for a, b in zip(starts, starts[1:] + [len(labels)])]
    pairs = [np.linalg.eigh(h[b, b]) for b in blocks]
    w = np.concatenate([values for values, _ in pairs])
    v = np.hstack([u[:, b] @ rotation for b, (_, rotation) in zip(blocks, pairs)])
    order = np.argsort(w, kind="stable")
    return w[order], v[:, order], tuple(labels[i] for i in order)


def spherical_components(v):
    """Projections v . conj(e_q) (q = +1, 0, -1) of a 3-vector on the spherical
    basis e_0 = z, e_(+/-1) = -/+(x +/- iy)/sqrt(2)."""
    vx, vy, vz = (complex(c) for c in v)
    return -(vx - 1j * vy) / np.sqrt(2.0), vz, (vx + 1j * vy) / np.sqrt(2.0)


# ---------------------------------------------------------------------------
# the full register: a ManyBodyVector keyed by (orbitals, photoelectrons,
# photons), an 8-bit orbital mask, a 2-bit photoelectron mask (bit 0 up, bit 1
# down) and the photon counts (incident, emitted lambda 1, emitted lambda 2)
# ---------------------------------------------------------------------------

PE_MODE = {Spin.UP: 8, Spin.DOWN: 9}   # the photoelectron modes follow the 8 orbitals
INCIDENT = 0   # the photon count slot of the incident beam; slot lambda holds polarization lambda


def lift(v, photons=(0, 0, 0)):
    """The electron vector v in the register, with no photoelectron and ``photons``."""
    return ManyBodyVector({(s.orbitals, 0, photons): a for s, a in v.terms()})


def fermion(v, mode, raise_op):
    """c^dag (raise_op) or c of fermionic mode ``mode``: 0-7 the orbitals, 8 and
    9 the up and down photoelectron. The sign counts the occupied modes below
    ``mode`` across both masks."""
    bit = 1 << mode
    out = {}
    for (orbitals, photoelectrons, photons), a in v.terms():
        occ = orbitals | photoelectrons << 8
        if bool(occ & bit) is raise_op:
            continue  # Pauli exclusion, or nothing to remove
        if (occ & (bit - 1)).bit_count() % 2:
            a = -a
        occ ^= bit
        _accumulate(out, (occ & 0xFF, occ >> 8, photons), a)
    return ManyBodyVector(out)


def photon(v, slot, delta):
    """b^dag (delta = +1) or b (delta = -1) of photon count ``slot``, with the
    factor sqrt(n + 1) or sqrt(n)."""
    out = {}
    for (orbitals, photoelectrons, photons), a in v.terms():
        counts = list(photons)
        n = counts[slot]
        if n + delta < 0:
            continue
        counts[slot] = n + delta
        _accumulate(out, (orbitals, photoelectrons, tuple(counts)), a * max(n, n + delta) ** 0.5)
    return ManyBodyVector(out)


def final_state(sigma, lam):
    """|f_(sigma lambda)>: closed 1s shell + photoelectron + emitted photon."""
    return photon(fermion(lift(closed_shell()), PE_MODE[sigma], True), lam, +1)


def photoemission_components(g, sigma, sub):
    """<b| c^dag_(eps sigma) s_sigma a |g> over the basis states b of ``sub``,
    with the electron state g and one incident photon."""
    w = photon(lift(g, (1, 0, 0)), INCIDENT, -1)
    w = fermion(w, SpinOrbital(Shell.S1S, 0, sigma).index, False)
    w = PHOTOEMISSION_VERTEX * fermion(w, PE_MODE[sigma], True)
    return np.array([inner(fermion(lift(basis_vector(b)), PE_MODE[sigma], True), w)
                     for b in sub.basis])


def photoemission_elements(g, eig, sigma):
    """<i_sigma| c^dag_(eps sigma) s_sigma a |g> for every eigenstate i of ``eig``,
    which must be the intermediate eigensystem matching the photoelectron spin."""
    if eig.subspace != intermediate_subspace(sigma):
        raise ValueError(f"eigensystem over {eig.subspace.label.value} does not match "
                         f"photoelectron spin {sigma}")
    return eig.vectors.conj().T @ photoemission_components(g, sigma, eig.subspace)


def _apply_mph(v, alphas):
    """The 2p -> 1s photon-emission operator; alphas[lam] holds the spherical
    projections (q = +1, 0, -1) of polarization vector lam, and each term is
    _EMISSION_VERTEX[m] * alpha_(-m) * b^dag_lam s^dag_sigma p_(m sigma)."""
    terms = []
    for lam, alpha in alphas.items():
        for m, vertex in _EMISSION_VERTEX.items():
            d = vertex * alpha[1 + m]
            if d == 0:
                continue
            for sigma in (Spin.UP, Spin.DOWN):
                w = fermion(fermion(v, SpinOrbital(Shell.P2P, m, sigma).index, False),
                            SpinOrbital(Shell.S1S, 0, sigma).index, True)
                terms.append((d, photon(w, lam, +1)))
    return combine(terms)


def emission_rows(alphas, sub):
    """<f_(sigma lambda)| M_ph |basis state> for each polarization lambda of
    ``alphas`` (rows, in its order) over the basis of ``sub`` (columns)."""
    sigma = Spin.UP if sub.label is SubspaceLabel.M0 else Spin.DOWN
    block = np.zeros((len(alphas), sub.dim), dtype=complex)
    for col, b in enumerate(sub.basis):
        image = _apply_mph(fermion(lift(basis_vector(b)), PE_MODE[sigma], True), alphas)
        for row, lam in enumerate(alphas):
            block[row, col] = inner(final_state(sigma, lam), image)
    return block


def dipole_block(geom, sub):
    """The emission rows of both polarizations of ``geom``, lambda = 1, 2."""
    return emission_rows({i: spherical_components(polarization_vector(geom, i)) for i in (1, 2)},
                         sub)


def emission_basis(label):
    """D[q, b] = <f| M_ph(alpha = e_q) |b> for q = +1, 0, -1 over the basis of
    ``label``: the emission rows of polarization 1 set to each unit vector."""
    units = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
    return np.vstack([emission_rows({1: unit}, subspace(label)) for unit in units])


class DipoleBlock(NamedTuple):
    """Both spin blocks of the emission matrix for one geometry."""

    up_block: np.ndarray    # 2 x 4, over the M = 0 basis
    down_block: np.ndarray  # 2 x 3, over the M = 1 basis

    @classmethod
    def from_geometry(cls, geom):
        return cls(*(dipole_block(geom, intermediate_subspace(s)) for s in Spin))


def per_eigenstate_terms(calc, geom, epsilon, sigma):
    """The resonance terms (lambda, i) of ``calc`` before the sum over eigenstates i."""
    eig = calc.eigensystems[sigma]
    emission = dipole_block(geom, eig.subspace) @ eig.vectors
    resonance = calc.line_positions[sigma] - epsilon + 1j * calc.params.Gamma_1s
    return emission * calc.pe_elements[sigma] / resonance


class PolarizationCoeffs(NamedTuple):
    """alpha_0 and alpha_-1 of the two polarizations of a geometry."""

    alpha0: tuple[complex, complex]
    alpha_m1: tuple[complex, complex]


def alpha_coeffs(geom):
    """The closed forms alpha_0 = -cos(beta) sin(theta) and
    alpha_-1 = sqrt(1/2) (cos(beta) cos(theta) + i sin(beta)) e^(i phi),
    each checked against the projection of the polarization vector to 1e-12."""
    phase = complex(cos(geom.phi), sin(geom.phi))
    pairs = []
    for i in (1, 2):
        beta = geom.beta(i)
        closed0 = complex(-cos(beta) * sin(geom.theta))
        closed1 = complex(np.sqrt(0.5) * (cos(beta) * cos(geom.theta) + 1j * sin(beta)) * phase)
        _, proj0, proj1 = spherical_components(polarization_vector(geom, i))
        if abs(closed0 - proj0) > 1e-12 or abs(closed1 - proj1) > 1e-12:
            raise RuntimeError("polarization coefficient cross-check failed")
        pairs.append((closed0, closed1))
    return PolarizationCoeffs(*zip(*pairs))
