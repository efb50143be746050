"""Independent routes the tests hold the package to, which the package does not
need: a sparse vector algebra (``ManyBodyVector``, amplitudes keyed by basis
state) and with it the package's one-body Fock matrices and ground state, and
the model operators one basis vector at a time; the Hamiltonian H' over the
basis states and with its level energy, and the initial state with E_g; the
eigendecomposition of each J block by LAPACK (``np.linalg.eigh``), the route
for any H that commutes with J^2; a full register of the 8 orbitals, two
photoelectron modes and three photon counts with one fermionic sign rule, and
through it the electron creation and annihilation operators, the
photon-emission operator for any polarization pair, the emission rows, and the
photoemission elements of any initial state; the general resonant sum over
every eigenstate of both spins, with the per-spin emission rows of all three
spherical components (the (2, 3) vectors t), the amplitudes contracted from
them, and the per-eigenstate resonance terms; the Cartesian polarization
vectors and the spherical projections of one, in closed form and by
projection, and all three components for an array of angles; the closed-form
pair state; the bits of a sweep by the stacked route, its (n, 2) spectrum
summed over the last axis by np.sum; and the Racah sum of the Clebsch-Gordan
coefficients in ``Fraction`` arithmetic, one rational per term."""

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import groupby
from math import cos, factorial, isfinite, pi, radians, sin, sqrt
from typing import NamedTuple

import numpy as np

from xepecs.amplitudes import PHOTOEMISSION_VERTEX, _EMISSION_VERTEX
from xepecs.angular import HalfInt, _triangle, _valid_pair
from xepecs.entanglement import EntangledState, _spin_invariants
from xepecs.fockspace import ORBITALS, FockState, Shell, Spin, SpinOrbital
from xepecs.model import (
    DomainError, SubspaceLabel, _ground, _label_basis, _occupation, _subspace_operators,
    ground_coupling_energy, intermediate_subspace, subspace,
)
from xepecs.polarization import alpha_components

# ---------------------------------------------------------------------------
# sparse vectors: amplitudes keyed by basis state, a FockState for the
# electrons and a tuple in the full register below
# ---------------------------------------------------------------------------

@dataclass
class ManyBodyVector:
    """A finite linear combination of basis states with complex amplitudes."""

    _terms: dict = field(default_factory=dict)

    def amplitude(self, state) -> complex:
        return self._terms.get(state, 0j)

    def terms(self):
        return self._terms.items()

    def states(self):
        return self._terms.keys()

    def __len__(self) -> int:
        return len(self._terms)

    def __add__(self, other):
        out = dict(self._terms)
        for s, a in other._terms.items():
            _accumulate(out, s, a)
        return ManyBodyVector(out)

    def __mul__(self, scalar):
        if scalar == 0:
            return ManyBodyVector()
        return ManyBodyVector({s: a * scalar for s, a in self._terms.items()})

    __rmul__ = __mul__


def _accumulate(terms, state, amp):
    new = terms.get(state, 0j) + amp
    if new == 0:
        terms.pop(state, None)
    else:
        terms[state] = new


def vacuum():
    return ManyBodyVector({FockState(): 1.0 + 0j})


def basis_vector(state):
    return ManyBodyVector({state: 1.0 + 0j})


def combine(terms):
    """sum_k c_k v_k over (c_k, v_k) pairs, accumulated into one dict."""
    out = {}
    for coeff, v in terms:
        for s, a in v.terms():
            _accumulate(out, s, a * coeff)
    return ManyBodyVector(out)


def inner(a, b) -> complex:
    """<a|b>, conjugate-linear in the first argument."""
    if len(a) > len(b):
        return complex(sum(a.amplitude(s).conjugate() * amp for s, amp in b.terms()))
    return complex(sum(amp.conjugate() * b.amplitude(s) for s, amp in a.terms()))


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


def fock_matrix(table, row, col=None):
    """sum_ab table[a, b] c^dag_a c_b from the states of ``col`` (default ``row``)
    to those of ``row`` by the vector algebra, in place of ``model._fock_matrix``."""
    hops = [(float(table[a, b]), ORBITALS[a], ORBITALS[b]) for a, b in zip(*np.nonzero(table))]
    images = [apply_terms(basis_vector(s), hops) for s in (row if col is None else col)]
    return np.array([[v.amplitude(t) for v in images] for t in row], dtype=complex)


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


def level_energy(params, state):
    """eps_s n_1s + eps_p n_2p of ``state`` and of its whole subspace, or a
    DomainError if it overflows. An empty shell's level energy plays no part."""
    level = sum(e * n for e, n in zip((params.eps_s, params.eps_p), _occupation(state)) if n)
    if not isfinite(level):
        raise DomainError("level energy is not finite")
    return level


def coupling_hamiltonian(params, sub):
    """H' = zeta l.s - 2 G S_1s . S_2p over the basis states of ``sub``, from the
    package's cached coupling matrices; a DomainError if the sum overflows."""
    spin_orbit, exchange = _subspace_operators(sub.label)
    with np.errstate(over="ignore", invalid="ignore"):   # reported below
        H = params.zeta * spin_orbit - 2.0 * params.G * exchange
    if not np.isfinite(H).all():
        raise DomainError("Hamiltonian matrix is not finite")
    return H


def build_hamiltonian(params, sub):
    """H' plus the level energy of ``sub`` on the diagonal; a DomainError if the
    level energy or H' overflows."""
    level = level_energy(params, sub.basis[0])
    return coupling_hamiltonian(params, sub) + level * np.eye(sub.dim)


def ground_state():
    """The (J, M) = (1/2, 1/2) electron ground state as a vector over the
    initial basis states, from the package's components."""
    return combine(zip(_ground(), map(basis_vector, subspace(SubspaceLabel.INITIAL).basis)))


def initial_state(params):
    """The normalized (J, M) = (1/2, 1/2) electron ground state and its energy
    E_g = 2 eps_s + eps_p + E'_g."""
    initial = subspace(SubspaceLabel.INITIAL).basis[0]
    return ground_state(), level_energy(params, initial) + ground_coupling_energy(params)


def closed_shell():
    """The closed 1s^2 shell s^dag_up s^dag_down |0>, the core of |g> and |f>."""
    return create(create(vacuum(), SpinOrbital(Shell.S1S, 0, Spin.DOWN)),
                  SpinOrbital(Shell.S1S, 0, Spin.UP))


def basis_vectors(geom):
    """(e_theta, e_phi, k_hat) as real orthonormal 3-vectors."""
    st, ct = sin(geom.theta), cos(geom.theta)
    sp, cp = sin(geom.phi), cos(geom.phi)
    e_theta = np.array([ct * cp, ct * sp, -st])
    e_phi = np.array([-sp, cp, 0.0])
    k_hat = np.array([st * cp, st * sp, ct])
    return e_theta, e_phi, k_hat


def polarization_vector(geom, i):
    """Linear polarization axis e_lambda_i = cos(beta_i) e_theta + sin(beta_i) e_phi."""
    if i not in (1, 2):
        raise ValueError("polarization index must be 1 or 2")
    b = geom.beta1 if i == 1 else geom.beta2
    e_theta, e_phi, _ = basis_vectors(geom)
    return cos(b) * e_theta + sin(b) * e_phi


def _is_angle(value, target_deg, tol=1e-9):
    diff = (value - radians(target_deg)) % (2.0 * pi)
    return min(diff, 2.0 * pi - diff) < tol


def closed_form_state(geom, C=2.0 / 9.0):
    """The analytic entangled state for beta1 = 90 deg, beta2 = 180 deg,
    (1 / (3 sqrt(C))) [sin(theta) |U2> + e^(i phi) (i |D1> - cos(theta) |D2>)];
    the default C = 2/9 makes the coefficients exactly normalized."""
    if not (_is_angle(geom.beta1, 90.0) and _is_angle(geom.beta2, 180.0)):
        raise ValueError("closed form requires beta1 = 90 deg and beta2 = 180 deg")
    phase = complex(cos(geom.phi), sin(geom.phi))
    scale = 1.0 / (3.0 * sqrt(C))
    coeffs = np.array([[0j, scale * sin(geom.theta)],
                       [scale * 1j * phase, -scale * cos(geom.theta) * phase]])
    return EntangledState(coeffs, None, geom)


def polarization_components(thetas, phi, beta1, beta2):
    """All three spherical projections of both polarization vectors for an array
    of angles: an (N, 2, 3) complex array, entry [n, i - 1, q] for q = +1, 0, -1,
    from the package's closed forms of alpha_0 and alpha_-1 and
    alpha_+1 = -conj(alpha_-1)."""
    alpha0, minus = alpha_components(np.asarray(thetas, dtype=float), phi, beta1, beta2)
    return np.stack([-minus.conj(), alpha0, minus], axis=-1)


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


def _electron_ladder(raise_op):
    """c^dag (``raise_op``) or c of an orbital on an electron vector, by ``fermion``."""
    def apply(v, orb):
        register = fermion(lift(v), orb.index, raise_op)
        return ManyBodyVector({FockState(o): a for (o, _, _), a in register.terms()})
    return apply


create, annihilate = _electron_ladder(True), _electron_ladder(False)


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


@cache
def emission_basis(label):
    """D[q, b] = <f| M_ph(alpha = e_q) |b> for q = +1, 0, -1 over the basis of
    ``label``: the emission rows of polarization 1 set to each unit vector."""
    units = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
    rows = np.vstack([emission_rows({1: unit}, subspace(label)) for unit in units])
    rows.flags.writeable = False   # built once per label
    return rows


def emission_matrices(calc):
    """(D_sigma V_sigma)[q, i]: the emission rows of the three spherical
    components over the eigenstates of each spin's eigensystem of ``calc``."""
    return {sigma: emission_basis(eig.subspace.label) @ eig.vectors
            for sigma, eig in calc.eigensystems.items()}


def spin_vectors(calc, epsilon):
    """t[sigma, q] = sum_i (D_sigma V_sigma)[q, i] pe_sigma[i] / (position_i - epsilon
    + i Gamma_1s), over every eigenstate of both spins, rows (up, down)."""
    return np.array([row @ (calc.pe_elements[sigma] / (
        calc.line_positions[sigma] - epsilon + 1j * calc.params.Gamma_1s))
        for sigma, row in emission_matrices(calc).items()])


def amplitude_array(calc, thetas, geom, epsilon):
    """A[n, sigma, lambda] = sum_q alpha_(lambda q)(theta_n) t[sigma, q]."""
    alphas = polarization_components(thetas, geom.phi, geom.beta1, geom.beta2)
    return np.einsum("nlq,sq->nsl", alphas, spin_vectors(calc, epsilon))


def reduced_spin_matrices(amps):
    """c c^dag of the normalized states of an (N, 2, 2) amplitude stack."""
    coeffs = amps / np.sqrt(np.sum(np.abs(amps) ** 2, axis=(-2, -1)))[:, None, None]
    return coeffs @ coeffs.conj().swapaxes(-1, -2)


def stacked_entropy_bits(eigenvalues):
    """-sum p log2 p over the last axis of checked density eigenvalues by np.sum,
    after the clip to [0, 1] and with jitter below 1e-12 set to 0, subtracted from 0.0."""
    clipped = np.clip(eigenvalues, 0.0, 1.0)
    clipped[np.abs(clipped) < 1e-12] = 0.0
    logs = np.log2(clipped, out=np.zeros_like(clipped), where=clipped > 0.0)
    return 0.0 - np.sum(clipped * logs, axis=-1)


def stacked_sweep_entropy(thetas_deg, geom):
    """The bits of a sweep from the (n, 2) stack of its closed-form spectrum
    (lambda_-, lambda_+), from the invariants of ``entanglement._spin_invariants``."""
    a, d, b, det = _spin_invariants(np.radians(np.asarray(thetas_deg, dtype=float)), geom)
    upper = 0.5 * (a + d) + np.hypot(0.5 * (a - d), b)
    lower = np.minimum(det * det / upper, upper)
    return stacked_entropy_bits(np.stack([lower, upper], axis=-1))


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
        b = geom.beta1 if i == 1 else geom.beta2
        closed0 = complex(-cos(b) * sin(geom.theta))
        closed1 = complex(np.sqrt(0.5) * (cos(b) * cos(geom.theta) + 1j * sin(b)) * phase)
        _, proj0, proj1 = spherical_components(polarization_vector(geom, i))
        if abs(closed0 - proj0) > 1e-12 or abs(closed1 - proj1) > 1e-12:
            raise RuntimeError("polarization coefficient cross-check failed")
        pairs.append((closed0, closed1))
    return PolarizationCoeffs(*zip(*pairs))


# ---------------------------------------------------------------------------
# Clebsch-Gordan coefficients in Fraction arithmetic
# ---------------------------------------------------------------------------

def cg_exact_fraction(j1, m1, j2, m2, j, m):
    """(sign, square) of <j1 m1 j2 m2|j m> as ``angular.cg_exact`` defines them,
    with the Racah sum added one ``Fraction`` term at a time."""
    tj1, tm1 = HalfInt.of(j1).twice_value, HalfInt.of(m1).twice_value
    tj2, tm2 = HalfInt.of(j2).twice_value, HalfInt.of(m2).twice_value
    tj, tm = HalfInt.of(j).twice_value, HalfInt.of(m).twice_value

    zero = (0, Fraction(0))
    if not (_valid_pair(tj1, tm1) and _valid_pair(tj2, tm2) and _valid_pair(tj, tm)):
        return zero
    if tm1 + tm2 != tm or not _triangle(tj1, tj2, tj):
        return zero

    a = (tj1 + tj2 - tj) // 2
    b = (tj1 - tj2 + tj) // 2
    c = (-tj1 + tj2 + tj) // 2
    d = (tj1 + tj2 + tj) // 2 + 1
    prefactor = Fraction(
        (tj + 1)
        * factorial(a) * factorial(b) * factorial(c)
        * factorial((tj + tm) // 2) * factorial((tj - tm) // 2)
        * factorial((tj1 - tm1) // 2) * factorial((tj1 + tm1) // 2)
        * factorial((tj2 - tm2) // 2) * factorial((tj2 + tm2) // 2),
        factorial(d),
    )

    p1, p2, p3 = (tj1 + tj2 - tj) // 2, (tj1 - tm1) // 2, (tj2 + tm2) // 2
    q1, q2 = (tj - tj2 + tm1) // 2, (tj - tj1 - tm2) // 2
    total = Fraction(0)
    for k in range(max(0, -q1, -q2), min(p1, p2, p3) + 1):
        total += Fraction((-1) ** k, factorial(k) * factorial(p1 - k) * factorial(p2 - k)
                          * factorial(p3 - k) * factorial(q1 + k) * factorial(q2 + k))

    if total == 0:
        return zero
    return (1 if total > 0 else -1), prefactor * total * total
