"""Photoemission and radiative-decay matrix elements, and the coincidence
amplitudes A(sigma, lambda; epsilon) of the second-order process.

The incident photon ejects a 1s electron of spin sigma, the core-excited
intermediate states i propagate with a resonant denominator, and the 2p -> 1s
decay emits a photon of polarization lambda:

    A(sigma, lambda) = sum_i  <f_(sigma lambda)| M_ph |i_sigma>
                              * <i_sigma| c^dag_(eps sigma) s_sigma a |g>
                              / (Omega + eps_s + E'_g - E'_i - epsilon + i Gamma_1s)

E' are eigenvalues of the couplings H' of ``model``; the level energies enter
only as eps_s, for the removed 1s electron (here and in the photoemission
lines Omega + eps_s + E'_g - E'_i), and as eps_p in the emission line
omega_0 = Omega + eps_p + E'_g - epsilon. The calculator writes these once.

Only the electrons are second-quantized; the photons and the photoelectron
label the channel. Each gives every bracket a factor 1: a photon count goes
1 -> 0 or 0 -> 1 (sqrt(1)), and the photoelectron, above the 8 orbitals, gives
bra and ket of equal electron count the same fermionic sign. So the
photoemission components are the vertex times <b| s_sigma |g>, and the decay
is the one-body operator sum_(m, s) d_m s^dag_s p_(m s), whose Fock matrix
from the s^1 p^1 states to the closed 1s^2 shell comes from the builder of the
``model`` operators. Both are built once per process. With the radial dipole
integral 1 and the photoemission vertex 1/sqrt(2), both spins remove unit 1s
strength (only ratios are observable).

M_ph is linear in the spherical components alpha_q of the emitted
polarization (d_m multiplies alpha_(-m)). The ground state has J = M = 1/2,
the closed shell J = 0, and H' is rotation-invariant, so by the Wigner-Eckart
theorem every amplitude is one reduced amplitude R(epsilon) times a
Clebsch-Gordan factor: A(down, lambda) = R alpha_(lambda, -1) and
A(up, lambda) = KAPPA R alpha_(lambda, 0), with KAPPA =
-<1/2 1/2; 1 0|1/2 1/2> / <1/2 -1/2; 1 1|1/2 1/2> = 1/sqrt(2). Only J = 1
levels feed R (J = 0 and J = 2 do not decay to J = 0, and J = 2 is dark in
photoemission), so R(epsilon) = sum_k p_k / (x_k - epsilon + i Gamma_1s) over
the J = 1 down-spin line positions x_k, p_k the product of the photoemission
and q = -1 decay elements of level k. Its selection-rule zeros are exact, not
roundoff that a narrow core hole could amplify.

A calculator keeps its last R (per epsilon) and its last ``AmplitudeSet`` (per
theta, phi, beta1, beta2 and epsilon), keyed by the bits of the floats, so the
four channels, the state and a sweep of one measurement share them; a third
slot keeps the emission grid and the (4, n) coincidence intensities of
``spectra.xepecs_spectrum`` for its last amplitude set and grid. A slot is
one tuple of read-only results, read once and replaced whole, so threads that
share a calculator never pair a key with another key's result.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cache, lru_cache
from math import inf, isfinite, pi, sqrt

import numpy as np

from .angular import HalfInt, _triangle, cg
from .fockspace import FockState, Shell, Spin, SpinOrbital, ladder
from .model import (
    DomainError,
    ModelParams,
    SubspaceLabel,
    _fock_matrix,
    _ground,
    _read_only,
    ground_coupling_energy,
    intermediate_eigensystem,
    intermediate_subspace,
    subspace,
)
from .polarization import EmissionGeometry, alpha_components

__all__ = [
    "CHANNELS",
    "CHANNEL_INDEX",
    "channel_label",
    "AmplitudeSet",
    "xepecs_amplitudes",
    "AmplitudeCalculator",
    "calculator",
]

# (photoelectron spin, emitted polarization) channels in fixed order, and the
# index [sigma, lambda - 1] of each in a (2, 2) array whose ravel() is that order
CHANNELS: tuple[tuple[Spin, int], ...] = (
    (Spin.UP, 1), (Spin.UP, 2), (Spin.DOWN, 1), (Spin.DOWN, 2),
)
CHANNEL_INDEX = {channel: divmod(k, 2) for k, channel in enumerate(CHANNELS)}

# Total 1s photoemission strength over both spin channels normalized to 1.
PHOTOEMISSION_VERTEX = 1.0 / sqrt(2.0)

# Angular factor of <1s| r_q |2p_m>, radial integral set to 1, from the CG
# layer: d_m = -<1 m; 1 -m|0 0> = (-1)^m / sqrt(3) multiplies alpha_(-m).
_EMISSION_VERTEX = {m: -cg(1, m, 1, -m, 0, 0) for m in (1, 0, -1)}

# A(up, lambda) / alpha_(lambda, 0) over A(down, lambda) / alpha_(lambda, -1)
KAPPA = -cg(0.5, 0.5, 1, 0, 0.5, 0.5) / cg(0.5, -0.5, 1, 1, 0.5, 0.5)

# parameter sets whose calculators are kept by ``calculator``
_CALCULATOR_CACHE_SIZE = 8


def _check_width(width: float) -> None:
    """ValueError unless the HWHM ``width`` is > 0 and its square is finite and > 0."""
    if not width > 0.0:
        raise ValueError("width must be > 0")
    if not width * width < inf:
        raise DomainError(f"a Lorentzian width of {width:g} eV overflows its square")
    if not width * width > 0.0:
        raise DomainError(f"a Lorentzian width of {width:g} eV underflows its square")


def channel_label(channel: tuple[Spin, int]) -> str:
    """Short tag like 'U2' for a (spin, polarization) channel."""
    sigma, lam = channel
    return f"{'U' if sigma is Spin.UP else 'D'}{lam}"


@cache
def _ground_components(sigma: Spin) -> np.ndarray:
    """<b| c^dag_(eps sigma) s_sigma a |g> = vertex * <b| s_sigma |g> of the
    ground state g over the intermediate basis states b (read-only), built once:
    the ladder rule removes s_sigma from each initial basis state."""
    basis = intermediate_subspace(sigma).basis
    out = np.zeros(len(basis), dtype=complex)
    for state, c in zip(subspace(SubspaceLabel.INITIAL).basis, _ground()):
        removed = ladder(state.orbitals, SpinOrbital(Shell.S1S, 0, sigma).index, False)
        if removed:
            out[basis.index(FockState(removed[1]))] += PHOTOEMISSION_VERTEX * removed[0] * c
    return _read_only(out)


@cache
def _decay_row() -> np.ndarray:
    """<f| sum_s d_1 s^dag_s p_(1 s) |b>, the q = -1 decay to the closed shell, over
    the down-spin (M = 1) intermediate basis states b: read-only, built once."""
    table, closed = np.zeros((8, 8)), 0
    for s in Spin:
        core = SpinOrbital(Shell.S1S, 0, s).index
        table[core, SpinOrbital(Shell.P2P, 1, s).index] = _EMISSION_VERTEX[1]
        closed |= 1 << core
    col = {b: k for k, b in enumerate(subspace(SubspaceLabel.M1).basis)}
    return _read_only(_fock_matrix((table,), {FockState(closed): 0}, col)[0])


@dataclass(frozen=True, eq=False)   # array fields: == is identity
class AmplitudeSet:
    """The four coincidence amplitudes at one photoelectron kinetic energy: the
    (2, 2) complex array values[sigma, lambda - 1], stored as given, made read-only."""

    epsilon: float
    values: np.ndarray
    geometry: EmissionGeometry
    params: ModelParams | None = None   # the model, where the calculator made the set

    def __post_init__(self):
        self.values.flags.writeable = False

    def __getitem__(self, channel: tuple[Spin, int]) -> complex:
        return complex(self.values[CHANNEL_INDEX[channel]])

    def vector(self) -> np.ndarray:
        """Amplitudes in (U1, U2, D1, D2) order."""
        return self.values.ravel()


class AmplitudeCalculator:
    """Everything the amplitudes need that depends only on the model parameters.

    The ground coupling E'_g, the intermediate eigensystems, the
    photoemission line positions and elements, and the J = 1 down-spin
    positions and products of R(epsilon) are computed once, read-only, with
    no Fock-space operator (their work is cached per process). Per kinetic
    energy ``reduced_amplitude`` sums R; per geometry the amplitudes are R
    times the alpha closed forms, for one angle or an array of them. The last
    R and the last ``amplitudes`` are kept in one-tuple slots (see the module
    docstring); inputs are checked before a slot is read. A model that leaves
    the domain raises ``DomainError`` naming the parameter set.
    """

    def __init__(self, params: ModelParams):
        self.params = params
        try:
            self.ground_coupling = ground_coupling_energy(params)   # E'_g
            self.eigensystems = {sigma: intermediate_eigensystem(params, sigma) for sigma in Spin}
            for width in (params.Gamma_1s, params.gamma):   # HWHMs, squared in spectra
                _check_width(width)
            # an overflow leaves an inf, and inf - inf a NaN, reported below
            with np.errstate(over="ignore", invalid="ignore"):
                self.line_positions = {
                    sigma: _read_only(params.Omega + params.eps_s
                                      + (self.ground_coupling - eig.coupling_energies))
                    for sigma, eig in self.eigensystems.items()}
            if not all(np.isfinite(x).all() for x in self.line_positions.values()):
                raise DomainError("photoemission line positions are not finite")
        except DomainError as exc:
            raise DomainError(f"{params!r}: {exc}") from exc
        # exactly 0 where J, the removed s = 1/2 and the ground J = 1/2 break the triangle rule
        self.pe_elements = {
            sigma: _read_only(np.where([_triangle(j.twice_value, 1, 1) for j in eig.j_labels],
                                       eig.vectors.conj().T @ _ground_components(sigma), 0.0))
            for sigma, eig in self.eigensystems.items()
        }
        down = self.eigensystems[Spin.DOWN]
        j1 = np.array([j == HalfInt.of(1) for j in down.j_labels])
        self.j1_positions = _read_only(self.line_positions[Spin.DOWN][j1])
        self.j1_products = _read_only(
            (_decay_row() @ down.vectors * self.pe_elements[Spin.DOWN])[j1])
        self._sum_slot = self._amplitude_slot = (None, None)   # (key, result)
        self._block_slot = (None, False, None, None)   # written by spectra.xepecs_spectrum

    def emission_line(self, epsilon: float) -> float:
        """omega_0 = Omega + eps_p + E'_g - epsilon, the emitted-photon energy."""
        return self.params.Omega + self.params.eps_p + self.ground_coupling - epsilon

    def _resonant_sum(self, epsilon: float) -> complex:
        """R(epsilon); a DomainError naming the inputs if |R|^2 is not finite."""
        with np.errstate(over="ignore"):   # a denominator beyond the float range adds 0
            r = complex(np.sum(self.j1_products / (
                self.j1_positions - epsilon + 1j * self.params.Gamma_1s)))
        if not r.real * r.real + r.imag * r.imag < inf:   # float products overflow to inf
            raise DomainError(f"{self.params!r}, epsilon={epsilon!r}: "
                              "squared coincidence amplitudes are not finite")
        return r

    def reduced_amplitude(self, epsilon: float) -> complex:
        """R(epsilon); a DomainError (a ValueError) if ``epsilon`` or |R|^2 is not finite."""
        if not isfinite(epsilon):
            raise DomainError(f"epsilon must be finite, got {epsilon!r}")
        key, slot = struct.pack("d", epsilon), self._sum_slot   # bits: 0.0 and -0.0 differ
        if slot[0] != key:
            slot = self._sum_slot = (key, self._resonant_sum(epsilon))
        return slot[1]

    def amplitude_array(self, thetas: np.ndarray, geom: EmissionGeometry, epsilon: float
                        ) -> np.ndarray:
        """A[n, sigma, lambda] at the polar angles thetas (radians): R(epsilon) times
        KAPPA alpha_(lambda, 0) for sigma = up and alpha_(lambda, -1) for down.

        phi, beta1 and beta2 are taken from ``geom``; sigma runs (up, down)
        and lambda (1, 2), so ``A[n].ravel()`` is in CHANNELS order. A theta
        that is NaN or outside [0, pi] raises ValueError.
        """
        alpha0, alpha_m1 = alpha_components(thetas, geom.phi, geom.beta1, geom.beta2)
        return self.reduced_amplitude(epsilon) * np.stack([KAPPA * alpha0, alpha_m1], axis=1)

    def amplitudes(self, geom: EmissionGeometry, epsilon: float) -> AmplitudeSet:
        """The four amplitudes at one geometry, kept for a repeat of (geometry, epsilon)."""
        checked = 0.0 <= geom.theta <= pi and isfinite(epsilon)   # before the lookup
        key = struct.pack("5d", geom.theta, geom.phi, geom.beta1, geom.beta2, epsilon)
        slot = self._amplitude_slot
        if not checked or slot[0] != key:   # a bad theta or epsilon raises in amplitude_array
            values = self.amplitude_array(np.array([geom.theta]), geom, epsilon)[0]
            slot = self._amplitude_slot = (key, AmplitudeSet(epsilon, values, geom, self.params))
        return slot[1]


@lru_cache(maxsize=_CALCULATOR_CACHE_SIZE)
def calculator(params: ModelParams) -> AmplitudeCalculator:
    """The shared calculator for a parameter set, built on first request."""
    return AmplitudeCalculator(params)


def xepecs_amplitudes(params: ModelParams, geom: EmissionGeometry, epsilon: float
                      ) -> AmplitudeSet:
    """The four A(sigma, lambda) at the given kinetic energy and geometry."""
    return calculator(params).amplitudes(geom, epsilon)
