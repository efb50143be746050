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
photoemission elements are the vertex times <i| s_sigma |g>, and the decay
is the one-body operator sum_(m, s) d_m s^dag_s p_(m s) to the closed 1s^2
shell. The electrons' ladder signs follow the canonical orbital order (1s up,
1s down, then 2p m = -1, 0, 1, up before down for each m): creating or
removing an electron gives (-1)^(number of occupied orbitals before it). Both
are written once per process in the coupled (J, S) basis of
``model``, by a Clebsch-Gordan coefficient and a recoupling 6j symbol from
``angular``, each as sign * sqrt(exact square); per parameter set they are the
rotation of the levels applied to these vectors. With the radial dipole
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

A calculator keeps one slot of its own, its last ``AmplitudeSet`` (per theta,
phi, beta1, beta2 and epsilon), keyed by the bits of the floats, so the four
channels and the state of one measurement share it; R costs a two-term sum
and is formed again on each miss. A second slot keeps the checked emission
grid and (4, n) coincidence block, whose rows ``spectra.xepecs_spectrum``
writes and returns, for its last amplitude set and grid. Each slot is one
read-only tuple, read once and replaced whole, so threads sharing a
calculator never pair a key with another key's result.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache
from math import inf, isfinite, ulp

import numpy as np

from .angular import HalfInt, _phase, _root, cg, cg_exact, sixj_exact
from .fockspace import Spin
from .model import (DomainError, ModelParams, SubspaceLabel, _columns, _INTERMEDIATE, _levels,
                    _read_only)
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


def _channel_index(channel: tuple[Spin, int]) -> tuple[int, int]:
    """CHANNEL_INDEX[channel]; a ValueError naming a channel outside CHANNELS."""
    try:
        return CHANNEL_INDEX[channel]
    except (KeyError, TypeError):   # TypeError: an unhashable channel
        raise ValueError(f"channel must be one of CHANNELS, got {channel!r}") from None


# Total 1s photoemission strength over both spin channels normalized to 1: the
# photoemission vertex squared, the strength of each of the two 1s electrons.
_VERTEX_SQUARE = Fraction(1, 2)

# A(up, lambda) / alpha_(lambda, 0) over A(down, lambda) / alpha_(lambda, -1)
KAPPA = -cg(0.5, 0.5, 1, 0, 0.5, 0.5) / cg(0.5, -0.5, 1, 1, 0.5, 0.5)

_SPINS = tuple(Spin)

# parameter sets whose calculators are kept by ``calculator``
_CALCULATOR_CACHE_SIZE = 8
_GRID_STEP, _EMISSION_HALF_WIDTH = 0.005, 3.0   # eV: the spectrum grids' step, emission window


def _unresolved(energies) -> float | None:
    """The first of ``energies`` beyond the grids' resolution (see ``spectra``), or None."""
    return next((e for e in energies if not ulp(abs(e) + _EMISSION_HALF_WIDTH) < _GRID_STEP), None)


def _check_width(width: float) -> None:
    """ValueError unless the HWHM ``width`` is > 0 and its square is finite and > 0."""
    if not width > 0.0:
        raise ValueError("width must be > 0")
    if not width * width < inf:
        raise DomainError(f"a Lorentzian width of {width:g} eV overflows its square")
    if not width * width > 0.0:
        raise DomainError(f"a Lorentzian width of {width:g} eV underflows its square")


def _check_array(name: str, value) -> None:
    """TypeError naming the type of ``value`` unless it is a numpy array."""
    if not isinstance(value, np.ndarray):
        raise TypeError(f"{name} must be a numpy array, got {type(value).__name__}")


def channel_label(channel: tuple[Spin, int]) -> str:
    """Short tag like 'U2' for a (spin, polarization) channel."""
    sigma, lam = channel
    return f"{'U' if sigma is Spin.UP else 'D'}{lam}"


@cache
def _photoemission_vector(sigma: Spin) -> np.ndarray:
    """<(l, (s_1s s_2p) S) J M| c^dag_(eps sigma) s_sigma a |g> over the (J, S)
    columns of the intermediate subspace of ``sigma`` (read-only), built once:
    s_sigma leaves m_1s = -sigma beside g's (l s_2p) j = m = 1/2, with the
    ladder sign (see the module docstring) -1 for down, past the 1s up
    electron. The element is the vertex, that sign, <j m; s_1s m_1s| J M> and
    the recoupling (Edmonds 6.1.5, with (s_2p s_1s) S turned into (s_1s s_2p) S)
    (-1)^(2 s_1s + 2 s_2p - S + l + J) sqrt((2j + 1)(2S + 1)) {l s_2p j; s_1s J S};
    J = 2 is dark, exactly."""
    tm1s, ladder_sign = -sigma.twice_sz, 1 if sigma is Spin.UP else -1
    return _read_only(np.array([_root(   # the phase: twice (2 s_1s + 2 s_2p - S + l + J)
        (ladder_sign * _phase(2 + 2 - ts + 2 + tj), _VERTEX_SQUARE * 2 * (ts + 1)),
        cg_exact(0.5, 0.5, 0.5, HalfInt(tm1s), HalfInt(tj), HalfInt(1 + tm1s)),
        sixj_exact(1, 0.5, 0.5, 0.5, HalfInt(tj), HalfInt(ts)))
        for tj, ts in _columns(_INTERMEDIATE[sigma])[1]]))


@cache
def _decay_vector() -> np.ndarray:
    """<f| sum_s d_1 s^dag_s p_(1 s) |(l, (s_1s s_2p) S) J 1>, the q = -1 decay to
    the closed shell, over the (J, S) columns of the down-spin (M = 1) subspace
    (read-only), built once. On |1s m_1s, 2p (1, -m_1s)> it is d_1 times the
    ladder sign (see the module docstring), +1 for m_1s = 1/2 and -1 for -1/2,
    so by the symmetry of <1/2 m; 1/2 -m| S 0> the element is
    d_1 (1 - (-1)^(1 - S)) <1/2 1/2; 1/2 -1/2| S 0> <l 1; S 0| J 1>: only the
    singlet decays."""
    # d_1 = -<1 1; 1 -1| 0 0>, the angular factor of <1s| r_(-1) |2p_1> (radial integral 1)
    d_sign, d_square = cg_exact(1, 1, 1, -1, 0, 0)
    return _read_only(np.array([_root(
        (-d_sign * (ts == 0), 4 * d_square), cg_exact(0.5, 0.5, 0.5, -0.5, HalfInt(ts), 0),
        cg_exact(1, 1, HalfInt(ts), 0, HalfInt(tj), 1))
        for tj, ts in _columns(SubspaceLabel.M1)[1]]))


@dataclass(frozen=True, eq=False)   # array fields: == is identity
class AmplitudeSet:
    """The four coincidence amplitudes at one photoelectron kinetic energy: the
    (2, 2) complex array values[sigma, lambda - 1], stored as given, made read-only;
    anything but an ndarray is a TypeError and any other shape a ValueError, each
    naming it."""

    epsilon: float
    values: np.ndarray
    geometry: EmissionGeometry
    params: ModelParams | None = None   # the model, where the calculator made the set

    def __post_init__(self):
        _check_array("values", self.values)
        if self.values.shape != (2, 2):
            raise ValueError(f"values must have shape (2, 2), got {self.values.shape}")
        self.values.flags.writeable = False

    def __getitem__(self, channel: tuple[Spin, int]) -> complex:
        return complex(self.values[_channel_index(channel)])

    def vector(self) -> np.ndarray:
        """Amplitudes in (U1, U2, D1, D2) order."""
        return self.values.ravel()


class AmplitudeCalculator:
    """Everything the amplitudes need that depends only on the model parameters.

    The ground coupling E'_g, the intermediate eigensystems (one level solve,
    ``model._levels``: one evaluation of H' and one J = 1 rotation shared by
    both spins), the photoemission line positions, elements, weights and
    resolution verdicts (raised by ``spectra``, never here), and the J = 1
    down-spin positions and products of R(epsilon) are computed once,
    read-only, as rotations of the per-process constants in the coupled basis.
    Per kinetic energy ``reduced_amplitude`` sums R; per geometry
    ``amplitudes`` is R times the alpha closed forms at its one emission
    direction, and the last set is kept in a one-tuple slot (see the module
    docstring), which only ever holds a set whose inputs passed their checks.
    A model that leaves the domain raises ``DomainError`` naming the parameter
    set.
    """

    def __init__(self, params: ModelParams):
        self.params = params
        try:
            self.ground_coupling, self.eigensystems = _levels(params)   # E'_g, each spin's levels
            for width in (params.Gamma_1s, params.gamma):   # HWHMs, squared in spectra
                _check_width(width)
            # an overflow leaves an inf, and inf - inf a NaN, reported below
            energies = {s: eig.coupling_energies.tolist() for s, eig in self.eigensystems.items()}
            positions = {s: [params.Omega + params.eps_s + (self.ground_coupling - e) for e in x]
                         for s, x in energies.items()}
            if not all(isfinite(x) for lines in positions.values() for x in lines):
                raise DomainError("photoemission line positions are not finite")
        except DomainError as exc:
            raise DomainError(f"{params!r}: {exc}") from exc
        self.line_positions = {s: _read_only(np.array(x)) for s, x in positions.items()}
        # the coupled vectors rotated onto the levels; a zero of the triangle rule
        # (J against the removed s = 1/2 and the ground J = 1/2) is exact
        self.pe_elements = {sigma: _read_only(_photoemission_vector(sigma).dot(eig.rotation))
                            for sigma, eig in self.eigensystems.items()}
        self.line_weights = {s: _read_only(pe * pe) for s, pe in self.pe_elements.items()}
        self.line_verdicts = {s: _unresolved([   # of the lines and their terms, raised on each read
            *positions[s], params.Omega, params.eps_s, self.ground_coupling, *energies[s]])
            for s in _SPINS}
        down = self.eigensystems[Spin.DOWN]
        j1 = [k for k, j in enumerate(down.j_labels) if j.twice_value == 2]
        self.j1_positions = _read_only(self.line_positions[Spin.DOWN].take(j1))
        self.j1_products = _read_only((_decay_vector().dot(down.rotation)
                                       * self.pe_elements[Spin.DOWN]).take(j1))
        self._amplitude_slot = (None, None)   # (key, result)
        self._block_slot = (None, False, None, None)   # written by spectra.xepecs_spectrum

    def emission_line(self, epsilon: float) -> float:
        """omega_0 = Omega + eps_p + E'_g - epsilon, the emitted-photon energy."""
        return self.params.Omega + self.params.eps_p + self.ground_coupling - epsilon

    def reduced_amplitude(self, epsilon: float) -> complex:
        """R(epsilon); a DomainError (a ValueError) if ``epsilon`` or |R|^2 is not finite."""
        if not isfinite(epsilon):
            raise DomainError(f"epsilon must be finite, got {epsilon!r}")
        with np.errstate(over="ignore"):   # a denominator beyond the float range adds 0
            r = complex((self.j1_products / (
                self.j1_positions - epsilon + 1j * self.params.Gamma_1s)).sum())
        if not r.real * r.real + r.imag * r.imag < inf:   # float products overflow to inf
            raise DomainError(f"{self.params!r}, epsilon={epsilon!r}: "
                              "squared coincidence amplitudes are not finite")
        return r

    def amplitudes(self, geom: EmissionGeometry, epsilon: float) -> AmplitudeSet:
        """The four amplitudes at one geometry, kept for a repeat of (geometry, epsilon):
        R(epsilon) times KAPPA alpha_(lambda, 0) for sigma = up and alpha_(lambda, -1)
        for down. A theta outside [0, pi] raises ValueError before ``epsilon`` is checked."""
        key = struct.pack("5d", geom.theta, geom.phi, geom.beta1, geom.beta2, epsilon)
        slot = self._amplitude_slot
        # the slot only holds a set whose exact input bits passed alpha_components and
        # reduced_amplitude, so a hit has valid inputs; a bad theta or epsilon misses
        # and raises below, theta first
        if slot[0] != key:
            alpha0, alpha_m1 = alpha_components(geom.theta, geom.phi, geom.beta1, geom.beta2)
            values = self.reduced_amplitude(epsilon) * np.array((KAPPA * alpha0, alpha_m1))
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
