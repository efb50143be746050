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

Every bracket is evaluated mechanically through the fockspace operators, once
per process. With the radial dipole integral 1 and the photoemission vertex
1/sqrt(2), both spins remove unit 1s strength (only ratios are observable).

M_ph is linear in the spherical components alpha_q (q = +1, 0, -1) of the
emitted polarization. Per intermediate subspace the Fock-space layer builds
D_sigma[q, b] = <f_sigma| M_ph(alpha = e_q) |b> over the basis states b, and
the photoemission components c_sigma[b] = <b| c^dag_(eps sigma) s_sigma a |g>.
Per ``ModelParams`` the calculator forms pe_sigma = V_sigma^dag c_sigma and,
per kinetic energy, one 3-vector

    t_sigma[q] = sum_i (D_sigma V_sigma)[q, i] pe_sigma[i] / denom_sigma[i],

so A(sigma, lambda) = sum_q alpha_(lambda q) t_sigma[q] for any number of
emission angles at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache
from math import inf, sqrt
from typing import Mapping

import numpy as np

from .angular import cg
from .fockspace import (
    ManyBodyVector,
    PhotonMode,
    Shell,
    Spin,
    SpinOrbital,
    annihilate,
    annihilate_photon,
    basis_vector,
    combine,
    create,
    create_photoelectron,
    create_photon,
    inner,
)
from .model import (
    DomainError,
    ModelParams,
    SubspaceLabel,
    closed_shell,
    final_state_energy,
    ground_coupling_energy,
    ground_state,
    initial_state,
    intermediate_eigensystem,
    intermediate_subspace,
    subspace,
)
from .polarization import EmissionGeometry, polarization_components

__all__ = [
    "CHANNELS",
    "channel_label",
    "AmplitudeSet",
    "xepecs_amplitudes",
    "AmplitudeCalculator",
    "calculator",
]

# (photoelectron spin, emitted polarization) channels in fixed order
CHANNELS: tuple[tuple[Spin, int], ...] = (
    (Spin.UP, 1), (Spin.UP, 2), (Spin.DOWN, 1), (Spin.DOWN, 2),
)

# Total 1s photoemission strength over both spin channels normalized to 1.
PHOTOEMISSION_VERTEX = 1.0 / sqrt(2.0)

# Angular factor of <1s| r_q |2p_m>, radial integral set to 1, from the CG
# layer: d_m = -<1 m; 1 -m|0 0> = (-1)^m / sqrt(3) multiplies alpha_(-m).
_EMISSION_VERTEX = {m: -cg(1, m, 1, -m, 0, 0) for m in (1, 0, -1)}

_EMITTED = {1: PhotonMode.EMITTED_1, 2: PhotonMode.EMITTED_2}

# parameter sets whose calculators are kept by ``calculator``
_CALCULATOR_CACHE_SIZE = 8


def channel_label(channel: tuple[Spin, int]) -> str:
    """Short tag like 'U2' for a (spin, polarization) channel."""
    sigma, lam = channel
    return f"{'U' if sigma is Spin.UP else 'D'}{lam}"


@cache
def _ground_components(sigma: Spin) -> np.ndarray:
    """<b| c^dag_(eps sigma) s_sigma a |g> of the ground state g over the
    intermediate basis states b (read-only), built once."""
    w = annihilate_photon(ground_state(), PhotonMode.INCIDENT)
    w = annihilate(w, SpinOrbital(Shell.S1S, 0, sigma))
    w = PHOTOEMISSION_VERTEX * create_photoelectron(w, sigma)
    components = np.array([inner(create_photoelectron(basis_vector(b), sigma), w)
                           for b in intermediate_subspace(sigma).basis])
    components.flags.writeable = False
    return components


def _final_state(sigma: Spin, lam: int) -> ManyBodyVector:
    """|f_(sigma lambda)>: closed 1s shell + photoelectron + emitted photon."""
    return create_photon(create_photoelectron(closed_shell(), sigma), _EMITTED[lam])


@cache
def _emission_basis(label: SubspaceLabel) -> np.ndarray:
    """D[q, b] = <f| M_ph(alpha = e_q) |b> for q = +1, 0, -1 (read-only, 3 x dim).

    M_ph(e_q) keeps the one vertex that alpha_q multiplies, d_m with m = -q,
    and its terms b^dag s^dag_sigma p_(m sigma) over both spins sigma. Built
    on first use, once per process, through the Fock-space operators. The
    emitted photon mode only labels the final state, so the rows taken with
    polarization 1 serve both polarizations.
    """
    sub = subspace(label)
    sigma = Spin.UP if label is SubspaceLabel.M0 else Spin.DOWN
    final = _final_state(sigma, 1)
    rows = np.zeros((3, sub.dim), dtype=complex)
    for col, b in enumerate(sub.basis):
        ket = create_photoelectron(basis_vector(b), sigma)
        for row, m in enumerate((-1, 0, 1)):   # q = +1, 0, -1
            terms = []
            for s in Spin:
                w = create(annihilate(ket, SpinOrbital(Shell.P2P, m, s)),
                           SpinOrbital(Shell.S1S, 0, s))
                terms.append((_EMISSION_VERTEX[m], create_photon(w, PhotonMode.EMITTED_1)))
            rows[row, col] = inner(final, combine(terms))
    rows.flags.writeable = False
    return rows


@dataclass(frozen=True)
class AmplitudeSet:
    """The four coincidence amplitudes at one photoelectron kinetic energy."""

    epsilon: float
    values: Mapping[tuple[Spin, int], complex]
    geometry: EmissionGeometry
    params: ModelParams | None = None   # the model, where the calculator made the set

    def __getitem__(self, channel: tuple[Spin, int]) -> complex:
        return self.values[channel]

    def vector(self) -> np.ndarray:
        """Amplitudes in (U1, U2, D1, D2) order."""
        return np.array([self.values[c] for c in CHANNELS])


class AmplitudeCalculator:
    """Everything the amplitudes need that depends only on the model parameters.

    The energies E_g, E_f and E'_g, the intermediate eigensystems, the
    photoemission line positions and elements, and the emission matrices
    D_sigma V_sigma over the eigenstates are computed once on construction
    and stored read-only. None of this runs the Fock-space operators: their
    work is cached per process in ``model`` and in this module. Per kinetic
    energy, ``spin_vectors`` does the resonant sum; per geometry, the
    amplitudes are a contraction of those vectors with the polarization
    components, for one angle or for an array of them. A model that leaves
    the domain raises ``DomainError`` naming the parameter set.
    """

    def __init__(self, params: ModelParams):
        self.params = params
        try:
            _, self.E_g = initial_state(params)
            self.E_f = final_state_energy(params)
            self.eigensystems = {sigma: intermediate_eigensystem(params, sigma) for sigma in Spin}
            self.ground_coupling = ground_coupling_energy(params)   # E'_g
            width = max(params.Gamma_1s, params.gamma)   # Lorentzian HWHMs, squared in spectra
            if not width * width < inf:
                raise DomainError(f"a Lorentzian width of {width:g} eV overflows its square")
        except DomainError as exc:
            raise DomainError(f"{params!r}: {exc}") from exc
        self.line_positions = {sigma: params.Omega + params.eps_s
                               + (self.ground_coupling - eig.coupling_energies)
                               for sigma, eig in self.eigensystems.items()}
        self.pe_elements = {
            sigma: eig.vectors.conj().T @ _ground_components(sigma)
            for sigma, eig in self.eigensystems.items()
        }
        self.emission = {
            sigma: _emission_basis(eig.subspace.label) @ eig.vectors   # (q, i)
            for sigma, eig in self.eigensystems.items()
        }
        for sigma, eig in self.eigensystems.items():
            for array in (eig.coupling_energies, eig.vectors, self.line_positions[sigma],
                          self.pe_elements[sigma], self.emission[sigma]):
                array.flags.writeable = False

    def emission_line(self, epsilon: float) -> float:
        """omega_0 = Omega + eps_p + E'_g - epsilon, the emitted-photon energy."""
        return self.params.Omega + self.params.eps_p + self.ground_coupling - epsilon

    def _resonance(self, sigma: Spin, epsilon: float) -> np.ndarray:
        """Omega + eps_s + E'_g - E'_i - epsilon + i Gamma_1s over the eigenstates i."""
        return self.line_positions[sigma] - epsilon + 1j * self.params.Gamma_1s

    def spin_vectors(self, epsilon: float) -> np.ndarray:
        """t[sigma, q]: the resonant sum over eigenstates, rows (up, down)."""
        return np.array([self.emission[s] @ (self.pe_elements[s] / self._resonance(s, epsilon))
                         for s in Spin])

    def amplitude_array(self, thetas: np.ndarray, geom: EmissionGeometry, epsilon: float
                        ) -> np.ndarray:
        """A[n, sigma, lambda] at the polar angles thetas (radians).

        phi, beta1 and beta2 are taken from ``geom``; sigma runs (up, down)
        and lambda (1, 2), so ``A[n].ravel()`` is in CHANNELS order.
        """
        alphas = polarization_components(thetas, geom.phi, geom.beta1, geom.beta2)
        return np.einsum("nlq,sq->nsl", alphas, self.spin_vectors(epsilon))

    def amplitudes(self, geom: EmissionGeometry, epsilon: float) -> AmplitudeSet:
        summed = self.amplitude_array(np.array([geom.theta]), geom, epsilon)[0]
        values = {(sigma, lam): complex(summed[s, lam - 1])
                  for s, sigma in enumerate((Spin.UP, Spin.DOWN)) for lam in (1, 2)}
        return AmplitudeSet(epsilon, values, geom, self.params)


@lru_cache(maxsize=_CALCULATOR_CACHE_SIZE)
def calculator(params: ModelParams) -> AmplitudeCalculator:
    """The shared calculator for a parameter set, built on first request."""
    return AmplitudeCalculator(params)


def xepecs_amplitudes(params: ModelParams, geom: EmissionGeometry, epsilon: float
                      ) -> AmplitudeSet:
    """The four A(sigma, lambda) at the given kinetic energy and geometry."""
    return calculator(params).amplitudes(geom, epsilon)
