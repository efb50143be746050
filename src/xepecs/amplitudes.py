"""Photoemission and radiative-decay matrix elements, and the coincidence
amplitudes A(sigma, lambda; epsilon) of the second-order process.

The chain is: the incident photon ejects a 1s electron of spin sigma (first
order), the core-excited intermediate states propagate with a resonant
denominator, and the 2p -> 1s radiative decay emits a photon of polarization
lambda (second order):

    A(sigma, lambda) = sum_i  <f_(sigma lambda)| M_ph |i_sigma>
                              * <i_sigma| c^dag_(eps sigma) s_sigma a |g>
                              / (Omega + E_g - E_i - epsilon + i Gamma_1s)

Every bracket is evaluated mechanically through the fockspace operators. The
radial dipole integral is set to 1; the photoemission vertex carries a
constant 1/sqrt(2) so the total 1s removal strength summed over both spin
channels is normalized to unity (only ratios and normalized states are
observable here).

M_ph is linear in the spherical components alpha_q (q = +1, 0, -1) of the
emitted polarization vector, so the geometry enters only through a linear
contraction. The Fock-space work is done once per process: for each
intermediate subspace the 3 x dim matrix

    D_sigma[q, b] = <f_sigma| M_ph(alpha = e_q) |b>

over the basis states b. Once per ``ModelParams`` the calculator folds D_sigma
with the eigenvectors and the photoemission elements into one 3-vector per
spin and kinetic energy,

    t_sigma[q] = sum_i (D_sigma V_sigma)[q, i] pe_sigma[i] / denom_sigma[i],

and A(sigma, lambda) = sum_q alpha_(lambda q) t_sigma[q] for any number of
emission angles at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache
from math import sqrt
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
    EigenSystem,
    ModelParams,
    Subspace,
    SubspaceLabel,
    closed_shell,
    final_state_energy,
    initial_state,
    intermediate_eigensystem,
    intermediate_subspace,
    subspace,
)
from .polarization import (
    EmissionGeometry,
    polarization_components,
    polarization_vector,
    spherical_components,
)

__all__ = [
    "CHANNELS",
    "channel_label",
    "DipoleBlock",
    "AmplitudeSet",
    "photoemission_elements",
    "dipole_block",
    "xepecs_amplitudes",
    "AmplitudeCalculator",
    "calculator",
]

# (photoelectron spin, emitted polarization) channels in fixed order
CHANNELS: tuple[tuple[Spin, int], ...] = (
    (Spin.UP, 1), (Spin.UP, 2), (Spin.DOWN, 1), (Spin.DOWN, 2),
)

_LABELS = {(Spin.UP, 1): "U1", (Spin.UP, 2): "U2",
           (Spin.DOWN, 1): "D1", (Spin.DOWN, 2): "D2"}

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
    return _LABELS[channel]


def photoemission_elements(g: ManyBodyVector, eig: EigenSystem, sigma: Spin) -> np.ndarray:
    """<i_sigma| c^dag_(eps sigma) s_sigma a |g> for every eigenstate i.

    ``eig`` must be the intermediate eigensystem matching the photoelectron
    spin (M = 0 for up, M = 1 for down).
    """
    if eig.subspace != intermediate_subspace(sigma):
        raise ValueError(
            f"eigensystem over {eig.subspace.label.value} does not match "
            f"photoelectron spin {sigma}"
        )
    w = annihilate_photon(g, PhotonMode.INCIDENT)
    w = annihilate(w, SpinOrbital(Shell.S1S, 0, sigma))
    w = create_photoelectron(w, sigma)
    w = PHOTOEMISSION_VERTEX * w

    components = np.array(
        [inner(create_photoelectron(basis_vector(b), sigma), w) for b in eig.subspace.basis]
    )
    return eig.vectors.conj().T @ components


def _apply_mph(v: ManyBodyVector, alphas: dict[int, tuple[complex, complex, complex]]
               ) -> ManyBodyVector:
    """The 2p -> 1s photon-emission operator.

    alphas[i] holds the spherical projections (q = +1, 0, -1) of polarization
    vector i. Each term is d * b^dag_lambda s^dag_sigma p_(m sigma) with
    d = _EMISSION_VERTEX[m] * alpha_(-m).
    """
    terms = []
    for lam, alpha in alphas.items():
        for m, vertex in _EMISSION_VERTEX.items():
            d = vertex * alpha[1 + m]   # alpha_(-m): q = +1, 0, -1 sit at 0, 1, 2
            if d == 0:
                continue
            for sigma in (Spin.UP, Spin.DOWN):
                w = annihilate(v, SpinOrbital(Shell.P2P, m, sigma))
                if len(w) == 0:
                    continue
                w = create(w, SpinOrbital(Shell.S1S, 0, sigma))
                terms.append((d, create_photon(w, _EMITTED[lam])))
    return combine(terms)


def _final_state(sigma: Spin, lam: int) -> ManyBodyVector:
    """|f_(sigma lambda)>: closed 1s shell + photoelectron + emitted photon."""
    return create_photon(create_photoelectron(closed_shell(), sigma), _EMITTED[lam])


def _emission_rows(sub: Subspace, alphas: dict[int, tuple[complex, complex, complex]]
                   ) -> np.ndarray:
    """<f_(sigma lambda)| M_ph |basis state> for each polarization lambda in alphas.

    Rows follow the keys of ``alphas``, columns the subspace basis; the
    photoelectron spin is the one matching the subspace.
    """
    sigma = Spin.UP if sub.label is SubspaceLabel.M0 else Spin.DOWN
    block = np.zeros((len(alphas), sub.dim), dtype=complex)
    for col, b in enumerate(sub.basis):
        ket = create_photoelectron(basis_vector(b), sigma)
        image = _apply_mph(ket, alphas)
        for row, lam in enumerate(alphas):
            block[row, col] = inner(_final_state(sigma, lam), image)
    return block


def dipole_block(geom: EmissionGeometry, sub: Subspace) -> np.ndarray:
    """``_emission_rows`` for the two polarization vectors of ``geom``."""
    alphas = {i: spherical_components(polarization_vector(geom, i)) for i in (1, 2)}
    return _emission_rows(sub, alphas)


@cache
def _emission_basis(label: SubspaceLabel) -> np.ndarray:
    """D[q, b] = <f| M_ph(alpha = e_q) |b> for q = +1, 0, -1 (read-only, 3 x dim).

    Built on first use, once per process, through the Fock-space operators.
    The emitted photon mode only labels the final state, so the rows taken
    with polarization 1 serve both polarizations.
    """
    sub = subspace(label)
    unit = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
    rows = np.vstack([_emission_rows(sub, {1: e}) for e in unit])
    rows.flags.writeable = False
    return rows


@dataclass(frozen=True)
class DipoleBlock:
    """Both spin blocks of the photon-emission matrix for one geometry.

    The cross blocks (up final state from the M = 1 subspace and vice versa)
    vanish identically, so only the two diagonal blocks are stored. Their
    selection-rule zero columns are validated on construction.
    """

    up_block: np.ndarray    # 2 x 4, over the M = 0 basis
    down_block: np.ndarray  # 2 x 3, over the M = 1 basis
    geometry: EmissionGeometry

    @classmethod
    def from_geometry(cls, geom: EmissionGeometry) -> "DipoleBlock":
        up = dipole_block(geom, intermediate_subspace(Spin.UP))
        down = dipole_block(geom, intermediate_subspace(Spin.DOWN))
        if np.max(np.abs(up[:, 1:3])) > 1e-14 or np.max(np.abs(down[:, 1])) > 1e-14:
            raise RuntimeError("dipole selection-rule pattern violated")
        return cls(up, down, geom)

    def block(self, sigma: Spin) -> np.ndarray:
        return self.up_block if sigma is Spin.UP else self.down_block


@dataclass(frozen=True)
class AmplitudeSet:
    """The four coincidence amplitudes at one photoelectron kinetic energy."""

    epsilon: float
    values: Mapping[tuple[Spin, int], complex]
    geometry: EmissionGeometry

    def __getitem__(self, channel: tuple[Spin, int]) -> complex:
        return self.values[channel]

    def vector(self) -> np.ndarray:
        """Amplitudes in (U1, U2, D1, D2) order."""
        return np.array([self.values[c] for c in CHANNELS])

    def total_strength(self) -> float:
        return float(sum(abs(a) ** 2 for a in self.values.values()))


class AmplitudeCalculator:
    """Everything the amplitudes need that depends only on the model parameters.

    The initial state with E_g, the final-state energy E_f, the intermediate
    eigensystems, the photoemission elements and the emission matrices
    D_sigma V_sigma over the eigenstates are computed once on construction
    and stored read-only. Per kinetic energy, ``spin_vectors`` does the
    resonant sum; per geometry, the amplitudes are a contraction of those
    vectors with the polarization components, for one angle or for an array
    of them. A model that leaves the domain raises ``DomainError`` naming
    the parameter set.
    """

    def __init__(self, params: ModelParams):
        self.params = params
        try:
            self.initial, self.E_g = initial_state(params)
            self.E_f = final_state_energy(params)
            self.eigensystems = {sigma: intermediate_eigensystem(params, sigma) for sigma in Spin}
        except DomainError as exc:
            raise DomainError(f"{params!r}: {exc}") from exc
        self.pe_elements = {
            sigma: photoemission_elements(self.initial, eig, sigma)
            for sigma, eig in self.eigensystems.items()
        }
        self.emission = {
            sigma: _emission_basis(eig.subspace.label) @ eig.vectors   # (q, i)
            for sigma, eig in self.eigensystems.items()
        }
        for sigma, eig in self.eigensystems.items():
            for array in (eig.energies, eig.vectors, self.pe_elements[sigma],
                          self.emission[sigma]):
                array.flags.writeable = False

    def _resonance(self, sigma: Spin, epsilon: float) -> np.ndarray:
        """Omega + E_g - E_i - epsilon + i Gamma_1s over the eigenstates i."""
        p = self.params
        return p.Omega + self.E_g - self.eigensystems[sigma].energies - epsilon + 1j * p.Gamma_1s

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
        return AmplitudeSet(epsilon, values, geom)

    def per_eigenstate_terms(self, geom: EmissionGeometry, epsilon: float, sigma: Spin
                             ) -> np.ndarray:
        """Individual resonance terms (lambda, i) before the sum over i."""
        eig = self.eigensystems[sigma]
        emission = dipole_block(geom, eig.subspace) @ eig.vectors
        denom = self._resonance(sigma, epsilon)
        return emission * self.pe_elements[sigma][np.newaxis, :] / denom[np.newaxis, :]


@lru_cache(maxsize=_CALCULATOR_CACHE_SIZE)
def calculator(params: ModelParams) -> AmplitudeCalculator:
    """The shared calculator for a parameter set, built on first request."""
    return AmplitudeCalculator(params)


def xepecs_amplitudes(params: ModelParams, geom: EmissionGeometry, epsilon: float
                      ) -> AmplitudeSet:
    """The four A(sigma, lambda) at the given kinetic energy and geometry."""
    return calculator(params).amplitudes(geom, epsilon)
